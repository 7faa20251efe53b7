package ml

import "math"

// Param is one trainable tensor: a flat weight slice paired with its
// gradient accumulator. Layers expose their weights as Params so a single
// optimizer can update a whole model.
type Param struct {
	// Name identifies the parameter in diagnostics.
	Name string
	// W is the weight storage (often aliasing a Mat's Data).
	W []float64
	// G is the gradient accumulator, same length as W.
	G []float64
}

// NewParam wraps a weight slice with a fresh gradient buffer.
func NewParam(name string, w []float64) *Param {
	return &Param{Name: name, W: w, G: make([]float64, len(w))}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and clears gradients.
	Step(params []*Param)
}

// Adam is the Adam optimizer (Kingma & Ba, 2015) — the optimizer in the
// paper's Table 5 with learning rate 0.001.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1, Beta2 are the moment decay rates.
	Beta1, Beta2 float64
	// Eps is the denominator fuzz.
	Eps float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam builds an Adam optimizer with the standard hyper-parameters
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2, d1, d2 := a.Beta1, a.Beta2, 1-a.Beta1, 1-a.Beta2
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			a.v[p] = v
		}
		// Head slicing pins every operand to p.W's length so the inner
		// loop runs without bounds checks.
		w := p.W
		g := p.G[:len(w)]
		m = m[:len(w)]
		v = v[:len(w)]
		for i := range w {
			gi := g[i]
			mi := b1*m[i] + d1*gi
			vi := b2*v[i] + d2*gi*gi
			m[i] = mi
			v[i] = vi
			w[i] -= a.LR * (mi / c1) / (math.Sqrt(vi/c2) + a.Eps)
		}
		p.ZeroGrad()
	}
}
