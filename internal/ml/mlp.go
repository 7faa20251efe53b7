package ml

import (
	"fmt"
	"math/rand"
)

// MLP is a small two-layer feed-forward classifier over sparse binary
// features: input → ReLU hidden layer → 2-way softmax. It implements the
// paper's stated future-work direction (§2.1): feeding MPPPB's
// multiperspective feature set into a deep model instead of a linear
// perceptron.
//
// Inputs are presented as the set of active feature indices (the features
// are binary), so the first layer's forward pass is a sum of columns.
type MLP struct {
	// In is the feature-space size, Hidden the hidden width.
	In, Hidden int

	w1 *Mat // Hidden × In
	b1 Vec
	w2 *Mat // 2 × Hidden
	b2 Vec

	params []*Param
	gW1    *Mat
	gB1    Vec
	gW2    *Mat
	gB2    Vec
	// lr is the SGD step. Updates are applied sparsely (only the touched
	// first-layer columns), which keeps per-sample cost proportional to
	// the active-feature count — a dense optimizer over the 4096-wide
	// first layer would dominate training time.
	lr float64
	// opt, when non-nil, replaces the sparse SGD step (used by the
	// gradient-checking tests to capture gradients).
	opt Optimizer
}

// NewMLP builds the classifier with Xavier initialization; training uses
// sparse SGD with the given learning rate.
func NewMLP(in, hidden int, lr float64, seed int64) (*MLP, error) {
	if in <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("ml: invalid MLP dims in=%d hidden=%d", in, hidden)
	}
	if lr <= 0 {
		lr = 0.001
	}
	r := rand.New(rand.NewSource(seed))
	m := &MLP{
		In: in, Hidden: hidden,
		w1: NewMat(hidden, in),
		b1: NewVec(hidden),
		w2: NewMat(2, hidden),
		b2: NewVec(2),
	}
	m.w1.XavierInit(r)
	m.w2.XavierInit(r)
	pW1 := NewParam("mlp.w1", m.w1.Data)
	pB1 := NewParam("mlp.b1", m.b1)
	pW2 := NewParam("mlp.w2", m.w2.Data)
	pB2 := NewParam("mlp.b2", m.b2)
	m.params = []*Param{pW1, pB1, pW2, pB2}
	m.gW1 = &Mat{Rows: hidden, Cols: in, Data: pW1.G}
	m.gB1 = Vec(pB1.G)
	m.gW2 = &Mat{Rows: 2, Cols: hidden, Data: pW2.G}
	m.gB2 = Vec(pB2.G)
	m.lr = lr
	return m, nil
}

// NumWeights returns the parameter count.
func (m *MLP) NumWeights() int {
	return len(m.w1.Data) + len(m.b1) + len(m.w2.Data) + len(m.b2)
}

// forward computes hidden pre-activations, activations, and class
// probabilities for the active feature set.
func (m *MLP) forward(active []int) (z, h, probs Vec) {
	z = m.b1.Clone()
	for _, f := range active {
		f %= m.In
		if f < 0 {
			f += m.In
		}
		// Column f of w1.
		for j := 0; j < m.Hidden; j++ {
			z[j] += m.w1.Data[j*m.In+f]
		}
	}
	h = NewVec(m.Hidden)
	for j, v := range z {
		if v > 0 {
			h[j] = v
		}
	}
	logits := NewVec(2)
	m.w2.MulVec(h, logits)
	logits.Add(m.b2)
	probs = NewVec(2)
	Softmax(logits, probs)
	return z, h, probs
}

// Predict classifies the feature set as cache-friendly.
func (m *MLP) Predict(active []int) bool {
	_, _, p := m.forward(active)
	return p[1] >= p[0]
}

// TrainSample performs one SGD step on a labeled sample and returns the
// cross-entropy loss.
func (m *MLP) TrainSample(active []int, friendly bool) float64 {
	z, h, probs := m.forward(active)
	y := 0
	if friendly {
		y = 1
	}
	loss := -logSafe(probs[y])

	dLogits := Vec{probs[0], probs[1]}
	dLogits[y] -= 1

	m.gW2.AddOuter(dLogits, h)
	m.gB2.Add(dLogits)

	dH := NewVec(m.Hidden)
	m.w2.MulVecT(dLogits, dH)
	// ReLU backward.
	for j := range dH {
		if z[j] <= 0 {
			dH[j] = 0
		}
	}
	m.gB1.Add(dH)
	for _, f := range active {
		f %= m.In
		if f < 0 {
			f += m.In
		}
		for j := 0; j < m.Hidden; j++ {
			m.gW1.Data[j*m.In+f] += dH[j]
		}
	}
	if m.opt != nil {
		m.opt.Step(m.params)
		return loss
	}
	// Sparse SGD: only the touched w1 columns plus the small dense tensors.
	for _, f := range active {
		f %= m.In
		if f < 0 {
			f += m.In
		}
		for j := 0; j < m.Hidden; j++ {
			i := j*m.In + f
			m.w1.Data[i] -= m.lr * m.gW1.Data[i]
			m.gW1.Data[i] = 0
		}
	}
	for j := range m.b1 {
		m.b1[j] -= m.lr * m.gB1[j]
		m.gB1[j] = 0
	}
	for i := range m.w2.Data {
		m.w2.Data[i] -= m.lr * m.gW2.Data[i]
		m.gW2.Data[i] = 0
	}
	for i := range m.b2 {
		m.b2[i] -= m.lr * m.gB2[i]
		m.gB2[i] = 0
	}
	return loss
}
