package ml

import (
	"math"
	"testing"
)

// quadStep sets the gradient of the 1-D test objective f(w) = (w-3)²,
// which is 2(w-3). The optimizer must drive w toward 3.
func quadStep(p *Param) {
	p.G[0] = 2 * (p.W[0] - 3)
}

func TestAdamConverges(t *testing.T) {
	p := NewParam("w", []float64{0})
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		quadStep(p)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W[0]-3) > 1e-3 {
		t.Fatalf("Adam: w = %v, want 3", p.W[0])
	}
}

func TestStepClearsGradients(t *testing.T) {
	p := NewParam("w", []float64{1, 2})
	p.G[0], p.G[1] = 5, 7
	NewAdam(0.001).Step([]*Param{p})
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Fatalf("gradients not cleared: %v", p.G)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// Adam's bias correction makes the very first step ≈ LR regardless of
	// gradient magnitude.
	for _, g := range []float64{1e-4, 1, 1e4} {
		p := NewParam("w", []float64{0})
		p.G[0] = g
		NewAdam(0.01).Step([]*Param{p})
		if math.Abs(math.Abs(p.W[0])-0.01) > 1e-6 {
			t.Fatalf("first Adam step for grad %v moved %v, want ±0.01", g, p.W[0])
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	cfg := AttentionLSTMConfig{Vocab: 3, Embed: 4, Hidden: 2, LR: 0.1, Seed: 1}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	e := m.emb
	v0 := e.Forward(0).Clone()
	e.Backward(0, Vec{1, 1, 1, 1})
	// Gradient accumulated in the param, weights unchanged until Step.
	if got := e.Forward(0); got[0] != v0[0] {
		t.Fatal("Backward modified weights directly")
	}
	sum := 0.0
	for _, g := range e.Params()[0].G {
		sum += g
	}
	if sum != 4 {
		t.Fatalf("embedding grad sum = %v, want 4", sum)
	}
}
