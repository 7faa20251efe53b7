package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestMLPValidation(t *testing.T) {
	if _, err := NewMLP(0, 4, 0.01, 1); err == nil {
		t.Fatal("zero input dim accepted")
	}
	if _, err := NewMLP(4, 0, 0.01, 1); err == nil {
		t.Fatal("zero hidden dim accepted")
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR over two binary features is the canonical linearly-inseparable
	// task: a perceptron cannot learn it, a one-hidden-layer MLP can.
	// Feature 0/1 = first bit on, feature 2/3 = second bit on.
	m, err := NewMLP(4, 8, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		active []int
		label  bool
	}{
		{[]int{0, 2}, false},
		{[]int{0, 3}, true},
		{[]int{1, 2}, true},
		{[]int{1, 3}, false},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		c := cases[r.Intn(len(cases))]
		m.TrainSample(c.active, c.label)
	}
	for _, c := range cases {
		if m.Predict(c.active) != c.label {
			t.Fatalf("MLP failed XOR on %v", c.active)
		}
	}
}

func TestMLPLossDecreases(t *testing.T) {
	m, err := NewMLP(8, 6, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := m.TrainSample([]int{1, 3}, true)
	var last float64
	for i := 0; i < 200; i++ {
		last = m.TrainSample([]int{1, 3}, true)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestMLPGradients(t *testing.T) {
	m, err := NewMLP(6, 5, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	active := []int{0, 2, 5}
	label := true

	// Capture analytic gradients without updating.
	cap := &captureOptimizer{}
	saved := m.opt
	m.opt = cap
	m.TrainSample(active, label)
	m.opt = saved
	grads := cap.grads

	loss := func() float64 {
		_, _, p := m.forward(active)
		y := 0
		if label {
			y = 1
		}
		return -logSafe(p[y])
	}
	const eps = 1e-5
	const tol = 1e-4
	for _, p := range m.params {
		g := grads[p.Name]
		for i := 0; i < len(p.W); i += len(p.W)/7 + 1 {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := loss()
			p.W[i] = orig - eps
			lm := loss()
			p.W[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if diff := math.Abs(numeric - g[i]); diff > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, g[i], numeric)
			}
		}
	}
}

func TestMLPFeatureIndexWrapping(t *testing.T) {
	m, _ := NewMLP(4, 4, 0.01, 1)
	// Out-of-range and negative indices must be folded, not panic.
	m.TrainSample([]int{100, -3}, true)
	_ = m.Predict([]int{100, -3})
}

func TestMLPNumWeights(t *testing.T) {
	m, _ := NewMLP(10, 5, 0.01, 1)
	want := 10*5 + 5 + 2*5 + 2
	if m.NumWeights() != want {
		t.Fatalf("NumWeights = %d, want %d", m.NumWeights(), want)
	}
}
