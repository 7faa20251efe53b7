package ml

import (
	"math"
	"reflect"
	"testing"
)

// TestFitRidgeQuantized fits a known linear system and requires the
// quantized model to recover it: weights and intercept near the generating
// ones, predictions near the targets, and a second fit of the same rows
// bit-identical to the first.
func TestFitRidgeQuantized(t *testing.T) {
	X := [][]float64{
		{1, 0, -1}, {0.5, 2, 0}, {-1, 1, 1}, {2, -0.5, 0.25},
		{0, 0, 1}, {1, 1, 1}, {-0.5, -2, 0.5}, {0.25, 0.75, -1.5},
	}
	coef, bias := []float64{0.8, -0.2, 0.05}, 0.3
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = bias
		for j, c := range coef {
			y[i] += c * x[j]
		}
	}
	m, err := FitRidgeQuantized(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if m.In() != len(coef) {
		t.Fatalf("In() = %d, want %d", m.In(), len(coef))
	}
	for j, c := range coef {
		if w := float64(m.W[j]) * m.Scale; math.Abs(w-c) > 1e-4 {
			t.Errorf("weight %d = %g, want %g", j, w, c)
		}
	}
	if math.Abs(m.Bias-bias) > 1e-4 {
		t.Errorf("bias = %g, want %g", m.Bias, bias)
	}
	for i, x := range X {
		if got := m.Predict(x); math.Abs(got-y[i]) > 1e-3 {
			t.Errorf("row %d: predicted %g, target %g", i, got, y[i])
		}
	}
	again, err := FitRidgeQuantized(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("refit differs: %+v vs %+v", again, m)
	}
}

func TestFitRidgeQuantizedRejects(t *testing.T) {
	for name, c := range map[string]struct {
		X      [][]float64
		y      []float64
		lambda float64
	}{
		"no rows":       {nil, nil, 1},
		"short targets": {[][]float64{{1}, {2}}, []float64{1}, 1},
		"ragged rows":   {[][]float64{{1, 2}, {3}}, []float64{1, 2}, 1},
		"zero lambda":   {[][]float64{{1}, {2}}, []float64{1, 2}, 0},
	} {
		if _, err := FitRidgeQuantized(c.X, c.y, c.lambda); err == nil {
			t.Errorf("%s: fit accepted", name)
		}
	}
}
