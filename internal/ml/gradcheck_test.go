package ml

import (
	"math"
	"math/rand"
	"testing"
)

// Numerical gradient checking for the LSTM and the full attention model:
// compare analytic gradients against central finite differences of the loss.

// seqLoss computes the model's summed cross-entropy loss on one sequence
// without updating weights.
func seqLoss(m *AttentionLSTM, tokens []int, labels []bool, predictFrom int) float64 {
	fp := m.forward(tokens, predictFrom)
	loss := 0.0
	for i, p := range fp.probs {
		y := 0
		if labels[predictFrom+i] {
			y = 1
		}
		loss += -logSafe(p[y])
	}
	return loss
}

// analyticGrads runs one backward pass and returns a copy of every
// parameter's gradient (without applying the optimizer).
func analyticGrads(m *AttentionLSTM, tokens []int, labels []bool, predictFrom int) map[string][]float64 {
	// TrainSequence applies the optimizer, so replicate its backward pass by
	// temporarily using a zero-learning-rate optimizer: run TrainSequence on
	// a clone-free path is invasive; instead reuse TrainSequence but stash
	// gradients before the step by using a capture optimizer.
	cap := &captureOptimizer{}
	saved := m.opt
	savedClip := m.cfg.ClipNorm
	m.cfg.ClipNorm = 0
	m.optOverride(cap)
	m.TrainSequence(tokens, labels, predictFrom)
	m.optOverride(saved)
	m.cfg.ClipNorm = savedClip
	return cap.grads
}

// captureOptimizer records gradients and applies no update.
type captureOptimizer struct {
	grads map[string][]float64
}

func (c *captureOptimizer) Step(params []*Param) {
	c.grads = make(map[string][]float64, len(params))
	for _, p := range params {
		c.grads[p.Name] = append([]float64(nil), p.G...)
		p.ZeroGrad()
	}
}

// wantParamNames is the complete trainable-parameter set of the model; the
// checks below fail if any of these stops receiving a gradient.
var wantParamNames = []string{"embedding", "lstm.wx", "lstm.wh", "lstm.b", "out.w", "out.b"}

// checkModelGradients compares analytic gradients of every parameter against
// central finite differences, probing a deterministic sample of indices, and
// asserts full coverage of wantParamNames.
func checkModelGradients(t *testing.T, m *AttentionLSTM, tokens []int, labels []bool, predictFrom, probes int) {
	t.Helper()
	grads := analyticGrads(m, tokens, labels, predictFrom)
	for _, name := range wantParamNames {
		if grads[name] == nil {
			t.Fatalf("no captured gradient for %s", name)
		}
	}
	if len(grads) != len(wantParamNames) {
		t.Fatalf("captured %d parameter gradients, want %d (%v)", len(grads), len(wantParamNames), wantParamNames)
	}

	const eps = 1e-5
	const tol = 1e-4
	checked := 0
	for _, p := range m.params {
		g := grads[p.Name]
		step := len(p.W)/probes + 1
		for i := 0; i < len(p.W); i += step {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := seqLoss(m, tokens, labels, predictFrom)
			p.W[i] = orig - eps
			lm := seqLoss(m, tokens, labels, predictFrom)
			p.W[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if diff := math.Abs(numeric - g[i]); diff > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, g[i], numeric)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestAttentionLSTMGradients(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		cfg := AttentionLSTMConfig{Vocab: 7, Embed: 5, Hidden: 6, Scale: 2, LR: 0.01, Seed: 3}
		m, err := NewAttentionLSTM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(11))
		tokens := make([]int, 12)
		labels := make([]bool, 12)
		for i := range tokens {
			tokens[i] = r.Intn(cfg.Vocab)
			labels[i] = r.Intn(2) == 0
		}
		checkModelGradients(t, m, tokens, labels, 6, 7)
	})
}

func TestLSTMGradientsViaModel(t *testing.T) {
	// A second configuration (scale 1, different sizes) to cover the
	// unscaled-attention path.
	t.Run("batched", func(t *testing.T) {
		cfg := AttentionLSTMConfig{Vocab: 4, Embed: 3, Hidden: 4, Scale: 1, LR: 0.01, Seed: 9}
		m, err := NewAttentionLSTM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tokens := []int{0, 1, 2, 3, 2, 1, 0, 3}
		labels := []bool{true, false, true, true, false, true, false, true}
		checkModelGradients(t, m, tokens, labels, 4, 5)
	})
}

// TestKernelPathEquivalence trains two identically-seeded models — one on
// the scalar reference kernels (reference_test.go), one on the production
// batched kernels — and demands that per-sequence losses and the final
// weights agree to floating-point noise. The batched path is a reordering
// of the same arithmetic, not an approximation; any real divergence is a
// kernel bug.
func TestKernelPathEquivalence(t *testing.T) {
	build := func() *AttentionLSTM {
		m, err := NewAttentionLSTM(AttentionLSTMConfig{
			Vocab: 11, Embed: 6, Hidden: 8, Scale: 2, LR: 0.05, ClipNorm: 1, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	scalar, batched := build(), build()

	r := rand.New(rand.NewSource(77))
	const tol = 1e-9
	for seq := 0; seq < 25; seq++ {
		n := 8 + r.Intn(12)
		tokens := make([]int, n)
		labels := make([]bool, n)
		for i := range tokens {
			tokens[i] = r.Intn(11)
			labels[i] = r.Intn(2) == 0
		}
		predictFrom := n / 2
		ls := scalar.trainSequenceScalar(tokens, labels, predictFrom)
		lb := batched.TrainSequence(tokens, labels, predictFrom)
		if diff := math.Abs(ls - lb); diff > tol*(1+math.Abs(ls)) {
			t.Fatalf("sequence %d: scalar loss %v vs batched loss %v", seq, ls, lb)
		}
	}
	ws, wb := scalar.WeightSnapshot(), batched.WeightSnapshot()
	for name, s := range ws {
		b := wb[name]
		if len(b) != len(s) {
			t.Fatalf("%s: weight length mismatch %d vs %d", name, len(s), len(b))
		}
		for i := range s {
			if diff := math.Abs(s[i] - b[i]); diff > tol*(1+math.Abs(s[i])) {
				t.Fatalf("%s[%d]: scalar weight %v vs batched %v", name, i, s[i], b[i])
			}
		}
	}
}
