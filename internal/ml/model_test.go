package ml

import (
	"math/rand"
	"testing"
)

func TestAttentionLSTMLearnsContextRule(t *testing.T) {
	// Synthetic sequence-labeling task mirroring the caching formulation: a
	// "target" token's label is friendly iff a marker token appeared within
	// the previous few steps. Only a sequence model can solve it.
	cfg := AttentionLSTMConfig{Vocab: 8, Embed: 12, Hidden: 16, Scale: 1, LR: 0.01, ClipNorm: 5, Seed: 5}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const marker = 7
	const target = 6
	r := rand.New(rand.NewSource(2))
	gen := func() ([]int, []bool) {
		tokens := make([]int, 20)
		labels := make([]bool, 20)
		sawMarker := -10
		for i := range tokens {
			switch x := r.Intn(5); x {
			case 0:
				tokens[i] = marker
				sawMarker = i
			case 1:
				tokens[i] = target
			default:
				tokens[i] = r.Intn(5)
			}
			if tokens[i] == target {
				labels[i] = i-sawMarker <= 4
			}
		}
		return tokens, labels
	}
	for epoch := 0; epoch < 60; epoch++ {
		tokens, labels := gen()
		m.TrainSequence(tokens, labels, 5)
	}
	correct, total := 0, 0
	for i := 0; i < 20; i++ {
		tokens, labels := gen()
		c, n := m.EvalSequence(tokens, labels, 5)
		correct += c
		total += n
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Fatalf("LSTM accuracy = %.3f on context task, want ≥ 0.8", acc)
	}
}

func TestAttentionLSTMLossDecreases(t *testing.T) {
	cfg := AttentionLSTMConfig{Vocab: 4, Embed: 8, Hidden: 8, LR: 0.02, ClipNorm: 5, Seed: 1}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	labels := []bool{false, true, false, true, false, true, false, true, false, true}
	first := m.TrainSequence(tokens, labels, 4)
	var last float64
	for i := 0; i < 40; i++ {
		last = m.TrainSequence(tokens, labels, 4)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestAttentionWeightsShape(t *testing.T) {
	cfg := AttentionLSTMConfig{Vocab: 4, Embed: 4, Hidden: 4, Seed: 1}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{0, 1, 2, 3, 0, 1}
	w := m.AttentionWeights(tokens, 3)
	if len(w) != 3 {
		t.Fatalf("got %d weight rows, want 3", len(w))
	}
	for i, row := range w {
		if len(row) != 3+i {
			t.Fatalf("row %d has %d sources, want %d", i, len(row), 3+i)
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("attention weight %v outside [0,1]", v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d weights sum to %v, want 1", i, sum)
		}
	}
}

func TestAttentionScaleSharpens(t *testing.T) {
	// Raising the scaling factor must concentrate the attention
	// distribution (Figure 4's premise): the max weight under scale 5 is at
	// least the max weight under scale 1 for identical hidden states.
	r := rand.New(rand.NewSource(7))
	target := NewVec(8)
	sources := NewMat(6, 8)
	for i := range target {
		target[i] = r.NormFloat64()
	}
	for i := range sources.Data {
		sources.Data[i] = r.NormFloat64()
	}
	attend := func(scale float64) AttentionState {
		var st AttentionState
		(&Attention{Scale: scale}).ForwardMat(target, sources, NewVec(6), NewVec(8), &st)
		return st
	}
	low, high := attend(1), attend(5)
	maxOf := func(v Vec) float64 {
		m := v[0]
		for _, x := range v[1:] {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(high.Weights) < maxOf(low.Weights) {
		t.Fatalf("scale 5 max weight %v < scale 1 max weight %v", maxOf(high.Weights), maxOf(low.Weights))
	}
}

func TestModelConfigValidation(t *testing.T) {
	if _, err := NewAttentionLSTM(AttentionLSTMConfig{}); err == nil {
		t.Fatal("zero config should be rejected")
	}
	if _, err := NewAttentionLSTM(AttentionLSTMConfig{Vocab: 1, Embed: -1, Hidden: 4}); err == nil {
		t.Fatal("negative embed should be rejected")
	}
}

func TestNumWeightsMatchesParams(t *testing.T) {
	cfg := AttentionLSTMConfig{Vocab: 5, Embed: 4, Hidden: 3, Seed: 1}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range m.params {
		total += len(p.W)
	}
	if m.NumWeights() != total {
		t.Fatalf("NumWeights = %d, params hold %d", m.NumWeights(), total)
	}
}

func TestPredictDeterministic(t *testing.T) {
	cfg := AttentionLSTMConfig{Vocab: 4, Embed: 4, Hidden: 4, Seed: 1}
	m, _ := NewAttentionLSTM(cfg)
	tokens := []int{0, 1, 2, 3, 2, 1}
	a := m.Predict(tokens, 3)
	b := m.Predict(tokens, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Predict is not deterministic")
		}
	}
}

func TestFastAndPaperConfigs(t *testing.T) {
	fast := FastConfig(100)
	paper := PaperConfig(100)
	if fast.Hidden >= paper.Hidden {
		t.Fatal("FastConfig should be smaller than PaperConfig")
	}
	if paper.Embed != 128 || paper.Hidden != 128 || paper.LR != 0.001 {
		t.Fatalf("PaperConfig deviates from Table 5: %+v", paper)
	}
}
