package ml

import (
	"math"
	"testing"
)

func TestQuantizeTensorBounds(t *testing.T) {
	w := []float64{-1, -0.5, 0, 0.25, 1}
	orig := append([]float64(nil), w...)
	maxErr := quantizeTensor(w)
	scale := 1.0 / 127
	if maxErr > scale/2+1e-12 {
		t.Fatalf("max error %v exceeds half a quantization step %v", maxErr, scale/2)
	}
	for i := range w {
		if math.Abs(w[i]-orig[i]) > scale/2+1e-12 {
			t.Fatalf("weight %d moved %v", i, math.Abs(w[i]-orig[i]))
		}
	}
}

func TestQuantizeTensorZeros(t *testing.T) {
	w := []float64{0, 0, 0}
	if quantizeTensor(w) != 0 {
		t.Fatal("all-zero tensor should quantize exactly")
	}
}

func TestQuantizeAttentionLSTMPreservesAccuracy(t *testing.T) {
	// Train a model on a learnable task, quantize, and check predictions
	// survive (int8 quantization should barely perturb a trained model).
	cfg := AttentionLSTMConfig{Vocab: 4, Embed: 8, Hidden: 8, LR: 0.02, ClipNorm: 5, Seed: 1}
	m, err := NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	labels := []bool{false, true, false, true, false, true, false, true, false, true}
	for i := 0; i < 80; i++ {
		m.TrainSequence(tokens, labels, 4)
	}
	before := m.Predict(tokens, 4)
	rep := QuantizeAttentionLSTM(m)
	after := m.Predict(tokens, 4)

	same := 0
	for i := range before {
		if before[i] == after[i] {
			same++
		}
	}
	if same < len(before)-1 {
		t.Fatalf("quantization flipped %d of %d predictions", len(before)-same, len(before))
	}
	if rep.CompressionRatio() < 7 || rep.CompressionRatio() > 8.5 {
		t.Fatalf("compression ratio %v, want ≈8 (float64 → int8)", rep.CompressionRatio())
	}
	if rep.Params != m.NumWeights() {
		t.Fatalf("quantized %d params, model has %d", rep.Params, m.NumWeights())
	}
}
