package ml

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the dense kernels and the LSTM hot path. `make bench`
// runs these (and the offline training benchmarks) and records the results
// in BENCH_train.json.

func benchSeq(vocab, n int) ([]int, []bool) {
	r := rand.New(rand.NewSource(5))
	tokens := make([]int, n)
	labels := make([]bool, n)
	for i := range tokens {
		tokens[i] = r.Intn(vocab)
		labels[i] = r.Intn(2) == 0
	}
	return tokens, labels
}

func BenchmarkMulVec(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := randMat(r, 128, 128)
	x, out := NewVec(128), NewVec(128)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, out)
	}
}

func BenchmarkMatMul(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	a, m, out := randMat(r, 60, 128), randMat(r, 128, 32), NewMat(60, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, m, out)
	}
}

func BenchmarkAddOuterBatch(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	xs, ys, m := randMat(r, 60, 128), randMat(r, 60, 32), NewMat(128, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddOuterBatch(m, xs, ys)
	}
}

// BenchmarkLSTMStep measures one full train step (forward + backward +
// optimizer) of the attention model on a paper-shaped sequence (2N = 60
// tokens, N predictions). ns/op here is the unit of work the data-parallel
// trainer distributes.
func BenchmarkLSTMStep(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		cfg := FastConfig(256)
		m, err := NewAttentionLSTM(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tokens, labels := benchSeq(cfg.Vocab, 60)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TrainSequence(tokens, labels, 30)
		}
	})
}
