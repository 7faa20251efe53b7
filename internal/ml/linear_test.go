package ml

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// unordered is the ISVM's feature set: every PC at Pos 0.
func unordered(pcs ...uint64) []Feature {
	out := make([]Feature, len(pcs))
	for i, pc := range pcs {
		out[i] = Feature{PC: pc}
	}
	return out
}

// ordered is the Perceptron's feature set: each PC at its history position.
func ordered(pcs ...uint64) []Feature {
	out := make([]Feature, len(pcs))
	for i, pc := range pcs {
		out[i] = Feature{Pos: i, PC: pc}
	}
	return out
}

func TestOfflineISVMLearnsContext(t *testing.T) {
	// Target PC 100 is friendly when PC 1 is in history, averse when PC 2
	// is — unlearnable from the PC alone, learnable from the unordered
	// history.
	m := NewHingeSVM(10)
	for i := 0; i < 200; i++ {
		m.Train(100, unordered(1, 7, 8), true)
		m.Train(100, unordered(2, 7, 8), false)
	}
	if !m.Predict(100, unordered(1, 7, 8)) {
		t.Fatal("ISVM failed to learn friendly context")
	}
	if m.Predict(100, unordered(2, 7, 8)) {
		t.Fatal("ISVM failed to learn averse context")
	}
}

func TestOfflineISVMOrderInvariance(t *testing.T) {
	m := NewHingeSVM(10)
	for i := 0; i < 50; i++ {
		m.Train(5, unordered(1, 2, 3), true)
	}
	if m.Sum(5, unordered(1, 2, 3)) != m.Sum(5, unordered(3, 1, 2)) {
		t.Fatal("k-sparse feature is order sensitive")
	}
}

func TestOfflineISVMHingeStopsUpdating(t *testing.T) {
	m := NewHingeSVM(5)
	for i := 0; i < 100; i++ {
		m.Train(1, unordered(9, 10), true)
	}
	// Margin is capped near StepInverse: weights stop growing once
	// y·sum ≥ n.
	if s := m.Sum(1, unordered(9, 10)); s < 5 || s > 7 {
		t.Fatalf("hinge margin not bounded: sum = %d", s)
	}
}

func TestOrderedSVMIsOrderSensitive(t *testing.T) {
	m := NewHingeSVM(10)
	for i := 0; i < 100; i++ {
		m.Train(5, ordered(1, 2, 3), true)
		m.Train(5, ordered(3, 2, 1), false)
	}
	if !m.Predict(5, ordered(1, 2, 3)) || m.Predict(5, ordered(3, 2, 1)) {
		t.Fatal("SVM over ordered features failed to separate orderings (it must be order sensitive)")
	}
}

func TestHawkeyeCountersSaturate(t *testing.T) {
	m := NewHawkeyeCounters()
	for i := 0; i < 100; i++ {
		m.Train(1, true)
	}
	if !m.Predict(1) {
		t.Fatal("counter should predict friendly after positive training")
	}
	// 100 positive then 16 negative: counter saturated at +15, so 16
	// decrements flip it just negative.
	for i := 0; i < 16; i++ {
		m.Train(1, false)
	}
	if m.Predict(1) {
		t.Fatal("saturation bound violated: counter should have flipped")
	}
}

func TestHawkeyeCountersDefaultFriendly(t *testing.T) {
	m := NewHawkeyeCounters()
	if !m.Predict(42) {
		t.Fatal("untrained counter should default to friendly (counter 0)")
	}
}

func TestISVMIntegerWeights(t *testing.T) {
	// Property: after arbitrary training, every materialized weight is the
	// exact difference of positive and negative updates that touched it —
	// i.e. integral by construction (Fact 1 of §4.3). We verify via
	// deterministic replay.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewHingeSVM(7)
		type key struct {
			pc uint64
			f  Feature
		}
		shadow := map[key]int{}
		for i := 0; i < 300; i++ {
			pc := uint64(r.Intn(4))
			h := unordered(uint64(r.Intn(6)), uint64(r.Intn(6)))
			y := r.Intn(2) == 0
			sum := m.Sum(pc, h)
			yi := 1
			if !y {
				yi = -1
			}
			if yi*sum < m.StepInverse {
				for _, f := range h {
					shadow[key{pc, f}] += yi
				}
			}
			m.Train(pc, h, y)
		}
		for k, v := range shadow {
			w := m.weights[k.pc]
			if w == nil {
				if v != 0 {
					return false
				}
				continue
			}
			if w[k.f] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNumWeightsCounts(t *testing.T) {
	m := NewHingeSVM(5)
	m.Train(1, unordered(10, 11), true)
	m.Train(2, unordered(10), false)
	if got := m.NumWeights(); got != 3 {
		t.Fatalf("NumWeights = %d, want 3", got)
	}
	// The same PC at two positions is two weights.
	o := NewHingeSVM(5)
	o.Train(1, ordered(10, 10), true)
	if got := o.NumWeights(); got != 2 {
		t.Fatalf("ordered NumWeights = %d, want 2", got)
	}
}
