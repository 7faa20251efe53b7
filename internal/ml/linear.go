package ml

// Offline linear baselines from the paper's evaluation (§5.2):
//
//   - HingeSVM: an integer SVM trained with hinge loss from Belady labels
//     over binary history features. Its two uses differ only in their
//     features. The paper's offline ISVM, the offline counterpart of
//     Glider's hardware predictor, puts each of the last k *unique* PCs at
//     Pos 0, so its feature is an unordered set. The Perceptron baseline
//     puts each of the last h PCs at its history position, so the model
//     must learn every ordering separately (§5.2, footnote 8).
//   - HawkeyeCounters: Hawkeye's per-PC saturating-counter predictor, the
//     statistical baseline both are compared against.

// Feature is one binary history feature: a PC at a history position. Every
// feature of an unordered history has Pos 0.
type Feature struct {
	Pos int
	PC  uint64
}

// HingeSVM is an integer SVM over per-PC weight vectors indexed by binary
// history features. Fact 1 of §4.3: with binary features, gradient descent
// with learning rate 1/n on margin 1 equals learning rate 1 on margin n, so
// weights stay integral; StepInverse is that n. Integer sums do not depend
// on the order of their terms, so neither does any margin.
type HingeSVM struct {
	// StepInverse is n in Fact 1 (the paper's step size 0.001 → n = 1000).
	StepInverse int
	// weights[pc][feature] — materialized lazily per observed pair.
	weights map[uint64]map[Feature]int
}

// NewHingeSVM builds the model. stepInverse 1000 (or 0) reproduces
// Table 5.
func NewHingeSVM(stepInverse int) *HingeSVM {
	if stepInverse <= 0 {
		stepInverse = 1000
	}
	return &HingeSVM{StepInverse: stepInverse, weights: make(map[uint64]map[Feature]int)}
}

// Sum returns the margin for (pc, features).
func (m *HingeSVM) Sum(pc uint64, features []Feature) int {
	w := m.weights[pc]
	if w == nil {
		return 0
	}
	s := 0
	for _, f := range features {
		s += w[f]
	}
	return s
}

// Predict classifies (pc, features) as cache-friendly.
func (m *HingeSVM) Predict(pc uint64, features []Feature) bool {
	return m.Sum(pc, features) >= 0
}

// Train applies one hinge-loss subgradient step on the sample.
func (m *HingeSVM) Train(pc uint64, features []Feature, friendly bool) {
	y := 1
	if !friendly {
		y = -1
	}
	// Hinge: update only while y·sum < margin n (Equation 5).
	if y*m.Sum(pc, features) >= m.StepInverse {
		return
	}
	w := m.weights[pc]
	if w == nil {
		w = make(map[Feature]int)
		m.weights[pc] = w
	}
	for _, f := range features {
		w[f] += y
	}
}

// NumWeights returns the materialized weight count.
func (m *HingeSVM) NumWeights() int {
	n := 0
	for _, w := range m.weights {
		n += len(w)
	}
	return n
}

// HawkeyeCounters is the offline version of Hawkeye's predictor: one
// saturating counter per PC, trained directly from oracle labels.
type HawkeyeCounters struct {
	// Max bounds the counters at ±Max.
	Max      int
	counters map[uint64]int
}

// NewHawkeyeCounters builds the baseline with 5-bit-equivalent counters.
func NewHawkeyeCounters() *HawkeyeCounters {
	return &HawkeyeCounters{Max: 15, counters: make(map[uint64]int)}
}

// Predict classifies a PC as cache-friendly.
func (m *HawkeyeCounters) Predict(pc uint64) bool { return m.counters[pc] >= 0 }

// Train adjusts the PC's counter toward the oracle label.
func (m *HawkeyeCounters) Train(pc uint64, friendly bool) {
	c := m.counters[pc]
	if friendly {
		if c < m.Max {
			m.counters[pc] = c + 1
		}
	} else {
		if c > -m.Max-1 {
			m.counters[pc] = c - 1
		}
	}
}
