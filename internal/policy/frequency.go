package policy

import (
	"math"

	"glider/internal/cache"
	"glider/internal/trace"
)

// Frequency-based policies from the paper's heuristic lineage (§2.1:
// "other heuristics are based on frequency counters"): LFU and LRFU.

// LFU evicts the least-frequently-used line, with counters reset on fill.
type LFU struct {
	count [][]uint32
	lru   *cache.LRU // tie-break by recency
}

// NewLFU builds an LFU policy.
func NewLFU(sets, ways int) *LFU {
	p := &LFU{count: rows[uint32](sets, ways), lru: cache.NewLRU(sets, ways)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *LFU) Name() string { return "lfu" }

// Reset implements cache.Resetter.
func (p *LFU) Reset() {
	fillRows(p.count, 0)
	p.lru.Reset()
}

// Victim implements cache.Policy: lowest count, ties broken by LRU.
func (p *LFU) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim := 0
	best := uint32(math.MaxUint32)
	oldest := ^uint64(0)
	for w := range lines {
		c := p.count[set][w]
		s := p.lru.Stamp(set, w)
		if c < best || (c == best && s < oldest) {
			best = c
			oldest = s
			victim = w
		}
	}
	return victim
}

// Update implements cache.Policy.
func (p *LFU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	p.lru.Update(set, way, pc, block, core, hit, kind)
	if way < 0 {
		return
	}
	if hit {
		if p.count[set][way] < math.MaxUint32 {
			p.count[set][way]++
		}
	} else {
		p.count[set][way] = 0
	}
}

// LRFU (Lee et al.) spans the spectrum between LRU and LFU with an
// exponentially-decayed reference value: CRF(t) = Σ (1/2)^(λ·(t−t_ref)).
// λ → 0 degenerates to LFU, λ = 1 to LRU.
type LRFU struct {
	// lambda is the decay exponent per access.
	lambda float64
	// decay[age] is math.Pow(0.5, lambda*float64(age)), the factor value
	// would otherwise compute on every call, for every age below filled.
	// decayAt fills the table on demand, up to the oldest age asked for:
	// a short run never pays for the ages it does not reach. The table is
	// a function of λ alone, so Reset keeps it.
	decay  []float64
	filled uint64
	crf    [][]float64
	stamp  [][]uint64
	clock  uint64
}

// lrfuDecayAges bounds the decay table. The clock counts LLC events, so the
// table covers every age in a run of up to 65,536 of them (a 60k-access
// cell has fewer); older lines fall back to math.Pow.
const lrfuDecayAges = 1 << 16

// NewLRFU builds an LRFU policy with the given λ (0.001 is a common
// middle-ground setting).
func NewLRFU(sets, ways int, lambda float64) *LRFU {
	p := &LRFU{lambda: lambda, stamp: rows[uint64](sets, ways)}
	// crf is carved by hand, not by rows, because its rows share one
	// allocation with the decay table.
	p.crf = make([][]float64, sets)
	cb := make([]float64, lrfuDecayAges+sets*ways)
	p.decay, cb = cb[:lrfuDecayAges], cb[lrfuDecayAges:]
	for i := range p.crf {
		p.crf[i], cb = cb[:ways], cb[ways:]
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *LRFU) Name() string { return "lrfu" }

// Reset implements cache.Resetter. The decay table survives.
func (p *LRFU) Reset() {
	fillRows(p.crf, 0)
	fillRows(p.stamp, 0)
	p.clock = 0
}

// decayAt returns (1/2)^(λ·age), from the table when age is in it.
func (p *LRFU) decayAt(age uint64) float64 {
	if age < p.filled {
		return p.decay[age]
	}
	return p.fillDecay(age)
}

// fillDecay is decayAt past the filled part of the table: it fills the
// table up to age, or calls math.Pow for an age beyond the table.
func (p *LRFU) fillDecay(age uint64) float64 {
	if age >= uint64(len(p.decay)) {
		return math.Pow(0.5, p.lambda*float64(age))
	}
	for ; p.filled <= age; p.filled++ {
		p.decay[p.filled] = math.Pow(0.5, p.lambda*float64(p.filled))
	}
	return p.decay[age]
}

// value returns the decayed CRF of a line at the current clock.
func (p *LRFU) value(set, way int) float64 {
	return p.crf[set][way] * p.decayAt(p.clock-p.stamp[set][way])
}

// Victim implements cache.Policy: evict the line with the smallest decayed
// reference value.
func (p *LRFU) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim := 0
	best := math.Inf(1)
	for w := range lines {
		if v := p.value(set, w); v < best {
			best = v
			victim = w
		}
	}
	return victim
}

// Update implements cache.Policy.
func (p *LRFU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	p.clock++
	if way < 0 {
		return
	}
	if hit {
		p.crf[set][way] = p.value(set, way) + 1
	} else {
		p.crf[set][way] = 1
	}
	p.stamp[set][way] = p.clock
}
