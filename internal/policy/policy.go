// Package policy implements the cache replacement policies evaluated in the
// paper: the LRU baseline, the RRIP family, and the 2nd Cache Replacement
// Championship finishers SHiP++, MPPPB, and Hawkeye, plus the paper's
// contribution, Glider (whose ISVM predictor lives in the glider package).
//
// Every policy implements cache.Policy: victim selection plus an update
// callback on each access. Every policy is also a cache.Resetter, under one
// rule: its constructor allocates the policy's tables and then calls its
// Reset, and Reset alone gives them their initial values. A fresh policy
// and a reset one are therefore initialized by the same code, and a reused
// LLC decides exactly as a fresh one would. Reset allocates nothing and
// keeps what is configuration rather than state: the geometry, seeds,
// ablation switches and attached observability.
package policy

import (
	"sort"
	"sync"

	"glider/internal/cache"
	"glider/internal/trace"
)

// Factory constructs a policy for a cache with the given geometry. Policies
// that need per-set or per-line state size themselves from it. Every
// registered policy can be reset, so an LLC running it can be reused.
type Factory func(sets, ways int) cache.Resetter

// registry maps policy names (as used in figures and on the command line)
// to factories. Importers read it through Names, Known and New, so none can
// change it.
var registry = map[string]Factory{
	"lru":        func(s, w int) cache.Resetter { return NewLRU(s, w) },
	"mru":        func(s, w int) cache.Resetter { return NewMRU(s, w) },
	"random":     func(s, w int) cache.Resetter { return NewRandom(s, w, 1) },
	"srrip":      func(s, w int) cache.Resetter { return NewSRRIP(s, w) },
	"brrip":      func(s, w int) cache.Resetter { return NewBRRIP(s, w, 1) },
	"drrip":      func(s, w int) cache.Resetter { return NewDRRIP(s, w, 1) },
	"ship++":     func(s, w int) cache.Resetter { return NewSHiPPP(s, w) },
	"mpppb":      func(s, w int) cache.Resetter { return NewMPPPB(s, w) },
	"perceptron": func(s, w int) cache.Resetter { return NewPerceptron(s, w) },
	"hawkeye":    func(s, w int) cache.Resetter { return NewHawkeye(s, w) },
	"glider":     func(s, w int) cache.Resetter { return NewGlider(s, w) },
	"lip":        func(s, w int) cache.Resetter { return NewLIP(s, w) },
	"dip":        func(s, w int) cache.Resetter { return NewDIP(s, w, 1) },
	"sdbp":       func(s, w int) cache.Resetter { return NewSDBP(s, w) },
	"lfu":        func(s, w int) cache.Resetter { return NewLFU(s, w) },
	"lrfu":       func(s, w int) cache.Resetter { return NewLRFU(s, w, 0.001) },
	"eaf":        func(s, w int) cache.Resetter { return NewEAF(s, w, 1) },
	"frd":        func(s, w int) cache.Resetter { return NewFRD(s, w) },
	"msa":        func(s, w int) cache.Resetter { return NewMSA(s, w) },
}

// Names returns the registered policy names, sorted. Test suites and
// catalogs iterate this instead of hard-coding lists so new policies are
// covered automatically.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// friendlyPredictor mirrors cpu.FriendlyPredictor (declared here to avoid
// an import cycle): policies that can classify an access as cache-friendly
// or cache-averse by PC.
type friendlyPredictor interface {
	PredictFriendly(pc uint64, core uint8) bool
}

// PredictorCapable reports whether the named policy exposes per-PC
// friendly/averse predictions (and hence supports gliderd's /v1/predict).
// Probed structurally on throwaway instances, so it cannot drift from the
// implementations.
func PredictorCapable(name string) bool { return predictorCapable()[name] }

// predictorCapable probes every registered policy once: request validation
// asks on every predict job, and building a learned policy allocates its
// sampler slabs.
var predictorCapable = sync.OnceValue(func() map[string]bool {
	capable := make(map[string]bool, len(registry))
	for name, f := range registry {
		_, capable[name] = f(16, 16).(friendlyPredictor)
	}
	return capable
})

// PredictorNames returns the sorted names of predictor-capable policies.
func PredictorNames() []string {
	var names []string
	for _, name := range Names() {
		if PredictorCapable(name) {
			names = append(names, name)
		}
	}
	return names
}

// Known reports whether name is a registered policy.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// New looks up a registered policy by name.
func New(name string, sets, ways int) (cache.Policy, bool) {
	f, ok := registry[name]
	if !ok {
		return nil, false
	}
	return f(sets, ways), true
}

// hashPC mixes a PC into a table index in [0, size). size must be a power
// of two.
func hashPC(pc uint64, size int) int {
	pc ^= pc >> 33
	pc *= 0xff51afd7ed558ccd
	pc ^= pc >> 33
	pc *= 0xc4ceb9fe1a85ec53
	pc ^= pc >> 33
	return int(pc & uint64(size-1))
}

// rows carves one sets×ways slab into per-set rows, so a per-line table is
// one allocation.
func rows[T any](sets, ways int) [][]T {
	slab := make([]T, sets*ways)
	r := make([][]T, sets)
	for i := range r {
		r[i] = slab[i*ways : (i+1)*ways]
	}
	return r
}

// fillRows sets every entry of r to v.
func fillRows[T any](r [][]T, v T) {
	for _, row := range r {
		for i := range row {
			row[i] = v
		}
	}
}

// xorshift64 is a tiny deterministic PRNG for the probabilistic policies
// (BRRIP's long-interval insertions, Random replacement). It keeps its
// seed, so reset restarts the sequence.
type xorshift64 struct{ state, seed uint64 }

func newXorshift(seed uint64) xorshift64 {
	x := xorshift64{seed: seed}
	x.reset()
	return x
}

// reset restarts the sequence from the seed.
func (x *xorshift64) reset() {
	x.state = x.seed
	if x.state == 0 {
		x.state = 0x9e3779b97f4a7c15
	}
}

func (x *xorshift64) next() uint64 {
	v := x.state
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	x.state = v
	return v
}

// intn returns a pseudo-random value in [0, n).
func (x *xorshift64) intn(n int) int { return int(x.next() % uint64(n)) }

// --- LRU -------------------------------------------------------------------

// LRU is the least-recently-used baseline policy all of the paper's
// improvements are normalized against.
type LRU struct {
	stamp [][]uint64
	clock uint64
}

// NewLRU builds an LRU policy for the given geometry.
func NewLRU(sets, ways int) *LRU {
	l := &LRU{stamp: rows[uint64](sets, ways)}
	l.Reset()
	return l
}

// Name implements cache.Policy.
func (l *LRU) Name() string { return "lru" }

// Reset implements cache.Resetter.
func (l *LRU) Reset() {
	fillRows(l.stamp, 0)
	l.clock = 0
}

// Victim evicts the least recently used line.
func (l *LRU) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim, oldest := 0, ^uint64(0)
	for w := range lines {
		if l.stamp[set][w] < oldest {
			oldest = l.stamp[set][w]
			victim = w
		}
	}
	return victim
}

// Update stamps the touched way with the current time.
func (l *LRU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	l.clock++
	if way >= 0 {
		l.stamp[set][way] = l.clock
	}
}

// --- MRU -------------------------------------------------------------------

// MRU evicts the most recently used line; it is the classic anti-thrashing
// heuristic and a useful stress baseline in tests.
type MRU struct {
	lru *LRU
}

// NewMRU builds an MRU policy.
func NewMRU(sets, ways int) *MRU {
	m := &MRU{lru: NewLRU(sets, ways)}
	m.Reset()
	return m
}

// Name implements cache.Policy.
func (m *MRU) Name() string { return "mru" }

// Reset implements cache.Resetter.
func (m *MRU) Reset() { m.lru.Reset() }

// Victim evicts the most recently used line.
func (m *MRU) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim, newest := 0, uint64(0)
	for w := range lines {
		if m.lru.stamp[set][w] >= newest {
			newest = m.lru.stamp[set][w]
			victim = w
		}
	}
	return victim
}

// Update stamps the touched way.
func (m *MRU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	m.lru.Update(set, way, pc, block, core, hit, kind)
}

// --- Random ----------------------------------------------------------------

// Random evicts a uniformly random line.
type Random struct {
	ways int
	rng  xorshift64
}

// NewRandom builds a random-replacement policy with a deterministic seed.
func NewRandom(sets, ways int, seed uint64) *Random {
	r := &Random{ways: ways, rng: newXorshift(seed)}
	r.Reset()
	return r
}

// Name implements cache.Policy.
func (r *Random) Name() string { return "random" }

// Reset implements cache.Resetter: the victim sequence restarts from the
// seed.
func (r *Random) Reset() { r.rng.reset() }

// Victim picks a random way.
func (r *Random) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return r.rng.intn(r.ways)
}

// Update is a no-op for random replacement.
func (r *Random) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
}
