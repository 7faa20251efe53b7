// Package workload synthesizes the 33 memory-intensive benchmark traces the
// paper evaluates on (SPEC CPU2006, SPEC CPU2017, and GAP), plus the
// multi-core mixes of §5.1.
//
// Real SimPoint traces are proprietary, so each benchmark is replaced by a
// deterministic generator composed from the access-pattern classes that
// drive replacement-policy behaviour: streaming sweeps, hot loops, thrashing
// scans, dependent pointer chases, graph gathers, grid stencils, and —
// crucially for this paper — calling-context-dependent reuse, where the
// caching behaviour of a shared callee PC is determined by which caller PC
// appears earlier in the access history. See DESIGN.md §1 for the
// substitution argument.
//
// Everything else arrives as a spec string (spec.go), which Resolve accepts
// wherever a benchmark name is accepted: real ChampSim/CRC2 trace files
// (champsim), Zipf web/CDN object streams (zipf), and deterministic
// two-tenant interleavings of any two workloads (mix). A spec's Name is its
// canonical rendering, so every spelling of one workload shares one Store
// entry and one gliderd result-cache line.
//
// Generation is deterministic in (n, seed) for every workload, which is what
// lets Store treat (Name, n, seed) as the full identity of a trace. For
// champsim specs the file's contents are part of that identity in spirit
// but not in the key: the store caches whatever the file held when first
// read, and a fleet must share a filesystem view for cross-node
// determinism.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"glider/internal/trace"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite string

// Benchmark suites used in the paper's evaluation.
const (
	SPEC2006 Suite = "SPEC06"
	SPEC2017 Suite = "SPEC17"
	GAP      Suite = "GAP"
	// Ingest marks workloads named by a spec string (ChampSim trace files,
	// Zipf object streams, multi-tenant mixes; see spec.go) rather than by
	// the synthetic benchmark registry.
	Ingest Suite = "INGEST"
)

// component pairs an emitter constructor with a scheduling weight.
type component struct {
	weight int
	build  func(pcBase, addrBase uint64) emitter
}

// Spec describes one workload: either a synthetic benchmark composed from
// access-pattern components, or a custom workload (see Custom) whose trace
// comes from an arbitrary — possibly fallible — generator function.
type Spec struct {
	// Name is the benchmark name as it appears in the paper's figures, or
	// the canonical spec string for custom workloads. Name is the cache
	// identity in Store: two Specs with equal names must generate equal
	// traces for every (n, seed).
	Name string
	// Suite is the benchmark suite.
	Suite Suite
	// components are the access-pattern classes mixed to form the trace.
	components []component
	// phased, when true, alternates component weights between two phase
	// profiles every phaseLen accesses, modeling time-varying behaviour.
	phased   bool
	phaseLen int
	// generate, when non-nil, replaces the component mixer. It must be
	// deterministic in (n, seed) but may fail (e.g. a trace file source).
	generate func(n int, seed int64) (*trace.Trace, error)
}

// Custom builds a Spec around an arbitrary generator function. The generator
// must be deterministic in (n, seed); it may fail, so callers of custom
// specs should prefer GenerateE/SharedE over Generate/Shared.
func Custom(name string, suite Suite, gen func(n int, seed int64) (*trace.Trace, error)) Spec {
	return Spec{Name: name, Suite: suite, generate: gen}
}

// Generate produces a deterministic trace of n accesses for the spec using
// the given seed. The same (spec, n, seed) always yields the same trace.
// It panics where GenerateE fails (a negative n, or a custom spec's source
// failing); such callers should use GenerateE.
func (s Spec) Generate(n int, seed int64) *trace.Trace {
	t, err := s.GenerateE(n, seed)
	if err != nil {
		panic(fmt.Sprintf("workload: generating %q: %v", s.Name, err))
	}
	return t
}

// GenerateE is Generate with error reporting: registry specs fail only on a
// negative n, but custom specs (ChampSim files, nested mixes) can fail on
// their sources too.
func (s Spec) GenerateE(n int, seed int64) (*trace.Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative trace length %d", n)
	}
	if s.generate != nil {
		return s.generate(n, seed)
	}
	r := rand.New(rand.NewSource(seed ^ int64(hashName(s.Name))))
	// Give each component its own PC and address regions so patterns never
	// collide.
	emitters := make([]emitter, len(s.components))
	weights := make([]int, len(s.components))
	total := 0
	for i, c := range s.components {
		pcBase := uint64(0x400000 + i*0x1000)
		addrBase := uint64(i+1) << 28 >> trace.BlockShift // block-index base
		emitters[i] = c.build(pcBase, addrBase)
		weights[i] = c.weight
		total += c.weight
	}
	t := trace.New(s.Name, n)
	if total == 0 || len(emitters) == 0 {
		return t, nil
	}
	phase := 0
	for i := 0; i < n; i++ {
		if s.phased && s.phaseLen > 0 && i%s.phaseLen == 0 && i > 0 {
			phase = 1 - phase
		}
		idx := pickWeighted(r, weights, total, phase, len(emitters))
		t.Append(emitters[idx].next(r))
	}
	return t, nil
}

// pickWeighted selects a component index by weight. In phase 1 the weights
// are reversed, shifting the mixture toward the later components.
func pickWeighted(r *rand.Rand, weights []int, total, phase, n int) int {
	x := r.Intn(total)
	if phase == 0 {
		for i, w := range weights {
			if x < w {
				return i
			}
			x -= w
		}
		return n - 1
	}
	for i := n - 1; i >= 0; i-- {
		if x < weights[i] {
			return i
		}
		x -= weights[i]
	}
	return 0
}

func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Component weight/shape shorthands used by the registry below. Sizes are in
// cache blocks; the single-core LLC is 32768 blocks (2 MB / 64 B).
func stream(weight int, blocks, pcs uint64) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newStreamEmitter(pc, addr, blocks, 1, pcs)
	}}
}

func hot(weight int, blocks, pcs uint64) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newHotLoopEmitter(pc, addr, blocks, pcs)
	}}
}

func thrash(weight int, blocks, pcs uint64) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newThrashEmitter(pc, addr, blocks, pcs)
	}}
}

func context(weight, callers, friendlyN, targets, noiseLen int, hotBlocks, coldBlocks uint64) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newContextCallEmitter(contextCallConfig{
			pcBase: pc, addrBase: addr,
			callers: callers, friendlyN: friendlyN, targets: targets,
			noiseLen: noiseLen, hotBlocks: hotBlocks, coldBlocks: coldBlocks,
		})
	}}
}

func gather(weight int, hub, tail uint64, hubProb float64, frontierN, burst int) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newGatherEmitter(pc, addr, hub, tail, hubProb, frontierN, burst)
	}}
}

func stencil(weight int, plane, planes uint64, writeEvery int) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newStencilEmitter(pc, addr, plane, planes, writeEvery)
	}}
}

func chase(weight int, heap uint64, pool int, revisit float64) component {
	return component{weight, func(pc, addr uint64) emitter {
		return newChaseEmitter(pc, addr, heap, pool, revisit)
	}}
}

// registry lists every benchmark referenced anywhere in the paper's
// evaluation (the union of Figures 10, 11, and Table 2).
//
// Footprint guidance (in 64 B blocks, single-core): L2 holds 4096 blocks and
// the LLC 32768, so "hot" working sets that should be LLC-friendly but not
// L2-resident use 5k–16k blocks; thrashing scans use 36k–52k (just above
// LLC capacity, where MIN retains a large PC-identifiable subset and LRU
// retains nothing); pure streams use ≥128k so they never wrap within a run.
var registry = []Spec{
	// ---- SPEC CPU2017 ----
	{Name: "603.bwaves", Suite: SPEC2017, components: []component{
		stream(6, 1<<17, 60), thrash(2, 40000, 24), hot(2, 9000, 20)}},
	{Name: "605.mcf", Suite: SPEC2017, components: []component{
		chase(4, 1<<20, 6000, 0.45), context(4, 4, 2, 4, 3, 700, 1<<17), hot(2, 8000, 40)}},
	{Name: "619.lbm", Suite: SPEC2017, components: []component{
		stream(8, 1<<18, 30), stencil(2, 48000, 2, 7)}},
	{Name: "620.omnetpp", Suite: SPEC2017, components: []component{
		context(6, 3, 1, 4, 3, 800, 1<<17), chase(2, 1<<19, 5000, 0.4), hot(2, 7000, 60)}},
	{Name: "621.wrf", Suite: SPEC2017, components: []component{
		stencil(4, 9000, 3, 11), thrash(3, 38000, 20), hot(3, 10000, 50)}},
	{Name: "627.cam4", Suite: SPEC2017, components: []component{
		stencil(3, 12000, 3, 13), thrash(4, 42000, 24), hot(3, 9000, 30)}},
	{Name: "628.pop2", Suite: SPEC2017, components: []component{
		stencil(3, 10000, 3, 10), stream(3, 1<<17, 40), context(4, 3, 1, 3, 2, 700, 1<<16)}},
	{Name: "649.fotonik3d", Suite: SPEC2017, components: []component{
		stream(6, 1<<18, 40), thrash(3, 44000, 16), hot(1, 8000, 12)}},
	{Name: "654.roms", Suite: SPEC2017, components: []component{
		stencil(4, 11000, 3, 9), thrash(3, 40000, 20), hot(3, 8000, 24)}},
	{Name: "657.xz", Suite: SPEC2017, components: []component{
		chase(4, 1<<19, 6000, 0.5), hot(3, 9000, 40), thrash(3, 38000, 20)},
		phased: true, phaseLen: 40000},

	// ---- SPEC CPU2006 ----
	{Name: "astar", Suite: SPEC2006, components: []component{
		chase(4, 1<<18, 7000, 0.55), hot(4, 10000, 12), context(2, 3, 1, 3, 2, 600, 1<<16)}},
	{Name: "bwaves", Suite: SPEC2006, components: []component{
		stream(6, 1<<17, 60), thrash(2, 42000, 20), hot(2, 8000, 16)}},
	{Name: "bzip2", Suite: SPEC2006, components: []component{
		thrash(4, 42000, 32), hot(4, 11000, 40), stream(2, 1<<17, 30)},
		phased: true, phaseLen: 50000},
	{Name: "cactusADM", Suite: SPEC2006, components: []component{
		stencil(5, 12000, 3, 8), thrash(3, 40000, 24), hot(2, 7000, 20)}},
	{Name: "calculix", Suite: SPEC2006, components: []component{
		stencil(3, 8000, 3, 10), hot(4, 9000, 60), thrash(3, 37000, 24)}},
	{Name: "gcc", Suite: SPEC2006, components: []component{
		context(4, 5, 2, 4, 3, 700, 1<<17), chase(3, 1<<18, 5500, 0.45), hot(3, 8000, 80)},
		phased: true, phaseLen: 30000},
	{Name: "GemsFDTD", Suite: SPEC2006, components: []component{
		stream(5, 1<<18, 40), thrash(4, 46000, 20), hot(1, 7000, 10)}},
	{Name: "lbm", Suite: SPEC2006, components: []component{
		stream(8, 1<<18, 30), stencil(2, 48000, 2, 7)}},
	{Name: "leslie3d", Suite: SPEC2006, components: []component{
		stencil(4, 13000, 3, 9), thrash(3, 39000, 20), hot(3, 9000, 30)}},
	{Name: "libquantum", Suite: SPEC2006, components: []component{
		stream(8, 1<<18, 20), hot(2, 9000, 10)}},
	{Name: "mcf", Suite: SPEC2006, components: []component{
		chase(4, 1<<20, 6000, 0.45), context(4, 4, 2, 4, 3, 700, 1<<17), hot(2, 8000, 40)}},
	{Name: "milc", Suite: SPEC2006, components: []component{
		stream(5, 1<<18, 40), thrash(4, 44000, 24), hot(1, 7000, 12)}},
	{Name: "omnetpp", Suite: SPEC2006, components: []component{
		context(6, 3, 1, 4, 3, 800, 1<<17), chase(2, 1<<19, 5000, 0.4), hot(2, 7000, 60)}},
	{Name: "soplex", Suite: SPEC2006, components: []component{
		thrash(4, 39000, 48), context(4, 4, 2, 3, 3, 700, 1<<16), stream(2, 1<<17, 40)}},
	{Name: "sphinx3", Suite: SPEC2006, components: []component{
		gather(4, 9000, 1<<17, 0.55, 2, 3), hot(2, 8000, 60), context(4, 3, 1, 3, 2, 700, 1<<16)}},
	{Name: "tonto", Suite: SPEC2006, components: []component{
		hot(4, 10000, 80), stencil(3, 7000, 3, 12), chase(3, 1<<17, 5000, 0.5)}},
	{Name: "wrf", Suite: SPEC2006, components: []component{
		stencil(4, 9000, 3, 11), thrash(3, 38000, 20), hot(3, 10000, 50)}},
	{Name: "xalancbmk", Suite: SPEC2006, components: []component{
		chase(4, 1<<19, 6500, 0.5), context(4, 4, 1, 4, 3, 750, 1<<17), hot(2, 8000, 70)}},
	{Name: "zeusmp", Suite: SPEC2006, components: []component{
		stencil(4, 14000, 3, 9), stream(2, 1<<17, 30), thrash(4, 37000, 24)}},

	// ---- GAP ----
	{Name: "bc", Suite: GAP, components: []component{
		gather(5, 9000, 1<<18, 0.5, 3, 4), thrash(2, 38000, 16), context(3, 3, 1, 3, 2, 650, 1<<17)}},
	{Name: "bfs", Suite: GAP, components: []component{
		gather(6, 8000, 1<<18, 0.45, 4, 3), thrash(3, 40000, 16), hot(1, 7000, 8)}},
	{Name: "cc", Suite: GAP, components: []component{
		gather(5, 8000, 1<<18, 0.5, 3, 3), thrash(3, 38000, 16), hot(2, 8000, 12)}},
	{Name: "tc", Suite: GAP, components: []component{
		gather(6, 10000, 1<<18, 0.6, 2, 5), hot(2, 9000, 16), thrash(2, 36000, 12)}},
	{Name: "pr", Suite: GAP, components: []component{
		gather(5, 9500, 1<<18, 0.55, 3, 4), thrash(2, 39000, 16), context(3, 3, 1, 3, 2, 600, 1<<17)}},
	{Name: "sssp", Suite: GAP, components: []component{
		gather(5, 8000, 1<<18, 0.5, 3, 4), chase(2, 1<<18, 5500, 0.45), thrash(3, 37000, 16)}},
}

// ErrUnknown is returned by Lookup for a name not in the registry.
type ErrUnknown struct{ Name string }

func (e ErrUnknown) Error() string { return fmt.Sprintf("workload: unknown benchmark %q", e.Name) }

// Lookup returns the spec with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, ErrUnknown{name}
}

// All returns every registered benchmark spec, in registry order (the order
// used by the paper's per-benchmark figures).
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Names returns the names of all registered benchmarks.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// SingleCoreSet returns the 33 benchmarks of the paper's single-core
// evaluation (Figure 11/12 x-axis, in figure order).
func SingleCoreSet() []Spec {
	names := []string{
		"603.bwaves", "605.mcf", "619.lbm", "620.omnetpp", "621.wrf",
		"627.cam4", "649.fotonik3d", "654.roms",
		"astar", "bwaves", "bzip2", "cactusADM", "calculix", "gcc",
		"GemsFDTD", "lbm", "leslie3d", "libquantum", "mcf", "milc",
		"omnetpp", "soplex", "sphinx3", "tonto", "wrf", "xalancbmk", "zeusmp",
		"bc", "bfs", "cc", "tc", "pr", "sssp",
	}
	return mustLookupAll(names)
}

// OnlineAccuracySet returns the 23 benchmarks of Figure 10.
func OnlineAccuracySet() []Spec {
	names := []string{
		"603.bwaves", "605.mcf", "620.omnetpp", "621.wrf", "628.pop2",
		"654.roms", "657.xz",
		"bc", "bfs", "bzip2", "cactusADM", "cc", "GemsFDTD", "lbm",
		"leslie3d", "mcf", "omnetpp", "pr", "soplex", "sphinx3", "sssp",
		"tc", "wrf",
	}
	return mustLookupAll(names)
}

// OfflineSet returns the 6 benchmarks used for the paper's offline analysis
// (Table 2: mcf, omnetpp, soplex, sphinx3, astar, lbm).
func OfflineSet() []Spec {
	return mustLookupAll([]string{"mcf", "omnetpp", "soplex", "sphinx3", "astar", "lbm"})
}

func mustLookupAll(names []string) []Spec {
	out := make([]Spec, len(names))
	for i, n := range names {
		s, err := Lookup(n)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// Mix is one multi-core workload: the benchmarks that share the LLC.
type Mix struct {
	// ID numbers the mix within the generated set.
	ID int
	// Members are the constituent benchmark specs, one per core.
	Members []Spec
}

// Mixes reproduces the paper's multi-core methodology: n mixes of `cores`
// benchmarks each, chosen deterministically (seeded) from all possible
// combinations of the single-core set.
func Mixes(n, cores int, seed int64) []Mix {
	specs := SingleCoreSet()
	r := rand.New(rand.NewSource(seed))
	mixes := make([]Mix, n)
	for i := range mixes {
		idx := r.Perm(len(specs))[:cores]
		sort.Ints(idx)
		members := make([]Spec, cores)
		for j, k := range idx {
			members[j] = specs[k]
		}
		mixes[i] = Mix{ID: i, Members: members}
	}
	return mixes
}
