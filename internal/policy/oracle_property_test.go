package policy

// oracle_property_test.go is the Belady-differential wall for the
// reuse-distance policy family: with a perfect predictor injected through
// the ReusePredictor seam, FRD and MSA must reproduce Belady MIN
// access-for-access on crafted traces; with their learned models, their miss
// counts must land in the [MIN, LRU] sandwich on patterns with known
// optimal answers.
//
// Why perfect prediction implies MIN (the argument the tests enforce):
// both policies stamp each touched line with its predicted absolute
// next-use time and evict the line whose (first) predicted reuse is
// furthest, bypassing when the incoming access is itself furthest — with
// strict comparison, so ties favor bypass/first-scanned exactly like
// opt.SimulateMIN's `>` loop. Under the oracle the stamps are exact
// next-use indices, which never pass unreused (the reuse would have hit the
// resident line and restamped it), so the expired-line heuristic never
// fires. The only divergence from MIN's state is never-reused lines: MIN
// declines to insert them even into empty ways, while cache.Cache fills
// invalid ways unconditionally. That is harmless — a dead resident's stamp
// saturates at the maximum, so any live incoming evicts it and a dead
// incoming ties into a bypass — hence live-block occupancy, and therefore
// every per-access hit/miss, is identical.

import (
	"fmt"
	"sort"
	"testing"

	"glider/internal/cache"
	"glider/internal/opt"
	"glider/internal/trace"
)

// oracleReuse is a perfect ReusePredictor: it knows the whole trace and
// answers with exact forward distances. The driving test advances now to
// the current access index before each cache access.
type oracleReuse struct {
	uses map[uint64][]int // block → sorted access indices
	now  int
}

func newOracleReuse(t *trace.Trace) *oracleReuse {
	uses := make(map[uint64][]int)
	for i, a := range t.Accesses {
		uses[a.Block()] = append(uses[a.Block()], i)
	}
	return &oracleReuse{uses: uses}
}

func (o *oracleReuse) PredictReuse(pc, block uint64, dst []uint64) {
	idxs := o.uses[block]
	i := sort.SearchInts(idxs, o.now+1)
	for j := range dst {
		if i+j < len(idxs) {
			dst[j] = uint64(idxs[i+j] - o.now)
		} else {
			dst[j] = ReuseNever
		}
	}
}

// mkLoadTrace builds a load-only trace over block addresses, deriving each
// access's PC from the block's high bits so crafted patterns can give
// distinct components distinct PCs.
func mkLoadTrace(name string, blocks []uint64, pcs []uint64) *trace.Trace {
	t := &trace.Trace{Name: name}
	for i, b := range blocks {
		pc := uint64(0x400000)
		if pcs != nil {
			pc = pcs[i]
		}
		t.Accesses = append(t.Accesses, trace.Access{PC: pc, Addr: b << trace.BlockShift, Kind: trace.Load})
	}
	return t
}

// oraclePatterns are the crafted traces with known Belady structure. Sized
// for a 16-set × 4-way cache (64-block capacity).
func oraclePatterns() map[string]*trace.Trace {
	out := map[string]*trace.Trace{}

	// cyclic: a loop of 2× capacity. LRU misses everything; MIN retains
	// roughly half the loop.
	var cyc []uint64
	for it := 0; it < 40; it++ {
		for b := uint64(0); b < 128; b++ {
			cyc = append(cyc, b)
		}
	}
	out["cyclic"] = mkLoadTrace("cyclic", cyc, nil)

	// scan: every block distinct; nothing helps, everything cold-misses.
	var scan []uint64
	for b := uint64(0); b < 4096; b++ {
		scan = append(scan, b)
	}
	out["scan"] = mkLoadTrace("scan", scan, nil)

	// scan+reuse: a hot working set exactly filling the cache, interleaved
	// with a one-shot scan, distinct PCs per component. LRU lets the scan
	// evict hot lines; a reuse predictor learns to bypass the scan PC —
	// the pattern reuse prediction exists to solve.
	var sr []uint64
	var srPCs []uint64
	next := uint64(1 << 20)
	for it := 0; it < 200; it++ {
		for h := uint64(0); h < 64; h++ {
			sr = append(sr, h)
			srPCs = append(srPCs, 0xA)
		}
		for s := 0; s < 32; s++ {
			sr = append(sr, next)
			srPCs = append(srPCs, 0xB)
			next++
		}
	}
	out["scan+reuse"] = mkLoadTrace("scan+reuse", sr, srPCs)

	// churn: a cyclic loop whose population shifts every round, so stale
	// lines must be recognized as dead.
	var ch []uint64
	base := uint64(0)
	for it := 0; it < 60; it++ {
		for b := base; b < base+96; b++ {
			ch = append(ch, b)
		}
		base += 16
	}
	out["churn"] = mkLoadTrace("churn", ch, nil)

	return out
}

// runPolicyTrace drives a cache with the policy over the trace, advancing
// the oracle (when present) to each access index, and returns per-access
// hits plus final stats.
func runPolicyTrace(t *testing.T, p cache.Policy, tr *trace.Trace, sets, ways int, o *oracleReuse) ([]bool, cache.Stats) {
	t.Helper()
	c, err := cache.New(cache.Config{Name: "llc", Sets: sets, Ways: ways}, p)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]bool, tr.Len())
	for i, a := range tr.Accesses {
		if o != nil {
			o.now = i
		}
		hits[i] = c.Access(a.PC, a.Block(), a.Core, a.Kind).Hit
	}
	return hits, c.Stats()
}

// TestPerfectPredictionMatchesBeladyMIN proves the eviction machinery of
// the reuse-distance policies is exactly MIN's decision rule: with the
// oracle injected, every access hits if and only if it hits under
// opt.SimulateMIN, across all crafted patterns and several geometries, at
// k = 1 (FRD's one-compare scan) and k = 4 (MSA's lexicographic rank).
func TestPerfectPredictionMatchesBeladyMIN(t *testing.T) {
	t.Parallel()
	geoms := []struct{ sets, ways int }{{4, 2}, {16, 4}, {32, 8}}
	for name, tr := range oraclePatterns() {
		for _, g := range geoms {
			g := g
			tr := tr
			min := opt.SimulateMIN(tr, g.sets, g.ways)
			for _, k := range []int{1, 4} {
				o := newOracleReuse(tr)
				hits, stats := runPolicyTrace(t, NewReuseWithPredictor(g.sets, g.ways, k, o), tr, g.sets, g.ways, o)
				label := fmt.Sprintf("%s/k%d/%dx%d", name, k, g.sets, g.ways)
				for i := range hits {
					if hits[i] != min.Hit[i] {
						t.Fatalf("%s: access %d: policy hit=%v, MIN hit=%v", label, i, hits[i], min.Hit[i])
					}
				}
				if stats.Hits != min.Hits || stats.Misses != min.Misses {
					t.Fatalf("%s: totals %d/%d, MIN %d/%d", label, stats.Hits, stats.Misses, min.Hits, min.Misses)
				}
			}
		}
	}
}

// TestLearnedPoliciesLandBetweenLRUAndMIN is the oracle sandwich: on every
// crafted pattern the learned FRD/MSA miss counts must be at least MIN's
// (a theorem — MIN is optimal) and at most LRU's plus a small tolerance
// (the patterns are chosen so reuse prediction genuinely helps; LRU is the
// deployment baseline a learned policy must not lose to here).
func TestLearnedPoliciesLandBetweenLRUAndMIN(t *testing.T) {
	t.Parallel()
	const sets, ways = 16, 4
	for name, tr := range oraclePatterns() {
		min := opt.SimulateMIN(tr, sets, ways)
		_, lru := runPolicyTrace(t, cache.NewLRU(sets, ways), tr, sets, ways, nil)
		for _, pname := range []string{"frd", "msa"} {
			p, ok := New(pname, sets, ways)
			if !ok {
				t.Fatalf("policy %q not registered", pname)
			}
			_, st := runPolicyTrace(t, p, tr, sets, ways, nil)
			// LRU-side slack: 2% of accesses for model warm-up.
			slack := uint64(tr.Len()) / 50
			if st.Misses < min.Misses {
				t.Fatalf("%s/%s: %d misses beats MIN's %d — oracle or policy broken", name, pname, st.Misses, min.Misses)
			}
			if st.Misses > lru.Misses+slack {
				t.Fatalf("%s/%s: %d misses exceeds LRU's %d (+%d slack)", name, pname, st.Misses, lru.Misses, slack)
			}
			t.Logf("%s/%s: MIN %d ≤ %d ≤ LRU %d (accesses %d)", name, pname, min.Misses, st.Misses, lru.Misses, tr.Len())
		}
	}
}

// TestLearnedPoliciesBeatLRUOnCyclic pins the headline behavior: on the
// cyclic and scan+reuse patterns — where LRU pathologically thrashes and
// MIN retains — the trained FRD and MSA models must strictly beat LRU.
func TestLearnedPoliciesBeatLRUOnCyclic(t *testing.T) {
	t.Parallel()
	const sets, ways = 16, 4
	pats := oraclePatterns()
	for _, name := range []string{"cyclic", "scan+reuse"} {
		tr := pats[name]
		_, lru := runPolicyTrace(t, cache.NewLRU(sets, ways), tr, sets, ways, nil)
		for _, pname := range []string{"frd", "msa"} {
			p, _ := New(pname, sets, ways)
			_, st := runPolicyTrace(t, p, tr, sets, ways, nil)
			if st.Misses >= lru.Misses {
				t.Errorf("%s/%s: %d misses, LRU %d — learned policy should exploit this pattern", name, pname, st.Misses, lru.Misses)
			}
		}
	}
}
