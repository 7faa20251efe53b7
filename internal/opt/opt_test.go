package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"glider/internal/trace"
)

func mkTrace(blocks ...uint64) *trace.Trace {
	t := trace.New("t", len(blocks))
	for _, b := range blocks {
		t.Append(trace.Access{PC: 1, Addr: b << trace.BlockShift})
	}
	return t
}

func TestNextUse(t *testing.T) {
	tr := mkTrace(1, 2, 1, 3, 2)
	next := NextUse(tr)
	want := []int{2, 4, noUse, noUse, noUse}
	for i, w := range want {
		if next[i] != w {
			t.Fatalf("next[%d] = %d, want %d", i, next[i], w)
		}
	}
}

func TestMINSimpleHit(t *testing.T) {
	// Two blocks, capacity 2 (1 set × 2 ways): everything after first
	// touches hits.
	tr := mkTrace(1, 2, 1, 2, 1)
	res := SimulateMIN(tr, 1, 2)
	if res.Hits != 3 || res.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", res.Hits, res.Misses)
	}
	// Accesses 0..2 all lead to later MIN hits; accesses 3 and 4 are the
	// last touches of their blocks and have no future reuse.
	for i := 0; i < 3; i++ {
		if !res.ShouldCache[i] {
			t.Fatalf("access %d should be labeled cache-friendly", i)
		}
	}
	for i := 3; i < 5; i++ {
		if res.ShouldCache[i] {
			t.Fatalf("access %d has no reuse: must be cache-averse", i)
		}
	}
}

func TestMINEvictsFurthest(t *testing.T) {
	// Capacity 2. Access 1,2,3 with future 1 sooner than 2: MIN must evict
	// 2 (or bypass 3 if 3 is furthest). Sequence: 1 2 3 1 2.
	tr := mkTrace(1, 2, 3, 1, 2)
	res := SimulateMIN(tr, 1, 2)
	// Optimal: keep 1 and 2, bypass 3 → hits at indices 3 and 4.
	if !res.Hit[3] || !res.Hit[4] {
		t.Fatalf("MIN should hit on both reuses: %+v", res.Hit)
	}
	if res.Hits != 2 {
		t.Fatalf("hits = %d, want 2", res.Hits)
	}
}

func TestMINCyclicThrash(t *testing.T) {
	// Cyclic scan of 4 blocks with capacity 2: MIN retains a static subset
	// and achieves ≈ capacity/working-set hit rate; LRU would get zero.
	var blocks []uint64
	for round := 0; round < 50; round++ {
		for b := uint64(1); b <= 4; b++ {
			blocks = append(blocks, b)
		}
	}
	res := SimulateMIN(mkTrace(blocks...), 1, 2)
	if res.HitRate() < 0.35 {
		t.Fatalf("MIN hit rate %.3f on cyclic scan, want ≥ 0.35", res.HitRate())
	}
}

// bruteForceBestHits computes, for tiny traces and capacity 1, the optimal
// number of hits (for capacity 1, MIN hit count equals the number of
// immediate same-block repeats... not generally; instead we check MIN
// dominates an LRU simulation).
func lruHits(blocks []uint64, capacity int) int {
	cache := []uint64{}
	hits := 0
	for _, b := range blocks {
		found := -1
		for i, c := range cache {
			if c == b {
				found = i
				break
			}
		}
		if found >= 0 {
			hits++
			cache = append(append(cache[:found:found], cache[found+1:]...), b)
			continue
		}
		if len(cache) == capacity {
			cache = cache[1:]
		}
		cache = append(cache, b)
	}
	return hits
}

func TestMINDominatesLRUProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = uint64(r.Intn(8))
		}
		for _, ways := range []int{1, 2, 4} {
			res := SimulateMIN(mkTrace(blocks...), 1, ways)
			if int(res.Hits) < lruHits(blocks, ways) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMINSetMapping(t *testing.T) {
	// Blocks 0 and 2 map to set 0, block 1 to set 1 (2 sets). With 1 way
	// per set, alternating 0,1,0,1 all hit after the first touches.
	tr := mkTrace(0, 1, 0, 1, 0, 1)
	res := SimulateMIN(tr, 2, 1)
	if res.Hits != 4 {
		t.Fatalf("hits = %d, want 4", res.Hits)
	}
}

func TestLabelTraceMatchesSimulate(t *testing.T) {
	tr := mkTrace(1, 2, 3, 1, 2, 3, 1)
	a := LabelTrace(tr, 1, 2)
	b := SimulateMIN(tr, 1, 2).ShouldCache
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LabelTrace diverges from SimulateMIN")
		}
	}
}

func TestOPTgenHitAndMiss(t *testing.T) {
	g := NewOPTgen(2, 8)
	// Block 1 reused immediately: fits → hit.
	if v := g.Access(1); v != VerdictCold {
		t.Fatalf("first access verdict = %v, want cold", v)
	}
	if v := g.Access(1); v != VerdictHit {
		t.Fatalf("immediate reuse verdict = %v, want hit", v)
	}
}

func TestOPTgenCapacityMiss(t *testing.T) {
	g := NewOPTgen(1, 8) // capacity 1
	g.Access(1)
	g.Access(2)
	g.Access(2) // reserves the single slot over [1,2)
	// Now 1's interval [0,3) includes quantum 1 (occupied): verdict miss.
	if v := g.Access(1); v != VerdictMiss {
		t.Fatalf("verdict = %v, want miss", v)
	}
}

func TestOPTgenExpired(t *testing.T) {
	g := NewOPTgen(2, 4)
	g.Access(1)
	for i := 0; i < 5; i++ {
		g.Access(uint64(100 + i))
	}
	if v := g.Access(1); v != VerdictExpired {
		t.Fatalf("verdict = %v, want expired", v)
	}
}

func TestOPTgenAgreesWithMIN(t *testing.T) {
	// Property: on single-set random traces with reuse within the window,
	// OPTgen's hit/miss verdicts match exact MIN's ShouldCache labels for
	// the previous access of the same block.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100
		ways := 4
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = uint64(r.Intn(10))
		}
		tr := mkTrace(blocks...)
		res := SimulateMIN(tr, 1, ways)
		g := NewOPTgen(ways, 16*ways) // window covers the whole trace
		last := map[uint64]int{}
		for i, b := range blocks {
			v := g.Access(b)
			if prev, ok := last[b]; ok {
				switch v {
				case VerdictHit:
					if !res.ShouldCache[prev] {
						return false
					}
				case VerdictMiss:
					if res.ShouldCache[prev] {
						return false
					}
				}
			}
			last[b] = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTgenClock(t *testing.T) {
	g := NewOPTgen(2, 8)
	for i := 0; i < 5; i++ {
		g.Access(uint64(i))
	}
	if g.Clock() != 5 {
		t.Fatalf("clock = %d, want 5", g.Clock())
	}
}

func TestOPTgenMapBounded(t *testing.T) {
	g := NewOPTgen(2, 8)
	for i := 0; i < 10000; i++ {
		g.Access(uint64(i))
	}
	if g.last.Len() > 4*8+8 {
		t.Fatalf("last table grew unbounded: %d entries", g.last.Len())
	}
}

func TestDefaultWindow(t *testing.T) {
	g := NewOPTgen(16, 0)
	if g.window != DefaultWindowFactor*16 {
		t.Fatalf("default window = %d", g.window)
	}
}
