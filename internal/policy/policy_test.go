package policy

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// driveCache runs a block-address sequence through a small cache with the
// given policy and returns the hit count.
func driveCache(t *testing.T, p cache.Policy, sets, ways int, blocks []uint64) (hits int) {
	t.Helper()
	c, err := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if c.Access(1, b, 0, trace.Load).Hit {
			hits++
		}
	}
	return hits
}

// repeat tiles the pattern n times.
func repeat(pattern []uint64, n int) []uint64 {
	out := make([]uint64, 0, len(pattern)*n)
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}

func TestRegistryContainsPaperPolicies(t *testing.T) {
	// Spot-check the names other layers rely on, then exercise every
	// registered factory so new entries are covered automatically.
	for _, name := range []string{"lru", "hawkeye", "glider", "frd", "msa"} {
		if !Known(name) {
			t.Fatalf("policy %q missing from registry", name)
		}
	}
	names := Names()
	if len(names) < 19 {
		t.Fatalf("policy registry shrank to %d entries", len(names))
	}
	for _, name := range names {
		p, ok := New(name, 16, 4)
		if !ok || p == nil {
			t.Fatalf("policy %q missing from registry", name)
		}
		if p.Name() == "" {
			t.Fatalf("policy %q has empty name", name)
		}
	}
	if _, ok := New("nonsense", 16, 4); ok || Known("nonsense") {
		t.Fatal("unknown policy accepted")
	}
	// Names hands out a copy: changing it changes no later answer.
	names[0] = "nonsense"
	if Known("nonsense") || Names()[0] == "nonsense" {
		t.Fatal("Names shares its slice with the registry")
	}
}

func TestPredictorNames(t *testing.T) {
	want := map[string]bool{"hawkeye": true, "glider": true, "frd": true, "msa": true}
	got := PredictorNames()
	if len(got) != len(want) {
		t.Fatalf("PredictorNames() = %v, want the keys of %v", got, want)
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("unexpected predictor-capable policy %q", name)
		}
	}
	if PredictorCapable("lru") {
		t.Fatal("lru must not report predictor capability")
	}
	if PredictorCapable("nonsense") {
		t.Fatal("unknown policy must not report predictor capability")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	p := cache.NewLRU(1, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 2}, p)
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 20, 0, trace.Load)
	c.Access(1, 10, 0, trace.Load) // 20 is now LRU
	c.Access(1, 30, 0, trace.Load) // evicts 20
	if !c.Lookup(10) || c.Lookup(20) || !c.Lookup(30) {
		t.Fatal("LRU eviction order wrong")
	}
}

func TestMRUEvictsMostRecentlyUsed(t *testing.T) {
	p := NewMRU(1, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 2}, p)
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 20, 0, trace.Load) // 20 is MRU
	c.Access(1, 30, 0, trace.Load) // evicts 20
	if !c.Lookup(10) || c.Lookup(20) || !c.Lookup(30) {
		t.Fatal("MRU eviction order wrong")
	}
}

func TestMRUBeatsLRUOnThrash(t *testing.T) {
	// Cyclic scan over working set slightly larger than the cache: LRU
	// gets zero hits, MRU retains a subset.
	pattern := []uint64{0, 1, 2, 3, 4}
	blocks := repeat(pattern, 50)
	lru := driveCache(t, cache.NewLRU(1, 4), 1, 4, blocks)
	mru := driveCache(t, NewMRU(1, 4), 1, 4, blocks)
	if lru != 0 {
		t.Fatalf("LRU hits on thrash = %d, want 0", lru)
	}
	if mru <= lru {
		t.Fatalf("MRU (%d) should beat LRU (%d) on thrash", mru, lru)
	}
}

func TestRandomIsDeterministicWithSeed(t *testing.T) {
	blocks := repeat([]uint64{0, 1, 2, 3, 4, 5}, 30)
	a := driveCache(t, NewRandom(1, 4, 7), 1, 4, blocks)
	b := driveCache(t, NewRandom(1, 4, 7), 1, 4, blocks)
	if a != b {
		t.Fatal("random policy not reproducible with same seed")
	}
}

func TestSRRIPHitsOnReuse(t *testing.T) {
	blocks := repeat([]uint64{1, 2, 1, 2}, 20)
	hits := driveCache(t, NewSRRIP(1, 4), 1, 4, blocks)
	if hits < 70 {
		t.Fatalf("SRRIP hits = %d on trivially cacheable stream", hits)
	}
}

func TestBRRIPSurvivesThrash(t *testing.T) {
	// Working set of 6 in a 4-way cache: BRRIP's bimodal insertion keeps a
	// subset resident; plain SRRIP-at-long would also miss a lot, LRU gets 0.
	blocks := repeat([]uint64{0, 1, 2, 3, 4, 5}, 200)
	lru := driveCache(t, cache.NewLRU(1, 4), 1, 4, blocks)
	brrip := driveCache(t, NewBRRIP(1, 4, 3), 1, 4, blocks)
	if brrip <= lru {
		t.Fatalf("BRRIP (%d) should beat LRU (%d) on thrash", brrip, lru)
	}
}

func TestDRRIPAdaptsToThrash(t *testing.T) {
	// DRRIP must match LRU on a friendly pattern and beat it on thrash.
	// Thrash traffic targets the two leader sets (0: SRRIP, 1: BRRIP) and
	// a follower set (2) of a 64-set cache: each receives a cyclic scan of
	// 6 blocks in 4 ways, so the SRRIP leader thrashes, PSEL swings toward
	// BRRIP, and the follower inherits the thrash-resistant insertion.
	friendly := repeat([]uint64{1, 2, 3}, 100)
	if h := driveCache(t, NewDRRIP(64, 4, 1), 64, 4, friendly); h < 250 {
		t.Fatalf("DRRIP friendly hits = %d", h)
	}
	var thrash []uint64
	for round := 0; round < 400; round++ {
		for set := uint64(0); set < 3; set++ {
			thrash = append(thrash, set+64*(uint64(round)%6))
		}
	}
	lru := driveCache(t, cache.NewLRU(64, 4), 64, 4, thrash)
	dr := driveCache(t, NewDRRIP(64, 4, 1), 64, 4, thrash)
	if dr <= lru {
		t.Fatalf("DRRIP (%d) should beat LRU (%d) on thrash", dr, lru)
	}
}

func TestSHiPLearnsDeadSignature(t *testing.T) {
	p := NewSHiPPP(1, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4}, p)
	// PC 100 streams (never reuses), PC 200 reuses. After warmup, PC 100's
	// fills should insert distant and not displace PC 200's lines.
	next := uint64(1000)
	for i := 0; i < 2000; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(200, 2, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	c.ResetStats()
	for i := 0; i < 100; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(200, 2, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	s := c.Stats()
	// The two reused blocks should essentially always hit.
	if s.Hits < 195 {
		t.Fatalf("SHiP++ failed to protect reused lines: %d hits of 300 accesses", s.Hits)
	}
}

func TestPerceptronProtectsReusedLines(t *testing.T) {
	p := NewPerceptron(1, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4}, p)
	next := uint64(1000)
	for i := 0; i < 3000; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	c.ResetStats()
	for i := 0; i < 100; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	if s := c.Stats(); s.Hits < 95 {
		t.Fatalf("perceptron failed to protect reused line: %d hits", s.Hits)
	}
}

func TestMPPPBProtectsReusedLines(t *testing.T) {
	p := NewMPPPB(1, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4}, p)
	next := uint64(1000)
	for i := 0; i < 3000; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	c.ResetStats()
	for i := 0; i < 100; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next++
	}
	if s := c.Stats(); s.Hits < 95 {
		t.Fatalf("MPPPB failed to protect reused line: %d hits", s.Hits)
	}
}

func TestXorshiftNonZero(t *testing.T) {
	x := newXorshift(0)
	if x.next() == 0 {
		t.Fatal("xorshift with zero seed must still produce values")
	}
	for i := 0; i < 100; i++ {
		if n := x.intn(10); n < 0 || n >= 10 {
			t.Fatalf("intn out of range: %d", n)
		}
	}
}

func TestHashPCInRange(t *testing.T) {
	for pc := uint64(0); pc < 1000; pc++ {
		if h := hashPC(pc, 256); h < 0 || h >= 256 {
			t.Fatalf("hashPC out of range: %d", h)
		}
	}
}
