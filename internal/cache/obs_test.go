package cache_test

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/trace"
)

// TestObserverMatchesStats drives an instrumented cache and checks the
// observer's counters agree exactly with the cache's own statistics — the
// observer must be a pure mirror, never a second bookkeeper that drifts.
func TestObserverMatchesStats(t *testing.T) {
	cfg := cache.Config{Name: "LLC", Sets: 16, Ways: 4, LatencyCycles: 1}
	c := cache.MustNew(cfg, cache.NewLRU(cfg.Sets, cfg.Ways))
	reg := obs.NewRegistry()
	o := cache.NewObserver(reg, cfg)
	if o == nil {
		t.Fatal("NewObserver returned nil with a live registry")
	}
	c.AttachObserver(o)

	// A footprint over capacity guarantees hits, misses, and evictions.
	for i := 0; i < 5_000; i++ {
		b := uint64(i % 100)
		kind := trace.Load
		if i%7 == 0 {
			kind = trace.Store
		}
		c.Access(0x400000+b%8, b, 0, kind)
	}

	stats := c.Stats()
	for _, tc := range []struct {
		metric string
		want   uint64
	}{
		{"cache.LLC.hits", stats.Hits},
		{"cache.LLC.misses", stats.Misses},
		{"cache.LLC.evictions", stats.Evictions},
		{"cache.LLC.writebacks", stats.Writebacks},
		{"cache.LLC.bypasses", stats.Bypasses},
	} {
		if got := reg.Counter(tc.metric).Value(); got != tc.want {
			t.Errorf("%s = %d, cache stats say %d", tc.metric, got, tc.want)
		}
	}

	// Per-set vectors must sum to the same totals.
	if got := reg.Vec("cache.LLC.set.hits", cfg.Sets).Sum(); got != stats.Hits {
		t.Errorf("set.hits sum %d != hits %d", got, stats.Hits)
	}
	if got := reg.Vec("cache.LLC.set.misses", cfg.Sets).Sum(); got != stats.Misses {
		t.Errorf("set.misses sum %d != misses %d", got, stats.Misses)
	}

	// The per-PC table's access totals must cover every access, and its
	// insertion count every non-bypassed miss.
	var pcAccesses, pcInserts uint64
	for _, e := range reg.PCStats("cache.LLC.pc").Entries() {
		pcAccesses += e.Accesses
		pcInserts += e.Insertions
	}
	if pcAccesses != stats.Accesses {
		t.Errorf("per-PC accesses %d != %d", pcAccesses, stats.Accesses)
	}
	if want := stats.Misses - stats.Bypasses; pcInserts != want {
		t.Errorf("per-PC insertions %d != fills %d", pcInserts, want)
	}
}

// TestObserverReuseTracking pins the eviction-outcome semantics: a line
// evicted untouched is dead, a line hit after fill is reused, and the
// outcome is attributed to the PC that inserted the line — not the PC that
// last touched it.
func TestObserverReuseTracking(t *testing.T) {
	cfg := cache.Config{Name: "LLC", Sets: 1, Ways: 2, LatencyCycles: 1}
	c := cache.MustNew(cfg, cache.NewLRU(cfg.Sets, cfg.Ways))
	reg := obs.NewRegistry()
	c.AttachObserver(cache.NewObserver(reg, cfg))

	const pcDead, pcLive, pcToucher, pcFiller = 0x100, 0x200, 0x300, 0x400

	c.Access(pcDead, 0, 0, trace.Load) // fill block 0, never touched again
	c.Access(pcLive, 1, 0, trace.Load) // fill block 1...
	c.Access(pcToucher, 1, 0, trace.Load)
	// ...then touched by pcToucher (Line.PC now pcToucher). Two more fills
	// evict both residents in LRU order (0 first, then 1).
	c.Access(pcFiller, 2, 0, trace.Load)
	c.Access(pcFiller, 3, 0, trace.Load)

	entries := reg.PCStats("cache.LLC.pc").Entries()
	byPC := make(map[uint64]obs.PCOutcome, len(entries))
	for _, e := range entries {
		byPC[e.PC] = e.PCOutcome
	}

	if got := byPC[pcDead]; got.EvictedDead != 1 || got.EvictedReused != 0 {
		t.Errorf("dead PC outcome %+v, want 1 dead eviction", got)
	}
	// The reused eviction belongs to the inserting PC even though pcToucher
	// touched the line last.
	if got := byPC[pcLive]; got.EvictedReused != 1 || got.EvictedDead != 0 {
		t.Errorf("live PC outcome %+v, want 1 reused eviction", got)
	}
	if got := byPC[pcToucher]; got.EvictedReused != 0 && got.EvictedDead != 0 {
		t.Errorf("toucher PC wrongly charged an eviction: %+v", got)
	}
}

// TestObserverDisabledIsInert asserts a cache without an observer and one
// with a nil observer behave identically (the zero-overhead contract's
// correctness half).
func TestObserverDisabledIsInert(t *testing.T) {
	run := func(attach bool) cache.Stats {
		cfg := cache.Config{Name: "LLC", Sets: 8, Ways: 2, LatencyCycles: 1}
		c := cache.MustNew(cfg, cache.NewLRU(cfg.Sets, cfg.Ways))
		if attach {
			c.AttachObserver(nil)
		}
		for i := 0; i < 2_000; i++ {
			c.Access(0x400000, uint64(i%50), 0, trace.Load)
		}
		return c.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("nil observer changed stats: %+v vs %+v", a, b)
	}
	if o := cache.NewObserver(nil, cache.Config{Name: "x", Sets: 1, Ways: 1}); o != nil {
		t.Error("NewObserver with a nil registry should return nil")
	}
}
