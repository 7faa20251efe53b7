package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"glider/internal/trace"
)

// fifoPolicy is a minimal deterministic policy for cache-mechanics tests.
type fifoPolicy struct {
	next map[int]int
	ways int
}

func newFIFO(ways int) *fifoPolicy { return &fifoPolicy{next: map[int]int{}, ways: ways} }

func (p *fifoPolicy) Name() string { return "fifo" }
func (p *fifoPolicy) Victim(set int, pc, block uint64, core uint8, lines []Line) int {
	w := p.next[set]
	p.next[set] = (w + 1) % p.ways
	return w
}
func (p *fifoPolicy) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
}

// bypassPolicy refuses to cache anything.
type bypassPolicy struct{}

func (bypassPolicy) Name() string { return "bypass" }
func (bypassPolicy) Victim(set int, pc, block uint64, core uint8, lines []Line) int {
	return Bypass
}
func (bypassPolicy) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sets: 3, Ways: 2}, newFIFO(2)); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}, newFIFO(1)); err == nil {
		t.Fatal("zero ways accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 2}, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestConfigSizes(t *testing.T) {
	if L1DConfig.SizeBytes() != 32*1024 {
		t.Fatalf("L1D size = %d", L1DConfig.SizeBytes())
	}
	if L2Config.SizeBytes() != 256*1024 {
		t.Fatalf("L2 size = %d", L2Config.SizeBytes())
	}
	if LLCConfig.SizeBytes() != 2*1024*1024 {
		t.Fatalf("LLC size = %d", LLCConfig.SizeBytes())
	}
	if SharedLLCConfig4.SizeBytes() != 8*1024*1024 {
		t.Fatalf("shared LLC size = %d", SharedLLCConfig4.SizeBytes())
	}
}

func TestHitMissBasics(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 2, Ways: 2}, newFIFO(2))
	if r := c.Access(1, 4, 0, trace.Load); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(1, 4, 0, trace.Load); !r.Hit {
		t.Fatal("second access missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", s.MissRate())
	}
}

func TestEvictionAndWriteback(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 1}, newFIFO(1))
	c.Access(1, 10, 0, trace.Store) // dirty fill
	r := c.Access(1, 20, 0, trace.Load)
	if !r.Evicted || !r.WritebackNeeded {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.EvictedLine.Tag != 10 {
		t.Fatalf("evicted tag %d", r.EvictedLine.Tag)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Writebacks != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 1}, newFIFO(1))
	c.Access(1, 10, 0, trace.Load)
	r := c.Access(1, 20, 0, trace.Load)
	if !r.Evicted || r.WritebackNeeded {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
}

func TestBypass(t *testing.T) {
	// Invalid ways are filled without consulting the policy, so the first
	// fill lands; once the set is full the bypass policy takes effect.
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 1}, bypassPolicy{})
	c.Access(1, 10, 0, trace.Load)
	if !c.Lookup(10) {
		t.Fatal("fill into invalid way should not consult the policy")
	}
	c.Access(1, 20, 0, trace.Load)
	if c.Lookup(20) {
		t.Fatal("bypassed line was cached")
	}
	if !c.Lookup(10) {
		t.Fatal("bypass evicted the resident line")
	}
	if c.Stats().Bypasses != 1 {
		t.Fatalf("bypass count %d", c.Stats().Bypasses)
	}
}

func TestInvalidWayPreferredOverVictim(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 2}, bypassPolicy{})
	c.Access(1, 10, 0, trace.Load)
	if !c.Lookup(10) {
		t.Fatal("line not filled into invalid way")
	}
	c.Access(1, 12, 0, trace.Load)
	if !c.Lookup(12) {
		t.Fatal("second invalid way not used")
	}
	// Set now full; bypass policy refuses.
	c.Access(1, 14, 0, trace.Load)
	if c.Lookup(14) {
		t.Fatal("full set should have bypassed")
	}
}

func TestSetIndexMasks(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 4, Ways: 1}, newFIFO(1))
	if c.SetIndex(5) != 1 || c.SetIndex(8) != 0 {
		t.Fatal("set indexing wrong")
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 2}, newFIFO(2))
	c.Access(1, 10, 0, trace.Load)
	c.Access(1, 10, 0, trace.Store) // hit that dirties
	c.Access(1, 20, 0, trace.Load)
	r := c.Access(1, 30, 0, trace.Load) // evicts way 0 (block 10, dirty)
	if !r.WritebackNeeded {
		t.Fatal("store hit did not dirty the line")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 2, Ways: 2}, newFIFO(2))
	c.Access(1, 0, 0, trace.Load)
	c.Access(1, 1, 0, trace.Load)
	if got := c.Occupancy(); got != 0.5 {
		t.Fatalf("occupancy %v, want 0.5", got)
	}
	c.Flush()
	if c.Occupancy() != 0 || c.Lookup(0) {
		t.Fatal("flush did not invalidate")
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 1, Ways: 1}, newFIFO(1))
	c.Access(1, 10, 0, trace.Load)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Lookup(10) {
		t.Fatal("reset must not flush contents")
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Name: "t", Sets: 4, Ways: 2}, newFIFO(2))
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(16)), uint64(r.Intn(64)), 0, trace.Kind(r.Intn(3)))
		}
		// Occupancy can never exceed 1, and a lookup right after an access
		// of a cached (non-bypassed) block must hit.
		if c.Occupancy() > 1 {
			return false
		}
		b := uint64(r.Intn(64))
		res := c.Access(1, b, 0, trace.Load)
		if res.Way != Bypass && !c.Lookup(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
