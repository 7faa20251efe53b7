// Package cache implements a set-associative cache model with pluggable
// replacement policies, plus the three-level hierarchy of Table 1 in the
// paper (32 KB L1, 256 KB L2, 2 MB-per-core LLC).
//
// The replacement policy controls victim selection and receives an update
// callback on every access, mirroring the interface of the Cache Replacement
// Championship (CRC2) simulator the paper evaluates with. Every level runs
// on the one Cache type. The LRU policy lives here, not with the other
// policies, because the private L1 and L2 run it.
package cache

import (
	"fmt"

	"glider/internal/trace"
)

// Bypass is returned by a policy's Victim method to indicate the incoming
// line should not be cached at all.
const Bypass = -1

// Line is the policy-visible state of one cache line. The byte-sized fields
// follow the words so that a Line is 24 bytes, not 32.
type Line struct {
	// Tag is the block address stored in the line.
	Tag uint64
	// PC is the program counter that inserted or last touched the line.
	PC uint64
	// Core is the core that inserted the line.
	Core uint8
	// Valid reports whether the line holds data.
	Valid bool
	// Dirty reports whether the line has been written.
	Dirty bool
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	// Hit reports whether the block was present.
	Hit bool
	// Set and Way locate the line that was hit or filled. Way is Bypass if
	// the policy chose not to cache the line.
	Set, Way int
	// Evicted reports whether a valid line was evicted to make room.
	Evicted bool
	// EvictedLine is the displaced line when Evicted is true.
	EvictedLine Line
	// WritebackNeeded reports whether the evicted line was dirty.
	WritebackNeeded bool
}

// Policy decides replacement for one cache. Implementations but LRU
// (lru.go) live in the policy package; the interface is defined here to
// avoid an import cycle.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Victim selects the way to evict from the given set to make room for
	// block, or Bypass to not cache it. lines has one entry per way.
	Victim(set int, pc, block uint64, core uint8, lines []Line) int
	// Update is invoked after every access: on a hit, way is the hit way;
	// on a fill, way is the filled way (or Bypass when the line was
	// bypassed).
	Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind)
}

// Resetter is a Policy that Reset returns, in place, to exactly the state
// its constructor builds: every registered policy is one. Cache.Reset needs
// one, so a reused LLC decides exactly as a fresh one would.
type Resetter interface {
	Policy
	Reset()
}

// Stats aggregates cache access counters.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Bypasses   uint64
}

// MissRate returns Misses/Accesses (0 for an unused cache).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config sizes a cache.
type Config struct {
	// Name labels the cache ("L1D", "L2", "LLC").
	Name string
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the hit latency used by the timing model.
	LatencyCycles int
}

// Lines returns the total line count.
func (c Config) Lines() int { return c.Sets * c.Ways }

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Lines() * trace.BlockSize }

// Standard configurations from Table 1 of the paper (64-byte blocks).
var (
	// L1DConfig is the 32 KB, 8-way, 4-cycle L1 data cache.
	L1DConfig = Config{Name: "L1D", Sets: 64, Ways: 8, LatencyCycles: 4}
	// L2Config is the 256 KB, 8-way, 12-cycle L2 cache.
	L2Config = Config{Name: "L2", Sets: 512, Ways: 8, LatencyCycles: 12}
	// LLCConfig is the 2 MB, 16-way, 26-cycle per-core LLC slice.
	LLCConfig = Config{Name: "LLC", Sets: 2048, Ways: 16, LatencyCycles: 26}
	// SharedLLCConfig4 is the 8 MB LLC shared by 4 cores (Figure 13).
	SharedLLCConfig4 = Config{Name: "LLC", Sets: 8192, Ways: 16, LatencyCycles: 26}
)

// check reports a geometry New cannot build.
func (c Config) check() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	return nil
}

// Cache is one set-associative cache level.
//
// A set's ways live at [set*Ways, (set+1)*Ways) of two parallel slabs:
// tags, which the hit scan reads, and lines, the Lines the policy sees
// (Line.Tag repeats the tag there). A miss fills the first invalid way and
// nothing but Reset invalidates, so a set's valid ways are always the
// prefix [0, valid[set]), which only grows until Reset. The cache reads
// that count, never a Line's Valid bit, which is kept for the policies.
// tags and valid share one allocation.
type Cache struct {
	cfg    Config
	policy Policy
	tags   []uint64
	lines  []Line
	valid  []uint64
	stats  Stats
	// obs, when non-nil, receives per-access observability callbacks. The
	// nil check is the only cost the instrumentation adds to a run with
	// observability disabled.
	obs *Observer
}

// New builds a cache with the given geometry and replacement policy.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("cache %s: nil policy", cfg.Name)
	}
	words := make([]uint64, cfg.Lines()+cfg.Sets)
	return &Cache{
		cfg:    cfg,
		policy: p,
		tags:   words[:cfg.Lines()],
		lines:  make([]Line, cfg.Lines()),
		valid:  words[cfg.Lines():],
	}, nil
}

// MustNew is New but panics on configuration error; for use with the
// package-level constant configs.
func MustNew(cfg Config, p Policy) *Cache {
	c, err := New(cfg, p)
	if err != nil {
		panic(err)
	}
	return c
}

// NewUpperLRU builds a private upper-level cache: New with an LRU policy
// sized for cfg.
func NewUpperLRU(cfg Config) (*Cache, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return New(cfg, NewLRU(cfg.Sets, cfg.Ways))
}

// MustNewUpperLRU is NewUpperLRU but panics on configuration error.
func MustNewUpperLRU(cfg Config) *Cache {
	c, err := NewUpperLRU(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used after cache warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetIndex maps a block address to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & uint64(c.cfg.Sets-1)) }

// Lookup reports whether block is present without updating any state.
func (c *Cache) Lookup(block uint64) bool {
	set := c.SetIndex(block)
	base := set * c.cfg.Ways
	for _, t := range c.tags[base : base+int(c.valid[set])] {
		if t == block {
			return true
		}
	}
	return false
}

// Access performs one access. On a miss the line is filled (subject to the
// policy's bypass decision) and the displaced line, if any, is reported.
func (c *Cache) Access(pc, block uint64, core uint8, kind trace.Kind) AccessResult {
	ways := c.cfg.Ways
	set := c.SetIndex(block)
	base := set * ways
	n := int(c.valid[set])
	c.stats.Accesses++

	for w, t := range c.tags[base : base+n] {
		if t == block {
			c.stats.Hits++
			l := &c.lines[base+w]
			if kind == trace.Store || kind == trace.Writeback {
				l.Dirty = true
			}
			l.PC = pc
			if c.obs != nil {
				c.obs.onHit(set, w, pc)
			}
			c.policy.Update(set, w, pc, block, core, true, kind)
			return AccessResult{Hit: true, Set: set, Way: w}
		}
	}

	// Miss.
	c.stats.Misses++
	if c.obs != nil {
		c.obs.onMiss(set, pc)
	}

	// Fill the first invalid way; consult the policy only when the set is
	// full.
	way := n
	res := AccessResult{Set: set, Way: way}
	if n < ways {
		c.valid[set]++
	} else {
		lines := c.lines[base : base+ways : base+ways]
		way = c.policy.Victim(set, pc, block, core, lines)
		res.Way = way
		if way == Bypass {
			c.stats.Bypasses++
			if c.obs != nil {
				c.obs.onBypass()
			}
			c.policy.Update(set, Bypass, pc, block, core, false, kind)
			return res
		}
		if way < 0 || way >= ways {
			panic(fmt.Sprintf("cache %s: policy %s returned invalid victim way %d", c.cfg.Name, c.policy.Name(), way))
		}
		victim := lines[way]
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedLine = victim
		if victim.Dirty {
			c.stats.Writebacks++
			res.WritebackNeeded = true
		}
		if c.obs != nil {
			c.obs.onEvict(set, way, victim.Dirty)
		}
	}
	c.tags[base+way] = block
	c.lines[base+way] = Line{
		Tag:   block,
		PC:    pc,
		Core:  core,
		Valid: true,
		Dirty: kind == trace.Store || kind == trace.Writeback,
	}
	if c.obs != nil {
		c.obs.onFill(set, way, pc)
	}
	c.policy.Update(set, way, pc, block, core, false, kind)
	return res
}

// Reset returns the cache to the state New builds around a fresh policy:
// every line empty, zero counters, and the policy reset (see Resetter).
// It panics if the policy is not a Resetter. An attached Observer stays
// attached.
func (c *Cache) Reset() {
	c.stats = Stats{}
	r, ok := c.policy.(Resetter)
	if !ok {
		panic(fmt.Sprintf("cache %s: policy %s cannot be reset", c.cfg.Name, c.policy.Name()))
	}
	clear(c.tags)
	clear(c.lines)
	clear(c.valid)
	r.Reset()
}
