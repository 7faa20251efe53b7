package cache

// reference_test.go keeps Cache's policy-driven path as it was before the
// packed tag store, verbatim apart from renaming: one []Line per set, a hit
// scan that reads every Line, and a scan for the first invalid way on every
// miss. The reference wall (reference_wall_test.go) drives it beside Cache
// and requires identical results, statistics, lookups, occupancy and Victim
// arguments.

import (
	"fmt"

	"glider/internal/trace"
)

// Reference is the test-only reference cache.
type Reference struct {
	cfg    Config
	policy Policy
	sets   [][]Line
	stats  Stats
	obs    *Observer
}

// NewReference builds a reference cache; cfg must be valid for New.
func NewReference(cfg Config, p Policy) *Reference {
	c := &Reference{cfg: cfg, policy: p}
	c.sets = make([][]Line, cfg.Sets)
	backing := make([]Line, cfg.Sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

// Stats returns a copy of the accumulated counters.
func (c *Reference) Stats() Stats { return c.stats }

// AttachObserver connects an observer to the cache (nil detaches).
func (c *Reference) AttachObserver(o *Observer) { c.obs = o }

// SetIndex maps a block address to its set.
func (c *Reference) SetIndex(block uint64) int { return int(block & uint64(c.cfg.Sets-1)) }

// Lookup reports whether block is present without updating any state.
func (c *Reference) Lookup(block uint64) bool {
	set := c.SetIndex(block)
	for _, l := range c.sets[set] {
		if l.Valid && l.Tag == block {
			return true
		}
	}
	return false
}

// Access performs one access. On a miss the line is filled (subject to the
// policy's bypass decision) and the displaced line, if any, is reported.
func (c *Reference) Access(pc, block uint64, core uint8, kind trace.Kind) AccessResult {
	set := c.SetIndex(block)
	lines := c.sets[set]
	c.stats.Accesses++

	for w := range lines {
		if lines[w].Valid && lines[w].Tag == block {
			c.stats.Hits++
			if kind == trace.Store || kind == trace.Writeback {
				lines[w].Dirty = true
			}
			lines[w].PC = pc
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

	// Prefer an invalid way before consulting the policy.
	way := Bypass
	for w := range lines {
		if !lines[w].Valid {
			way = w
			break
		}
	}
	res := AccessResult{Set: set, Way: way}
	if way == Bypass {
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
		if way < 0 || way >= len(lines) {
			panic(fmt.Sprintf("cache %s: policy %s returned invalid victim way %d", c.cfg.Name, c.policy.Name(), way))
		}
		if lines[way].Valid {
			c.stats.Evictions++
			res.Evicted = true
			res.EvictedLine = lines[way]
			if lines[way].Dirty {
				c.stats.Writebacks++
				res.WritebackNeeded = true
			}
			if c.obs != nil {
				c.obs.onEvict(set, way, lines[way].Dirty)
			}
		}
	}
	lines[way] = Line{
		Valid: true,
		Dirty: kind == trace.Store || kind == trace.Writeback,
		Tag:   block,
		PC:    pc,
		Core:  core,
	}
	if c.obs != nil {
		c.obs.onFill(set, way, pc)
	}
	c.policy.Update(set, way, pc, block, core, false, kind)
	return res
}

// Flush invalidates every line (without policy notifications).
func (c *Reference) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = Line{}
		}
	}
}

// Occupancy returns the fraction of valid lines, for diagnostics.
func (c *Reference) Occupancy() float64 {
	valid := 0
	for s := range c.sets {
		for _, l := range c.sets[s] {
			if l.Valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(c.cfg.Lines())
}
