package cache

// Fast upper-level LRU path.
//
// The private L1 and L2 caches are always LRU and never the subject of a
// replacement study, yet the generic path makes them pay for pluggability on
// every access: a scan over []Line structs and two dynamic dispatches into
// Policy.Update/Victim backed by a stamp table allocated elsewhere on the
// heap. The fast path specializes exactly that case. All per-set state lives
// in one contiguous uint64 slab — for an 8-way set: tags (one cache line),
// recency stamps, last-touch PCs, and packed core/dirty metadata, 256
// adjacent bytes in total — so a set probe touches four neighbouring cache
// lines instead of the reference path's Line slice plus a separate policy
// stamp row, and hit detection is a branch-free scan over dense tags.
//
// Bit-identity argument (verified by TestFastLRUEquivalence here and the
// internal/cpu equivalence suite over every registered workload):
//
//  1. Hit detection scans ways in the same 0..ways-1 order, so the hit way
//     matches. Tags are unique within a set, so at most one way can match.
//  2. On a miss, both paths fill the first invalid way. The fast path marks
//     invalid ways with an impossible tag (invalidTag): tags are block
//     addresses (byte address >> trace.BlockShift, at most 1<<58), which can
//     never equal ^uint64(0).
//  3. When all ways are valid, policy.LRU evicts the way with the smallest
//     global-clock stamp, breaking ties toward the lowest index. The fast
//     path keeps the same monotonic clock (incremented once per access) and
//     the same strict-< argmin, and every valid way was stamped by its fill,
//     so the victim is identical. LRU never bypasses, so the bypass path is
//     unreachable in both.
//  4. Hits update Dirty and PC exactly like the generic path (Core is only
//     written on fills, matching Cache.Access), so evicted lines propagate
//     identical writeback (Tag, PC, Core, Dirty) tuples down the hierarchy.
//  5. Stats counters and observer callbacks fire at the same points, so
//     Stats and telemetry are equal.

import (
	"fmt"

	"glider/internal/trace"
)

// invalidTag marks an empty way in the dense tag array. Real tags are block
// addresses (byte address >> trace.BlockShift ≤ 1<<58), so this value is
// unreachable.
const invalidTag = ^uint64(0)

// Packed metadata word layout: bit 0 = dirty, bits 8-15 = core.
const (
	fastMetaDirty = 1 << 0
	fastMetaCore  = 8
)

// fastLRU is the specialized upper-level state: one uint64 slab holding, per
// set, [tags | stamps | pcs | meta], each ways entries long, plus a single
// monotonic recency clock shared by all sets (mirroring policy.LRU).
type fastLRU struct {
	ways   int
	stride int // uint64s per set: 4*ways
	slab   []uint64
	clock  uint64
}

func newFastLRU(cfg Config) *fastLRU {
	f := &fastLRU{ways: cfg.Ways, stride: 4 * cfg.Ways}
	f.slab = make([]uint64, cfg.Sets*f.stride)
	f.reset()
	return f
}

// reset empties every way and restarts the clock: the state newFastLRU
// builds.
func (f *fastLRU) reset() {
	clear(f.slab)
	for base := 0; base < len(f.slab); base += f.stride {
		tags := f.slab[base : base+f.ways]
		for w := range tags {
			tags[w] = invalidTag
		}
	}
	f.clock = 0
}

// NewUpperLRU builds a cache on the fast LRU path. It behaves exactly like
// New(cfg, policy.NewLRU(cfg.Sets, cfg.Ways)) — same hits, fills, victims,
// writebacks, and Stats — without the per-access policy dispatch. Policy()
// returns nil for such a cache; it is intended for the fixed upper levels,
// not for replacement studies.
func NewUpperLRU(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive, got %d", cfg.Name, cfg.Ways)
	}
	return &Cache{cfg: cfg, fast: newFastLRU(cfg)}, nil
}

// MustNewUpperLRU is NewUpperLRU but panics on configuration error.
func MustNewUpperLRU(cfg Config) *Cache {
	c, err := NewUpperLRU(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// accessFast is the Access implementation for the fast LRU path.
func (c *Cache) accessFast(pc, block uint64, core uint8, kind trace.Kind) AccessResult {
	f := c.fast
	ways := f.ways
	set := int(block & uint64(c.cfg.Sets-1))
	base := set * f.stride
	slab := f.slab[base : base+f.stride : base+f.stride]
	tags := slab[:ways]
	stamps := slab[ways : 2*ways]

	c.stats.Accesses++
	f.clock++

	for w := range tags {
		if tags[w] == block {
			// Hit.
			c.stats.Hits++
			if kind == trace.Store || kind == trace.Writeback {
				slab[3*ways+w] |= fastMetaDirty
			}
			slab[2*ways+w] = pc
			stamps[w] = f.clock
			if c.obs != nil {
				c.obs.onHit(set, w, pc)
			}
			return AccessResult{Hit: true, Set: set, Way: w}
		}
	}

	// Miss.
	c.stats.Misses++
	if c.obs != nil {
		c.obs.onMiss(set, pc)
	}

	// Fill the first invalid way, else evict the least recently used one.
	way := -1
	for w := range tags {
		if tags[w] == invalidTag {
			way = w
			break
		}
	}
	res := AccessResult{Set: set}
	if way < 0 {
		oldest := invalidTag
		for w := range stamps {
			if stamps[w] < oldest {
				oldest = stamps[w]
				way = w
			}
		}
		meta := slab[3*ways+way]
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedLine = Line{
			Valid: true,
			Dirty: meta&fastMetaDirty != 0,
			Tag:   tags[way],
			PC:    slab[2*ways+way],
			Core:  uint8(meta >> fastMetaCore),
		}
		if res.EvictedLine.Dirty {
			c.stats.Writebacks++
			res.WritebackNeeded = true
		}
		if c.obs != nil {
			c.obs.onEvict(set, way, res.EvictedLine.Dirty)
		}
	}
	res.Way = way
	tags[way] = block
	meta := uint64(core) << fastMetaCore
	if kind == trace.Store || kind == trace.Writeback {
		meta |= fastMetaDirty
	}
	slab[3*ways+way] = meta
	slab[2*ways+way] = pc
	stamps[way] = f.clock
	if c.obs != nil {
		c.obs.onFill(set, way, pc)
	}
	return res
}

// lookupFast reports presence without touching recency or stats.
func (c *Cache) lookupFast(block uint64) bool {
	f := c.fast
	base := int(block&uint64(c.cfg.Sets-1)) * f.stride
	for _, t := range f.slab[base : base+f.ways] {
		if t == block {
			return true
		}
	}
	return false
}

// flushFast invalidates every line. The clock keeps running: the reference
// path keeps its LRU stamps across Flush too, and victims are only consulted
// once every way has been refilled (and restamped).
func (c *Cache) flushFast() {
	f := c.fast
	for s := 0; s < c.cfg.Sets; s++ {
		slab := f.slab[s*f.stride : (s+1)*f.stride]
		for w := 0; w < f.ways; w++ {
			slab[w] = invalidTag // tag
			slab[2*f.ways+w] = 0 // pc
			slab[3*f.ways+w] = 0 // core/dirty
		}
	}
}

// occupancyFast counts valid lines.
func (c *Cache) occupancyFast() float64 {
	f := c.fast
	valid := 0
	for s := 0; s < c.cfg.Sets; s++ {
		for _, t := range f.slab[s*f.stride : s*f.stride+f.ways] {
			if t != invalidTag {
				valid++
			}
		}
	}
	return float64(valid) / float64(c.cfg.Lines())
}
