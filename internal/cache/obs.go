package cache

import "glider/internal/obs"

// Observer publishes one cache's observability: per-level hit/miss/eviction
// counters, per-set outcome vectors, and per-PC reuse outcomes (which PCs
// insert lines that die unused — the signal Glider's predictor learns).
//
// A nil Observer is the disabled state: the cache hot path pays exactly one
// pointer check per access (see Cache.Access), which is what keeps the
// instrumented-but-disabled overhead under the 2% budget benchmarked on
// RunTable2.
type Observer struct {
	hits, misses, evictions, writebacks, bypasses *obs.Counter
	setHits, setMisses, setEvictions              *obs.Vec
	perPC                                         *obs.PCStats

	// Per-line reuse tracking for eviction outcomes: was the resident line
	// touched after fill, and which PC filled it.
	reused   []bool
	insertPC []uint64
	ways     int
}

// NewObserver builds an observer for a cache with geometry cfg, registering
// its metrics under "cache.<name>.*". Returns nil — the disabled state —
// when reg is nil.
func NewObserver(reg *obs.Registry, cfg Config) *Observer {
	if reg == nil {
		return nil
	}
	prefix := "cache." + cfg.Name
	return &Observer{
		hits:         reg.Counter(prefix + ".hits"),
		misses:       reg.Counter(prefix + ".misses"),
		evictions:    reg.Counter(prefix + ".evictions"),
		writebacks:   reg.Counter(prefix + ".writebacks"),
		bypasses:     reg.Counter(prefix + ".bypasses"),
		setHits:      reg.Vec(prefix+".set.hits", cfg.Sets),
		setMisses:    reg.Vec(prefix+".set.misses", cfg.Sets),
		setEvictions: reg.Vec(prefix+".set.evictions", cfg.Sets),
		perPC:        reg.PCStats(prefix + ".pc"),
		reused:       make([]bool, cfg.Lines()),
		insertPC:     make([]uint64, cfg.Lines()),
		ways:         cfg.Ways,
	}
}

// AttachObserver connects an observer to the cache (nil detaches).
func (c *Cache) AttachObserver(o *Observer) { c.obs = o }

func (o *Observer) onHit(set, way int, pc uint64) {
	o.hits.Inc()
	o.setHits.Inc(set)
	o.reused[set*o.ways+way] = true
	o.perPC.Access(pc, true)
}

func (o *Observer) onMiss(set int, pc uint64) {
	o.misses.Inc()
	o.setMisses.Inc(set)
	o.perPC.Access(pc, false)
}

func (o *Observer) onBypass() { o.bypasses.Inc() }

func (o *Observer) onEvict(set, way int, dirty bool) {
	o.evictions.Inc()
	o.setEvictions.Inc(set)
	if dirty {
		o.writebacks.Inc()
	}
	idx := set*o.ways + way
	o.perPC.Eviction(o.insertPC[idx], o.reused[idx])
}

func (o *Observer) onFill(set, way int, pc uint64) {
	idx := set*o.ways + way
	o.reused[idx] = false
	o.insertPC[idx] = pc
	o.perPC.Insertion(pc)
}
