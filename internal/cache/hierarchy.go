package cache

import (
	"fmt"

	"glider/internal/trace"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels, in lookup order.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelDRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// HierarchyResult describes where an access hit and what traffic it caused.
type HierarchyResult struct {
	// HitLevel is the first level that held the block (LevelDRAM on a full
	// miss).
	HitLevel Level
	// LLCAccessed reports whether the access reached the LLC (i.e. missed
	// in L1 and L2) — these are the accesses replacement studies train on.
	LLCAccessed bool
	// LLCHit reports the LLC outcome when LLCAccessed.
	LLCHit bool
	// DRAMWriteback reports whether a dirty LLC eviction generated DRAM
	// write traffic; WritebackBlock is the evicted block's address.
	DRAMWriteback  bool
	WritebackBlock uint64
}

// Hierarchy is the three-level cache hierarchy of Table 1: private L1 and L2
// per core, and an LLC (private in single-core runs, shared in multi-core
// runs) whose replacement policy is the subject of study.
type Hierarchy struct {
	l1  []*Cache // per core
	l2  []*Cache // per core
	llc *Cache
}

// LRUFactory builds the replacement policy of the private upper levels. It
// is a function type so a caller can pass the policy package's LRU, the
// reference the fast path is checked against, without an import cycle;
// NewHierarchy takes nil for the built-in fast LRU.
type LRUFactory func(sets, ways int) Policy

// NewHierarchy builds a hierarchy with `cores` private L1/L2 pairs (using
// upperPolicy to build their replacement state) and the given shared LLC.
//
// A nil upperPolicy selects the specialized fast LRU path (fastlru.go) for
// the upper levels, which is bit-identical to New with the policy package's
// LRU but avoids the per-access interface dispatch. Pass an explicit factory
// only when the upper-level replacement state itself is under study.
func NewHierarchy(cores int, llcCfg Config, llcPolicy Policy, upperPolicy LRUFactory) (*Hierarchy, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cache: cores must be positive, got %d", cores)
	}
	newUpper := func(cfg Config) (*Cache, error) {
		if upperPolicy == nil {
			return NewUpperLRU(cfg)
		}
		return New(cfg, upperPolicy(cfg.Sets, cfg.Ways))
	}
	h := &Hierarchy{}
	for i := 0; i < cores; i++ {
		l1, err := newUpper(L1DConfig)
		if err != nil {
			return nil, err
		}
		l2, err := newUpper(L2Config)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
	}
	llc, err := New(llcCfg, llcPolicy)
	if err != nil {
		return nil, err
	}
	h.llc = llc
	return h, nil
}

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return len(h.l1) }

// LLC exposes the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1 exposes core i's L1 data cache.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 exposes core i's L2 cache.
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// Access sends one demand access down the hierarchy and returns where it
// hit. Dirty evictions propagate as writebacks to the next level.
func (h *Hierarchy) Access(a trace.Access) HierarchyResult {
	core := int(a.Core)
	if core >= len(h.l1) {
		core = 0
	}
	block := a.Block()
	var res HierarchyResult

	// L1.
	r1 := h.l1[core].Access(a.PC, block, a.Core, a.Kind)
	if r1.WritebackNeeded {
		h.writebackToL2(core, r1.EvictedLine)
	}
	if r1.Hit {
		res.HitLevel = LevelL1
		return res
	}

	// L2.
	r2 := h.l2[core].Access(a.PC, block, a.Core, a.Kind)
	if r2.WritebackNeeded {
		h.writebackToLLC(r2.EvictedLine)
	}
	if r2.Hit {
		res.HitLevel = LevelL2
		return res
	}

	// LLC: demand loads and stores both allocate.
	res.LLCAccessed = true
	r3 := h.llc.Access(a.PC, block, a.Core, a.Kind)
	res.LLCHit = r3.Hit
	if r3.Hit {
		res.HitLevel = LevelLLC
	} else {
		res.HitLevel = LevelDRAM
	}
	if r3.WritebackNeeded {
		res.DRAMWriteback = true
		res.WritebackBlock = r3.EvictedLine.Tag
	}
	return res
}

func (h *Hierarchy) writebackToL2(core int, l Line) {
	r := h.l2[core].Access(l.PC, l.Tag, l.Core, trace.Writeback)
	if r.WritebackNeeded {
		h.writebackToLLC(r.EvictedLine)
	}
}

func (h *Hierarchy) writebackToLLC(l Line) {
	// Writebacks that miss the LLC allocate (write-allocate). The result is
	// dropped: if the fill displaces a dirty LLC line, that line's DRAM
	// write is never modelled. Only a demand access's dirty LLC victim
	// reaches the timing model (HierarchyResult.DRAMWriteback); see
	// DESIGN.md §5.
	h.llc.Access(l.PC, l.Tag, l.Core, trace.Writeback)
}

// ResetStats zeroes counters at every level (post-warmup).
func (h *Hierarchy) ResetStats() {
	for i := range h.l1 {
		h.l1[i].ResetStats()
		h.l2[i].ResetStats()
	}
	h.llc.ResetStats()
}
