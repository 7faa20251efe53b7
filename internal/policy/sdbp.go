package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// SDBP — Sampling Dead Block Prediction (Khan, Tian & Jiménez, MICRO 2010)
// — a direct ancestor of the learning-based policies the paper compares
// against (§2: "SDBP and SHiP monitor evictions from a sampler to learn
// whether a given load instruction is likely to insert cache-friendly
// lines").
//
// A small set-sampled tag store (the "sampler") simulates LRU behaviour on
// a handful of sets; three skewed prediction tables of saturating counters
// learn, per PC, whether a block's last toucher predicts death. Lines
// predicted dead are the preferred victims and bypass candidates.

const (
	sdbpTables        = 3
	sdbpTableSize     = 4096
	sdbpCtrMax        = 3 // 2-bit counters
	sdbpThreshold     = 8 // sum over tables predicting dead
	sdbpSamplerAssoc  = 12
	sdbpSamplerStride = 16 // sample every Nth set
)

// sdbpEntry is one sampler tag entry.
type sdbpEntry struct {
	valid bool
	tag   uint64
	pc    uint64
	lru   uint64
}

// SDBP is the sampling dead-block predictor policy.
type SDBP struct {
	tables [sdbpTables][]uint8
	// sampler is the sampled sets' tag store in one slab: sdbpSamplerAssoc
	// entries for each sampled set, in set order.
	sampler []sdbpEntry
	clock   uint64
	// Per-line dead bit refreshed on every access.
	dead [][]bool
	lru  *cache.LRU
}

// NewSDBP builds the policy.
func NewSDBP(sets, ways int) *SDBP {
	sampled := (sets + sdbpSamplerStride - 1) / sdbpSamplerStride
	p := &SDBP{
		sampler: make([]sdbpEntry, sampled*sdbpSamplerAssoc),
		dead:    rows[bool](sets, ways),
		lru:     cache.NewLRU(sets, ways),
	}
	for i := range p.tables {
		p.tables[i] = make([]uint8, sdbpTableSize)
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *SDBP) Name() string { return "sdbp" }

// Reset implements cache.Resetter.
func (p *SDBP) Reset() {
	for _, t := range p.tables {
		clear(t)
	}
	clear(p.sampler)
	p.clock = 0
	fillRows(p.dead, false)
	p.lru.Reset()
}

// index computes the i-th skewed table index for a PC.
func (p *SDBP) index(i int, pc uint64) int {
	return hashPC(pc*uint64(2*i+3)+uint64(i)*0x9e37, sdbpTableSize)
}

// predictDead sums the three tables and compares with the threshold.
func (p *SDBP) predictDead(pc uint64) bool {
	sum := 0
	for i := range p.tables {
		sum += int(p.tables[i][p.index(i, pc)])
	}
	return sum >= sdbpThreshold
}

// train moves the counters toward dead (true) or live (false).
func (p *SDBP) train(pc uint64, dead bool) {
	for i := range p.tables {
		idx := p.index(i, pc)
		c := p.tables[i][idx]
		if dead {
			if c < sdbpCtrMax {
				p.tables[i][idx] = c + 1
			}
		} else {
			if c > 0 {
				p.tables[i][idx] = c - 1
			}
		}
	}
}

// sample updates the sampler for a sampled set and generates training.
func (p *SDBP) sample(set int, pc, block uint64) {
	if set%sdbpSamplerStride != 0 {
		return
	}
	first := set / sdbpSamplerStride * sdbpSamplerAssoc
	entries := p.sampler[first : first+sdbpSamplerAssoc]
	p.clock++
	// Hit?
	for i := range entries {
		if entries[i].valid && entries[i].tag == block {
			// The previous toucher's block was re-referenced: live.
			p.train(entries[i].pc, false)
			entries[i].pc = pc
			entries[i].lru = p.clock
			return
		}
	}
	// Miss: evict sampler LRU, training its last toucher as dead.
	victim := 0
	oldest := ^uint64(0)
	for i := range entries {
		if !entries[i].valid {
			victim = i
			oldest = 0
			break
		}
		if entries[i].lru < oldest {
			oldest = entries[i].lru
			victim = i
		}
	}
	if entries[victim].valid {
		p.train(entries[victim].pc, true)
	}
	entries[victim] = sdbpEntry{valid: true, tag: block, pc: pc, lru: p.clock}
}

// Victim implements cache.Policy: prefer lines whose last toucher predicts
// death; otherwise fall back to LRU.
func (p *SDBP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	for w := range lines {
		if p.dead[set][w] {
			return w
		}
	}
	// Bypass if the incoming line itself is predicted dead (the original
	// SDBP bypasses dead fills).
	if p.predictDead(pc) {
		return cache.Bypass
	}
	return p.lru.Victim(set, pc, block, core, lines)
}

// Update implements cache.Policy.
func (p *SDBP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind != trace.Writeback {
		p.sample(set, pc, block)
	}
	p.lru.Update(set, way, pc, block, core, hit, kind)
	if way < 0 {
		return
	}
	p.dead[set][way] = p.predictDead(pc)
}
