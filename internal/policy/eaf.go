package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// EAF — the Evicted-Address Filter (Seshadri et al., PACT 2012) — from the
// paper's heuristic lineage (§2.1): a Bloom filter of recently evicted
// block addresses distinguishes pollution (blocks never re-referenced, not
// in the filter on their next fill) from thrashing/reuse (blocks that come
// back soon after eviction, found in the filter and inserted at high
// priority).

// eafBits sizes the Bloom filter.
const eafBits = 1 << 16

// eafMaxInserts bounds insertions before the filter is cleared (the
// original clears when the filter fills to the cache's capacity).
const eafMaxInserts = 32768

// EAF is the evicted-address-filter policy over an SRRIP backbone.
type EAF struct {
	state   rrpvState
	filter  []uint64 // bitset
	inserts int
	rng     xorshift64
}

// NewEAF builds an EAF policy.
func NewEAF(sets, ways int, seed uint64) *EAF {
	p := &EAF{
		state:  newRRPVState(sets, ways),
		filter: make([]uint64, eafBits/64),
		rng:    newXorshift(seed),
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *EAF) Name() string { return "eaf" }

// Reset implements cache.Resetter.
func (p *EAF) Reset() {
	p.state.reset()
	clear(p.filter)
	p.inserts = 0
	p.rng.reset()
}

func eafHash1(b uint64) uint {
	b ^= b >> 31
	b *= 0x7fb5d329728ea185
	return uint(b % eafBits)
}

func eafHash2(b uint64) uint {
	b ^= b >> 29
	b *= 0x81dadef4bc2dd44d
	return uint(b % eafBits)
}

func (p *EAF) filterAdd(b uint64) {
	h1, h2 := eafHash1(b), eafHash2(b)
	p.filter[h1/64] |= 1 << (h1 % 64)
	p.filter[h2/64] |= 1 << (h2 % 64)
	p.inserts++
	if p.inserts >= eafMaxInserts {
		clear(p.filter)
		p.inserts = 0
	}
}

func (p *EAF) filterHas(b uint64) bool {
	h1, h2 := eafHash1(b), eafHash2(b)
	return p.filter[h1/64]&(1<<(h1%64)) != 0 && p.filter[h2/64]&(1<<(h2%64)) != 0
}

// Victim implements cache.Policy: SRRIP victim selection, recording the
// evicted address in the filter.
func (p *EAF) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := p.state.victim(set)
	if lines[w].Valid {
		p.filterAdd(lines[w].Tag)
	}
	return w
}

// Update implements cache.Policy.
func (p *EAF) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	if hit {
		p.state.rrpv[set][way] = 0
		return
	}
	// Fill: a recently evicted block that returned is being reused —
	// insert near. Unknown blocks insert bimodally at distant priority
	// (pollution protection).
	if p.filterHas(block) {
		p.state.rrpv[set][way] = 0
	} else if p.rng.intn(16) == 0 {
		p.state.rrpv[set][way] = maxRRPV - 1
	} else {
		p.state.rrpv[set][way] = maxRRPV
	}
}
