package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// DIP — Dynamic Insertion Policy (Qureshi et al., ISCA 2007) — one of the
// heuristic ancestors the paper's related work (§2.1) traces modern
// replacement back to. DIP set-duels between traditional LRU insertion and
// BIP (Bimodal Insertion Policy: insert at LRU position except with 1/32
// probability at MRU), which protects against thrashing.

// setDuel is the set-dueling selector DIP and DRRIP share. In every 64
// sets, set 0 leads insertion policy A and set 1 policy B (complementary
// indices); a miss in a leader set votes against its policy on a saturating
// PSEL counter, and follower sets use B while PSEL sits above its midpoint.
type setDuel struct{ psel int }

const pselMax = 1023

func newSetDuel() setDuel { return setDuel{psel: 512} }

// leader classifies a set: 0 leads policy A, 1 leads policy B, -1 follows.
func (d *setDuel) leader(set int) int {
	switch set % 64 {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return -1
	}
}

// missUsesB casts a miss in set's vote and reports whether the set's fill
// uses policy B.
func (d *setDuel) missUsesB(set int) bool {
	switch d.leader(set) {
	case 0: // A's leader missed: nudge toward B.
		if d.psel < pselMax {
			d.psel++
		}
		return false
	case 1: // B's leader missed: nudge toward A.
		if d.psel > 0 {
			d.psel--
		}
		return true
	default:
		return d.psel > pselMax/2
	}
}

// LIP is the LRU-Insertion Policy: lines insert at the *LRU* position, so a
// never-reused line is the immediate next victim. It is BIP's ε→0 limit and
// is exposed separately as a useful baseline.
type LIP struct {
	lru *cache.LRU
}

// NewLIP builds a LIP policy.
func NewLIP(sets, ways int) *LIP {
	p := &LIP{lru: cache.NewLRU(sets, ways)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *LIP) Name() string { return "lip" }

// Reset implements cache.Resetter.
func (p *LIP) Reset() { p.lru.Reset() }

// Victim implements cache.Policy (LRU victim selection).
func (p *LIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.lru.Victim(set, pc, block, core, lines)
}

// Update implements cache.Policy: hits promote to MRU, fills insert at LRU.
func (p *LIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	if hit {
		p.lru.Update(set, way, pc, block, core, hit, kind)
		return
	}
	p.lru.InsertLRU(set, way)
}

// DIP set-duels LRU (policy A) against BIP (policy B).
type DIP struct {
	lru  *cache.LRU
	rng  xorshift64
	duel setDuel
}

// NewDIP builds a DIP policy.
func NewDIP(sets, ways int, seed uint64) *DIP {
	p := &DIP{lru: cache.NewLRU(sets, ways), rng: newXorshift(seed)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return "dip" }

// Reset implements cache.Resetter.
func (p *DIP) Reset() {
	p.lru.Reset()
	p.rng.reset()
	p.duel = newSetDuel()
}

// Victim implements cache.Policy.
func (p *DIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.lru.Victim(set, pc, block, core, lines)
}

// Update implements cache.Policy: hits and LRU's fills, and one BIP fill in
// 32, go to MRU; other BIP fills insert at LRU.
func (p *DIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	if hit || !p.duel.missUsesB(set) || p.rng.intn(32) == 0 {
		p.lru.Update(set, way, pc, block, core, hit, kind)
		return
	}
	p.lru.InsertLRU(set, way)
}
