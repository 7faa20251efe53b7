package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// Re-Reference Interval Prediction (Jaleel et al., ISCA 2010). RRPV counters
// predict how soon a line will be re-referenced; lines predicted "distant"
// (RRPV == max) are evicted first. SRRIP inserts at long (max-1), BRRIP
// inserts mostly at distant, and DRRIP set-duels between the two.

// maxRRPV is the saturating RRPV value for 3-bit counters, as used by the
// paper's RRPV-based policies (RRPV=7 is "distant").
const maxRRPV = 7

// rrpvState holds per-line RRPV counters.
type rrpvState struct {
	ways int
	rrpv [][]uint8
}

func newRRPVState(sets, ways int) rrpvState {
	s := rrpvState{ways: ways, rrpv: rows[uint8](sets, ways)}
	s.reset()
	return s
}

// reset marks every line distant.
func (s *rrpvState) reset() { fillRows(s.rrpv, maxRRPV) }

// victim returns the way with RRPV == max, aging the set until one exists.
func (s *rrpvState) victim(set int) int {
	for {
		for w := 0; w < s.ways; w++ {
			if s.rrpv[set][w] >= maxRRPV {
				return w
			}
		}
		for w := 0; w < s.ways; w++ {
			s.rrpv[set][w]++
		}
	}
}

// oldest returns the first way at RRPV max or, when there is none, the last
// way holding the set's highest RRPV. Unlike victim it does not age the set:
// Hawkeye and Glider age on friendly fills instead.
func (s *rrpvState) oldest(set int) int {
	row := s.rrpv[set]
	for w, r := range row {
		if r >= maxRRPV {
			return w
		}
	}
	victim, oldest := 0, uint8(0)
	for w, r := range row {
		if r >= oldest {
			oldest, victim = r, w
		}
	}
	return victim
}

// insertFriendly is the friendly fill of Hawkeye and Glider: way inserts
// at RRPV 0 and every other line of the set ages by one, short of distant,
// so stale friendly lines eventually expire.
func (s *rrpvState) insertFriendly(set, way int) {
	row := s.rrpv[set]
	for w := range row {
		if w != way && row[w] < maxRRPV-1 {
			row[w]++
		}
	}
	row[way] = 0
}

// bimodalRRPV is BRRIP's fill: distant, except one fill in 32 at long.
func bimodalRRPV(rng *xorshift64) uint8 {
	if rng.intn(32) == 0 {
		return maxRRPV - 1
	}
	return maxRRPV
}

// --- SRRIP -----------------------------------------------------------------

// SRRIP is Static RRIP: hits promote to RRPV 0, fills insert at RRPV max-1.
type SRRIP struct {
	state rrpvState
}

// NewSRRIP builds an SRRIP policy.
func NewSRRIP(sets, ways int) *SRRIP {
	p := &SRRIP{state: newRRPVState(sets, ways)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "srrip" }

// Reset implements cache.Resetter.
func (p *SRRIP) Reset() { p.state.reset() }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.state.victim(set)
}

// Update implements cache.Policy.
func (p *SRRIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	if hit {
		p.state.rrpv[set][way] = 0
	} else {
		p.state.rrpv[set][way] = maxRRPV - 1
	}
}

// --- BRRIP -----------------------------------------------------------------

// BRRIP is Bimodal RRIP: fills insert at RRPV max, except with low
// probability (1/32) at max-1, protecting against thrashing workloads.
type BRRIP struct {
	state rrpvState
	rng   xorshift64
}

// NewBRRIP builds a BRRIP policy with a deterministic seed.
func NewBRRIP(sets, ways int, seed uint64) *BRRIP {
	p := &BRRIP{state: newRRPVState(sets, ways), rng: newXorshift(seed)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *BRRIP) Name() string { return "brrip" }

// Reset implements cache.Resetter.
func (p *BRRIP) Reset() {
	p.state.reset()
	p.rng.reset()
}

// Victim implements cache.Policy.
func (p *BRRIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.state.victim(set)
}

// Update implements cache.Policy.
func (p *BRRIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	if hit {
		p.state.rrpv[set][way] = 0
	} else {
		p.state.rrpv[set][way] = bimodalRRPV(&p.rng)
	}
}

// --- DRRIP -----------------------------------------------------------------

// DRRIP dynamically selects between SRRIP (policy A) and BRRIP (policy B)
// insertion using set dueling (setDuel, dip.go): a few leader sets are
// dedicated to each policy and a saturating PSEL counter tracks which
// leader group misses less.
type DRRIP struct {
	state rrpvState
	rng   xorshift64
	duel  setDuel
}

// NewDRRIP builds a DRRIP policy.
func NewDRRIP(sets, ways int, seed uint64) *DRRIP {
	p := &DRRIP{state: newRRPVState(sets, ways), rng: newXorshift(seed)}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "drrip" }

// Reset implements cache.Resetter.
func (p *DRRIP) Reset() {
	p.state.reset()
	p.rng.reset()
	p.duel = newSetDuel()
}

// Victim implements cache.Policy.
func (p *DRRIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.state.victim(set)
}

// Update implements cache.Policy.
func (p *DRRIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	switch {
	case hit:
		p.state.rrpv[set][way] = 0
	case p.duel.missUsesB(set):
		p.state.rrpv[set][way] = bimodalRRPV(&p.rng)
	default:
		p.state.rrpv[set][way] = maxRRPV - 1
	}
}
