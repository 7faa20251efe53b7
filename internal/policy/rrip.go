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
	s := rrpvState{ways: ways, rrpv: make([][]uint8, sets)}
	backing := make([]uint8, sets*ways)
	for i := range backing {
		backing[i] = maxRRPV
	}
	for i := range s.rrpv {
		s.rrpv[i], backing = backing[:ways], backing[ways:]
	}
	return s
}

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

// --- SRRIP -----------------------------------------------------------------

// SRRIP is Static RRIP: hits promote to RRPV 0, fills insert at RRPV max-1.
type SRRIP struct {
	state rrpvState
}

// NewSRRIP builds an SRRIP policy.
func NewSRRIP(sets, ways int) *SRRIP {
	return &SRRIP{state: newRRPVState(sets, ways)}
}

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "srrip" }

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
	return &BRRIP{state: newRRPVState(sets, ways), rng: newXorshift(seed)}
}

// Name implements cache.Policy.
func (p *BRRIP) Name() string { return "brrip" }

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
		return
	}
	if p.rng.intn(32) == 0 {
		p.state.rrpv[set][way] = maxRRPV - 1
	} else {
		p.state.rrpv[set][way] = maxRRPV
	}
}

// --- DRRIP -----------------------------------------------------------------

// DRRIP dynamically selects between SRRIP and BRRIP insertion using set
// dueling: a few leader sets are dedicated to each policy and a saturating
// PSEL counter tracks which leader group misses less.
type DRRIP struct {
	state   rrpvState
	rng     xorshift64
	sets    int
	psel    int
	pselMax int
}

// NewDRRIP builds a DRRIP policy.
func NewDRRIP(sets, ways int, seed uint64) *DRRIP {
	return &DRRIP{
		state:   newRRPVState(sets, ways),
		rng:     newXorshift(seed),
		sets:    sets,
		pselMax: 1023,
		psel:    512,
	}
}

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "drrip" }

// leader classifies a set: 0 = SRRIP leader, 1 = BRRIP leader, -1 follower.
// One leader of each kind per 64 sets, using complementary low bits.
func (p *DRRIP) leader(set int) int {
	switch set % 64 {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return -1
	}
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
	if hit {
		p.state.rrpv[set][way] = 0
		return
	}
	// A miss in a leader set votes against that leader's policy.
	switch p.leader(set) {
	case 0: // SRRIP leader missed: nudge toward BRRIP.
		if p.psel < p.pselMax {
			p.psel++
		}
	case 1: // BRRIP leader missed: nudge toward SRRIP.
		if p.psel > 0 {
			p.psel--
		}
	}
	useBRRIP := false
	switch p.leader(set) {
	case 0:
		useBRRIP = false
	case 1:
		useBRRIP = true
	default:
		useBRRIP = p.psel > p.pselMax/2
	}
	if useBRRIP {
		if p.rng.intn(32) == 0 {
			p.state.rrpv[set][way] = maxRRPV - 1
		} else {
			p.state.rrpv[set][way] = maxRRPV
		}
	} else {
		p.state.rrpv[set][way] = maxRRPV - 1
	}
}
