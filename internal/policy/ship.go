package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// SHiP++ (Young, Jaleel, Qureshi — CRC2 2017) enhances SHiP (Wu et al.,
// MICRO 2011). A Signature History Counter Table (SHCT) indexed by a hashed
// PC signature learns whether lines inserted by that signature are reused:
// on a hit the signature's counter is incremented; when a never-reused line
// is evicted the counter is decremented. Insertion RRPV is chosen from the
// counter: untrusted signatures insert distant, trusted ones insert near.
//
// The ++ refinements modeled here: 3-bit SHCT counters with a
// high-confidence fast path (saturated counter inserts at RRPV 0),
// writebacks insert distant without training, and hits only promote to
// RRPV 0 on the second touch (intermediate promotion to 1).

// shctSize is the number of SHCT entries (14-bit signature in the original;
// sized down proportionally to our 2K-PC workloads).
const shctSize = 16384

// shctMax is the saturating counter maximum (3-bit).
const shctMax = 7

// shipLine is one line's training state.
type shipLine struct {
	sig     uint16 // signature that inserted the line
	reused  bool   // outcome bit: has the line hit since fill?
	touches uint8  // hit count for staged promotion
}

// SHiPPP is the SHiP++ replacement policy.
type SHiPPP struct {
	state rrpvState
	shct  []uint8
	lines [][]shipLine
}

// NewSHiPPP builds a SHiP++ policy.
func NewSHiPPP(sets, ways int) *SHiPPP {
	p := &SHiPPP{
		state: newRRPVState(sets, ways),
		shct:  make([]uint8, shctSize),
		lines: rows[shipLine](sets, ways),
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *SHiPPP) Name() string { return "ship++" }

// Reset implements cache.Resetter.
func (p *SHiPPP) Reset() {
	p.state.reset()
	for i := range p.shct {
		p.shct[i] = 1 // weakly not-reused, as in the reference code
	}
	fillRows(p.lines, shipLine{})
}

func shipSignature(pc uint64) uint16 {
	return uint16(hashPC(pc, shctSize))
}

// Victim implements cache.Policy: standard RRPV victim selection, with
// detraining of never-reused lines.
func (p *SHiPPP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := p.state.victim(set)
	if l := &p.lines[set][w]; lines[w].Valid && !l.reused && p.shct[l.sig] > 0 {
		p.shct[l.sig]--
	}
	return w
}

// Update implements cache.Policy.
func (p *SHiPPP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if way < 0 {
		return
	}
	l := &p.lines[set][way]
	if hit {
		if kind != trace.Writeback {
			if !l.reused && p.shct[l.sig] < shctMax {
				p.shct[l.sig]++
			}
			l.reused = true
			// Staged promotion: first re-touch to RRPV 1, later to 0.
			if l.touches == 0 {
				p.state.rrpv[set][way] = 1
			} else {
				p.state.rrpv[set][way] = 0
			}
			if l.touches < 255 {
				l.touches++
			}
		}
		return
	}
	// Fill.
	s := shipSignature(pc)
	*l = shipLine{sig: s}
	switch {
	case kind == trace.Writeback:
		p.state.rrpv[set][way] = maxRRPV
	case p.shct[s] == 0:
		p.state.rrpv[set][way] = maxRRPV
	case p.shct[s] == shctMax:
		p.state.rrpv[set][way] = 0
	default:
		p.state.rrpv[set][way] = maxRRPV - 1
	}
}
