package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// MPPPB — Multiperspective Placement, Promotion and Bypass (Jiménez & Teran,
// MICRO 2017) — extends the perceptron reuse predictor with a richer,
// offline-selected feature set that looks beyond control flow: besides the
// current PC and an ordered PC history, it hashes address bits, PC⊕address
// combinations, and a coarse time-in-set feature. Prediction drives a
// three-level placement (bypass-equivalent distant / medium / near) and
// promotion on hits.
//
// The feature list below mirrors the *classes* of features MPPPB's genetic
// search selects (the exact genome is workload-tuned in the original).

const mpppbFeatures = 8

// mpppbFeatureSet holds MPPPB's per-feature table indices for one access.
type mpppbFeatureSet [mpppbFeatures]uint16

// MPPPB is the multiperspective perceptron policy.
type MPPPB struct {
	ways  int
	state rrpvState
	core  perceptronCore
	hist  [8][4]uint64 // ordered PC history per core
	// lines is one flat per-cache slab, indexed set*ways+way.
	lines []percLine[mpppbFeatureSet]
	fills uint64
}

// NewMPPPB builds the policy.
func NewMPPPB(sets, ways int) *MPPPB {
	return &MPPPB{
		ways:  ways,
		state: newRRPVState(sets, ways),
		core:  newPerceptronCore(mpppbFeatures),
		lines: make([]percLine[mpppbFeatureSet], sets*ways),
	}
}

// Name implements cache.Policy.
func (p *MPPPB) Name() string { return "mpppb" }

// features computes the multiperspective feature vector.
func (p *MPPPB) features(pc, block uint64, core uint8) mpppbFeatureSet {
	h := &p.hist[core%8]
	page := block >> 6
	return mpppbFeatureSet{
		uint16(hashPC(pc, percTableSize)),             // PC
		uint16(hashPC(pc>>2, percTableSize)),          // PC shifted
		uint16(hashPC(h[0]*3, percTableSize)),         // last PC
		uint16(hashPC(h[1]*5^h[0], percTableSize)),    // 2-deep ordered pair
		uint16(hashPC(h[2]*7^h[1]*3, percTableSize)),  // 3-deep ordered pair
		uint16(hashPC(pc^block<<3, percTableSize)),    // PC ⊕ address
		uint16(hashPC(page, percTableSize)),           // page
		uint16(hashPC(p.fills>>14^pc, percTableSize)), // coarse phase/time
	}
}

func (p *MPPPB) observe(pc uint64, core uint8) {
	h := &p.hist[core%8]
	h[3], h[2], h[1], h[0] = h[2], h[1], h[0], pc
}

// mpppbTauLow/High split the prediction range into the three placement
// levels.
const (
	mpppbTauHigh = 20 // above: distant (bypass-equivalent)
	mpppbTauLow  = 2  // below: near
)

// Victim implements cache.Policy.
func (p *MPPPB) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := p.state.victim(set)
	if l := &p.lines[set*p.ways+w]; lines[w].Valid && !l.reused && l.filled {
		p.core.train(l.feat[:], true, p.core.sum(l.feat[:]))
	}
	return w
}

// Update implements cache.Policy.
func (p *MPPPB) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		if way >= 0 && !hit {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}
	if way < 0 {
		p.observe(pc, core)
		return
	}
	l := &p.lines[set*p.ways+way]
	if hit {
		if !l.reused && l.filled {
			p.core.train(l.feat[:], false, p.core.sum(l.feat[:]))
		}
		l.reused = true
		// Promotion is also prediction-driven in MPPPB: confident-dead
		// lines are not promoted all the way.
		f := p.features(pc, block, core)
		if p.core.sum(f[:]) > mpppbTauHigh {
			p.state.rrpv[set][way] = maxRRPV - 1
		} else {
			p.state.rrpv[set][way] = 0
		}
		p.observe(pc, core)
		return
	}
	// Fill with three-level placement.
	p.fills++
	*l = percLine[mpppbFeatureSet]{feat: p.features(pc, block, core), filled: true}
	sum := p.core.sum(l.feat[:])
	switch {
	case sum > mpppbTauHigh:
		p.state.rrpv[set][way] = maxRRPV
	case sum > mpppbTauLow:
		p.state.rrpv[set][way] = maxRRPV - 1
	default:
		p.state.rrpv[set][way] = 0
	}
	p.observe(pc, core)
}
