package policy

// MPPPB — Multiperspective Placement, Promotion and Bypass (Jiménez & Teran,
// MICRO 2017) — extends the perceptron reuse predictor with a richer,
// offline-selected feature set that looks beyond control flow: besides the
// current PC and an ordered PC history, it hashes address bits, PC⊕address
// combinations, and a coarse time-in-set feature. Prediction drives a
// three-level placement (bypass-equivalent distant / medium / near) and
// promotion on hits.
//
// MPPPB is a model on the perceptron skeleton it shares with Perceptron
// (percRRIP, perceptron.go); this file holds only its features, placement
// and promotion. The feature list below mirrors the *classes* of features
// MPPPB's genetic search selects (the exact genome is workload-tuned in the
// original).

const mpppbFeatures = 8

// mpppbTauLow/High split the prediction range into the three placement
// levels.
const (
	mpppbTauHigh = 20 // above: distant (bypass-equivalent)
	mpppbTauLow  = 2  // below: near
)

// MPPPB is the multiperspective perceptron policy.
type MPPPB struct{ percRRIP }

// NewMPPPB builds the policy.
func NewMPPPB(sets, ways int) *MPPPB {
	p := &MPPPB{}
	p.percRRIP = newPercRRIP(sets, ways, mpppbFeatures, p)
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *MPPPB) Name() string { return "mpppb" }

// features computes the multiperspective feature vector.
func (p *MPPPB) features(f []uint16, pc, block uint64, core uint8) {
	h := &p.hist[core%8]
	page := block >> 6
	f[0] = uint16(hashPC(pc, percTableSize))             // PC
	f[1] = uint16(hashPC(pc>>2, percTableSize))          // PC shifted
	f[2] = uint16(hashPC(h[0]*3, percTableSize))         // last PC
	f[3] = uint16(hashPC(h[1]*5^h[0], percTableSize))    // 2-deep ordered pair
	f[4] = uint16(hashPC(h[2]*7^h[1]*3, percTableSize))  // 3-deep ordered pair
	f[5] = uint16(hashPC(pc^block<<3, percTableSize))    // PC ⊕ address
	f[6] = uint16(hashPC(page, percTableSize))           // page
	f[7] = uint16(hashPC(p.fills>>14^pc, percTableSize)) // coarse phase/time
}

// place is the three-level placement.
func (p *MPPPB) place(sum int) uint8 {
	switch {
	case sum > mpppbTauHigh:
		return maxRRPV
	case sum > mpppbTauLow:
		return maxRRPV - 1
	}
	return 0
}

// promote is prediction-driven too: confident-dead lines are not promoted
// all the way.
func (p *MPPPB) promote(pc, block uint64, core uint8) uint8 {
	var f [mpppbFeatures]uint16
	p.features(f[:], pc, block, core)
	if p.sum(f[:]) > mpppbTauHigh {
		return maxRRPV - 1
	}
	return 0
}
