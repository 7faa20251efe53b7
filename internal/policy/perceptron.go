package policy

import (
	"glider/internal/cache"
	"glider/internal/trace"
)

// Perceptron reuse prediction (Teran, Wang & Jiménez, MICRO 2016). Each
// feature (the current PC and an *ordered* short history of past PCs)
// indexes its own table of small integer weights; the sum of the selected
// weights predicts whether the incoming line will be reused. Lines
// predicted dead insert at distant RRPV. Training is sampler-style: a hit
// trains toward "reused", an eviction without reuse trains toward "dead".
//
// Perceptron and MPPPB (mpppb.go) run on one skeleton, percRRIP: it owns
// the weight tables, the per-line training state, the ordered PC history,
// the dead-on-eviction training in Victim and the writeback, bypass,
// hit-training and fill paths in Update. Each policy supplies only its
// model (percModel): the feature vector, the fill placement and the hit
// promotion.
//
// Contrast with Glider (§2.1): the history here is ordered and short
// (3 PCs), so the same control-flow context fragments across many distinct
// feature values — exactly the weakness the paper's unordered PCHR fixes.

// perceptron weight tables.
const (
	percTableSize = 256
	percWeightMax = 31
	percWeightMin = -32
	percTheta     = 3  // training margin
	percTauBypass = 10 // predict dead when sum exceeds this
)

// percModel is what a perceptron policy adds to the percRRIP skeleton.
type percModel interface {
	// features writes an access's per-feature table indices into f, one
	// per feature, reading the core's PC history before the access.
	features(f []uint16, pc, block uint64, core uint8)
	// place returns a demand fill's RRPV from its weight sum.
	place(sum int) uint8
	// promote returns a demand hit's RRPV.
	promote(pc, block uint64, core uint8) uint8
}

// Flags of a line's training state: a demand fill has stored its feature
// indices, and the line has been reused since. A writeback fill leaves both
// as the previous occupant left them.
const (
	percFilled uint16 = 1 << iota
	percReused
)

// percRRIP is the perceptron-trained RRIP skeleton of Perceptron and MPPPB.
type percRRIP struct {
	ways    int
	nf      int // features per access
	state   rrpvState
	weights []int8 // nf tables of percTableSize weights, feature f's at f*percTableSize
	// lines is the per-line training state in one slab of nf+1 words per
	// line, at (set*ways+way)*(nf+1): the feature indices of the line's
	// last demand fill, then its flags.
	lines []uint16
	hist  [8][3]uint64 // ordered PC history per core, most recent first
	fills uint64       // demand fills so far: MPPPB's coarse time
	model percModel
}

func newPercRRIP(sets, ways, nf int, model percModel) percRRIP {
	return percRRIP{
		ways:    ways,
		nf:      nf,
		state:   newRRPVState(sets, ways),
		weights: make([]int8, nf*percTableSize),
		lines:   make([]uint16, sets*ways*(nf+1)),
		model:   model,
	}
}

// Reset implements cache.Resetter for Perceptron and MPPPB, whose models
// hold no state of their own.
func (p *percRRIP) Reset() {
	p.state.reset()
	clear(p.weights)
	clear(p.lines)
	p.hist = [8][3]uint64{}
	p.fills = 0
}

// line returns the feature indices and the flags of (set, way).
func (p *percRRIP) line(set, way int) (feat []uint16, flags *uint16) {
	i := (set*p.ways + way) * (p.nf + 1)
	l := p.lines[i : i+p.nf+1]
	return l[:p.nf], &l[p.nf]
}

func (p *percRRIP) sum(idx []uint16) int {
	s := 0
	for f, i := range idx {
		s += int(p.weights[f*percTableSize+int(i)])
	}
	return s
}

// train moves weights toward dead (+1) or reused (−1) with the perceptron
// threshold rule.
func (p *percRRIP) train(idx []uint16, dead bool) {
	y := 1
	if !dead {
		y = -1
	}
	// Update on misprediction or insufficient margin.
	sum := p.sum(idx)
	predDead := sum > percTauBypass
	if predDead == dead && abs(sum-percTauBypass) > percTheta {
		return
	}
	for f, i := range idx {
		w := &p.weights[f*percTableSize+int(i)]
		*w = int8(min(max(int(*w)+y, percWeightMin), percWeightMax))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Victim implements cache.Policy: RRPV victim with dead-on-eviction
// training.
func (p *percRRIP) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := p.state.victim(set)
	if feat, flags := p.line(set, w); lines[w].Valid && *flags == percFilled {
		p.train(feat, true)
	}
	return w
}

// Update implements cache.Policy.
func (p *percRRIP) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		if way >= 0 && !hit {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}
	if way >= 0 {
		feat, flags := p.line(set, way)
		if hit {
			if *flags == percFilled {
				p.train(feat, false)
			}
			*flags |= percReused
			p.state.rrpv[set][way] = p.model.promote(pc, block, core)
		} else {
			p.fills++
			p.model.features(feat, pc, block, core)
			*flags = percFilled
			p.state.rrpv[set][way] = p.model.place(p.sum(feat))
		}
	}
	h := &p.hist[core%8]
	h[2], h[1], h[0] = h[1], h[0], pc
}

// Perceptron is the online perceptron reuse predictor policy.
type Perceptron struct{ percRRIP }

// NewPerceptron builds the policy.
func NewPerceptron(sets, ways int) *Perceptron {
	p := &Perceptron{}
	p.percRRIP = newPercRRIP(sets, ways, 4, p)
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *Perceptron) Name() string { return "perceptron" }

// features builds the ordered-history feature vector: each history position
// is a separate feature, so ordering is baked into the representation.
func (p *Perceptron) features(f []uint16, pc, block uint64, core uint8) {
	h := &p.hist[core%8]
	f[0] = uint16(hashPC(pc, percTableSize))
	f[1] = uint16(hashPC(h[0]*3, percTableSize))
	f[2] = uint16(hashPC(h[1]*5, percTableSize))
	f[3] = uint16(hashPC(h[2]*7, percTableSize))
}

// place inserts predicted-dead fills distant, likely-dead ones at RRPV 2
// and the rest near.
func (p *Perceptron) place(sum int) uint8 {
	switch {
	case sum > percTauBypass:
		return maxRRPV
	case sum > 0:
		return 2
	}
	return 0
}

// promote moves every hit to RRPV 0.
func (p *Perceptron) promote(pc, block uint64, core uint8) uint8 { return 0 }
