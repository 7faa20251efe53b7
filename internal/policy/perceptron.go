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

// percFeatures holds Perceptron's per-feature table indices for one access.
type percFeatures [4]uint16

// perceptronCore holds the weight tables shared by Perceptron and MPPPB.
type perceptronCore struct {
	tables [][]int8 // nf × percTableSize
}

func newPerceptronCore(nf int) perceptronCore {
	t := make([][]int8, nf)
	for i := range t {
		t[i] = make([]int8, percTableSize)
	}
	return perceptronCore{tables: t}
}

func (c *perceptronCore) sum(idx []uint16) int {
	s := 0
	for f, i := range idx {
		s += int(c.tables[f][i])
	}
	return s
}

// train moves weights toward dead (+1) or reused (−1) with the perceptron
// threshold rule.
func (c *perceptronCore) train(idx []uint16, dead bool, sum int) {
	y := 1
	if !dead {
		y = -1
	}
	// Update on misprediction or insufficient margin.
	predDead := sum > percTauBypass
	if predDead == dead && abs(sum-percTauBypass) > percTheta {
		return
	}
	for f, i := range idx {
		w := int(c.tables[f][i]) + y
		if w > percWeightMax {
			w = percWeightMax
		}
		if w < percWeightMin {
			w = percWeightMin
		}
		c.tables[f][i] = int8(w)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// percLine is one line's training state in the perceptron policies: the
// feature indices its last demand fill computed, whether a demand fill has
// stored any, and whether the line has been reused since. A writeback fill
// leaves all three as the previous occupant left them.
type percLine[F any] struct {
	feat   F
	filled bool
	reused bool
}

// Perceptron is the online perceptron reuse predictor policy.
type Perceptron struct {
	ways  int
	state rrpvState
	core  perceptronCore
	// Ordered PC history per core.
	hist [8][3]uint64
	// lines is one flat per-cache slab, indexed set*ways+way.
	lines []percLine[percFeatures]
}

// NewPerceptron builds the policy.
func NewPerceptron(sets, ways int) *Perceptron {
	return &Perceptron{
		ways:  ways,
		state: newRRPVState(sets, ways),
		core:  newPerceptronCore(4),
		lines: make([]percLine[percFeatures], sets*ways),
	}
}

// Name implements cache.Policy.
func (p *Perceptron) Name() string { return "perceptron" }

// features builds the ordered-history feature vector: each history position
// is a separate feature, so ordering is baked into the representation.
func (p *Perceptron) features(pc uint64, core uint8) percFeatures {
	h := &p.hist[core%8]
	return percFeatures{
		uint16(hashPC(pc, percTableSize)),
		uint16(hashPC(h[0]*3, percTableSize)),
		uint16(hashPC(h[1]*5, percTableSize)),
		uint16(hashPC(h[2]*7, percTableSize)),
	}
}

func (p *Perceptron) observe(pc uint64, core uint8) {
	h := &p.hist[core%8]
	h[2], h[1], h[0] = h[1], h[0], pc
}

// Victim implements cache.Policy: RRPV victim with dead-on-eviction
// training.
func (p *Perceptron) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := p.state.victim(set)
	if l := &p.lines[set*p.ways+w]; lines[w].Valid && !l.reused && l.filled {
		p.core.train(l.feat[:], true, p.core.sum(l.feat[:]))
	}
	return w
}

// Update implements cache.Policy.
func (p *Perceptron) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
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
		p.state.rrpv[set][way] = 0
		p.observe(pc, core)
		return
	}
	// Fill.
	*l = percLine[percFeatures]{feat: p.features(pc, core), filled: true}
	sum := p.core.sum(l.feat[:])
	if sum > percTauBypass {
		p.state.rrpv[set][way] = maxRRPV
	} else if sum > 0 {
		p.state.rrpv[set][way] = 2
	} else {
		p.state.rrpv[set][way] = 0
	}
	p.observe(pc, core)
}
