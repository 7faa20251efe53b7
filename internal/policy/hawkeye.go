package policy

import (
	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/opt"
	"glider/internal/trace"
)

// Hawkeye (Jain & Lin, ISCA 2016) learns from Belady's optimal solution for
// past accesses: OPTgen reconstructs MIN's decisions on a handful of sampled
// sets, and a table of per-PC saturating counters learns whether each PC's
// loads tend to be cache-friendly or cache-averse. Friendly lines insert at
// RRPV 0, averse lines at RRPV 7; on eviction of a friendly line its
// inserting PC is detrained.

// hawkeyeTableSize is the number of per-PC counters.
const hawkeyeTableSize = 2048

// hawkeyeCounterMax bounds the 5-bit signed counters at [-16, 15].
const hawkeyeCounterMax = 15
const hawkeyeCounterMin = -16

// Hawkeye is the Hawkeye replacement policy.
type Hawkeye struct {
	state    rrpvState
	counters []int8
	sampler  optSampler[uint64] // payload: the previous toucher's PC
	debug    TrainDebug

	// Observability (nil when disabled; see AttachObs).
	obsCounterHist *obs.Histogram
	obsOptVerdicts *obs.Vec
	obsOptOcc      *obs.Histogram
	obsTrainPos    *obs.Counter
	obsTrainNeg    *obs.Counter
}

// AttachObs implements obs.Attacher: per-PC counter confidence at predict
// time, training-event counters, and the sampled sets' OPTgen telemetry.
func (p *Hawkeye) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil {
		return
	}
	p.obsCounterHist = reg.Histogram("hawkeye.predict.counter", obs.LinearBuckets(-16, 4, 9))
	p.obsTrainPos = reg.Counter("hawkeye.train.pos")
	p.obsTrainNeg = reg.Counter("hawkeye.train.neg")
	p.obsOptVerdicts = reg.Vec("hawkeye.optgen.verdict", len(opt.VerdictLabels), opt.VerdictLabels...)
	p.obsOptOcc = reg.Histogram("hawkeye.optgen.utilization", obs.LinearBuckets(0.1, 0.1, 10))
	p.sampler.attachObs(p.obsOptVerdicts, p.obsOptOcc)
}

// TrainDebug counts predictor training and prediction events, exposed for
// tests and diagnostics.
type TrainDebug struct {
	TrainPos, TrainNeg               uint64
	PredictFriendlyN, PredictAverseN uint64
}

// Debug returns the accumulated event counters.
func (p *Hawkeye) Debug() TrainDebug { return p.debug }

// NewHawkeye builds a Hawkeye policy for the given geometry.
func NewHawkeye(sets, ways int) *Hawkeye {
	p := &Hawkeye{
		state:    newRRPVState(sets, ways),
		counters: make([]int8, hawkeyeTableSize),
		sampler:  newOPTSampler[uint64](sets, ways),
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *Hawkeye) Name() string { return "hawkeye" }

// Reset implements cache.Resetter. Attached metrics are configuration and
// stay.
func (p *Hawkeye) Reset() {
	p.state.reset()
	clear(p.counters)
	p.sampler.reset()
	p.debug = TrainDebug{}
}

func (p *Hawkeye) counterIndex(pc uint64, core uint8) int {
	return hashPC(pc^uint64(core)<<57, hawkeyeTableSize)
}

// friendly reports the predictor's decision for the PC.
func (p *Hawkeye) friendly(pc uint64, core uint8) bool {
	return p.counters[p.counterIndex(pc, core)] >= 0
}

// PredictFriendly exposes the prediction for accuracy measurements
// (Figure 10 compares predictor accuracy, not just miss rates).
func (p *Hawkeye) PredictFriendly(pc uint64, core uint8) bool { return p.friendly(pc, core) }

func (p *Hawkeye) train(pc uint64, core uint8, shouldCache bool) {
	i := p.counterIndex(pc, core)
	c := p.counters[i]
	if shouldCache {
		p.debug.TrainPos++
		p.obsTrainPos.Inc()
		if c < hawkeyeCounterMax {
			p.counters[i] = c + 1
		}
	} else {
		p.debug.TrainNeg++
		p.obsTrainNeg.Inc()
		if c > hawkeyeCounterMin {
			p.counters[i] = c - 1
		}
	}
}

// Victim implements cache.Policy: prefer cache-averse lines (RRPV 7); when
// none exists, evict the oldest friendly line and detrain its PC.
func (p *Hawkeye) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim := p.state.oldest(set)
	// A friendly line (RRPV below max) is being forced out: the predictor
	// was wrong about it. Every set is sampled (see optSampler), so
	// detraining here stays at the sampler's rate, as in the paper's
	// hardware.
	if p.state.rrpv[set][victim] < maxRRPV && lines[victim].Valid {
		p.train(lines[victim].PC, lines[victim].Core, false)
	}
	return victim
}

// Update implements cache.Policy.
func (p *Hawkeye) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	// Train from OPTgen for demand accesses.
	if kind != trace.Writeback {
		v, prevPC, found := p.sampler.access(set, block)
		if found {
			switch v {
			case opt.VerdictHit:
				p.train(*prevPC, core, true)
			case opt.VerdictMiss, opt.VerdictExpired:
				p.train(*prevPC, core, false)
			}
		}
		*prevPC = pc
		// Detrain the PCs of lines never re-accessed within the window
		// (the sampler's analog of lines evicted un-reused).
		for _, e := range p.sampler.tick() {
			p.train(e.Val, core, false)
		}
	}
	if way < 0 {
		return
	}
	friendly := p.friendly(pc, core)
	if p.obsCounterHist != nil {
		p.obsCounterHist.Observe(float64(p.counters[p.counterIndex(pc, core)]))
	}
	if kind == trace.Writeback && !hit {
		p.state.rrpv[set][way] = maxRRPV
		return
	}
	if hit {
		if friendly {
			p.state.rrpv[set][way] = 0
		} else {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}
	// Fill. A weakly negative counter inserts at medium priority rather
	// than distant: fully binary insertion discards too many lines whose
	// PCs the sampler has barely seen.
	c := p.counters[p.counterIndex(pc, core)]
	switch {
	case friendly:
		p.state.insertFriendly(set, way)
	case c >= -4:
		p.state.rrpv[set][way] = maxRRPV - 1
	default:
		p.state.rrpv[set][way] = maxRRPV
	}
}
