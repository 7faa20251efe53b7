package policy

import (
	"glider/internal/cache"
	gl "glider/internal/glider"
	"glider/internal/obs"
	"glider/internal/opt"
	"glider/internal/trace"
)

// Glider is the paper's replacement policy: the Hawkeye skeleton (OPTgen
// training on sampled sets, RRPV-based insertion/eviction) with Hawkeye's
// per-PC counters replaced by the ISVM predictor over the unordered PC
// History Register (see the glider package).

// gliderSample remembers what the predictor saw when a block was last
// touched, so OPTgen's later verdict can train the right feature vector:
// the PC and the core's PCHR contents before that access, kept as record
// ref of the history arena.
type gliderSample struct {
	pc  uint64
	ref int32
	n   int32 // PCs in the snapshot: fewer than k while the PCHR fills
}

// histArena holds the PCHR snapshots of Glider's sampler entries, k PCs per
// record, so the sampler's tables stay pointer-free and taking a snapshot
// allocates nothing once the arena has grown to the live entry count.
// Records live in fixed-size chunks, so growing never copies.
type histArena struct {
	k      int
	chunks [][]uint64
	n      int32 // records handed out so far
	free   []int32
}

// histChunk is the number of records per arena chunk.
const histChunk = 1024

// alloc returns an unused record.
func (a *histArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		ref := a.free[n-1]
		a.free = a.free[:n-1]
		return ref
	}
	if int(a.n) == len(a.chunks)*histChunk {
		a.chunks = append(a.chunks, make([]uint64, histChunk*a.k))
	}
	a.n++
	return a.n - 1
}

// reset hands every record back, keeping the chunks: the next alloc
// returns record 0, as in a new arena.
func (a *histArena) reset() {
	a.n = 0
	a.free = a.free[:0]
}

// release returns a record to the free list.
func (a *histArena) release(ref int32) { a.free = append(a.free, ref) }

// record returns ref's k words.
func (a *histArena) record(ref int32) []uint64 {
	off := int(ref%histChunk) * a.k
	return a.chunks[ref/histChunk][off : off+a.k]
}

// store copies history into s's record.
func (a *histArena) store(s *gliderSample, history []uint64) {
	s.n = int32(copy(a.record(s.ref), history))
}

// history returns s's snapshot, valid until its record is stored again.
func (a *histArena) history(s gliderSample) []uint64 {
	return a.record(s.ref)[:s.n]
}

// Glider is the Glider replacement policy.
type Glider struct {
	state     rrpvState
	predictor *gl.Predictor
	sampler   optSampler[gliderSample]
	hist      histArena

	// Observability (nil when disabled; see AttachObs).
	obsSum         *obs.Histogram
	obsClass       *obs.Vec
	obsTrainPos    *obs.Counter
	obsTrainNeg    *obs.Counter
	obsOptVerdicts *obs.Vec
	obsOptOcc      *obs.Histogram
	sink           obs.Sink
}

// NewGlider builds a Glider policy with the paper's default predictor
// configuration, sized for up to 8 cores.
func NewGlider(sets, ways int) *Glider {
	return NewGliderWithConfig(sets, ways, gl.DefaultConfig(8))
}

// NewGliderWithConfig builds a Glider policy with an explicit predictor
// configuration (used by the ablation benchmarks).
func NewGliderWithConfig(sets, ways int, cfg gl.Config) *Glider {
	p := &Glider{
		state:     newRRPVState(sets, ways),
		predictor: gl.NewPredictor(cfg),
		sampler:   newOPTSampler[gliderSample](sets, ways),
		hist:      histArena{k: cfg.HistoryLen},
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *Glider) Name() string { return "glider" }

// Reset implements cache.Resetter: the ISVM weights, PCHRs, sampler and
// history arena all return to their initial state.
func (p *Glider) Reset() {
	p.state.reset()
	p.predictor.Reset()
	p.sampler.reset()
	p.hist.reset()
}

// Predictor exposes the underlying ISVM predictor (for accuracy
// measurements and Table 3 cost reporting).
func (p *Glider) Predictor() *gl.Predictor { return p.predictor }

// AttachObs implements obs.Attacher: predictor confidence (ISVM sum
// distribution and three-way class counts), training-event counters, and
// the sampled sets' OPTgen verdict/occupancy telemetry. Safe to call with
// nil arguments (stays disabled).
func (p *Glider) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsSum = reg.Histogram("glider.predict.sum", obs.LinearBuckets(-120, 30, 9))
	p.obsClass = reg.Vec("glider.predict.class", 3, gl.Averse.String(), gl.FriendlyLowConfidence.String(), gl.Friendly.String())
	p.obsTrainPos = reg.Counter("glider.train.pos")
	p.obsTrainNeg = reg.Counter("glider.train.neg")
	p.obsOptVerdicts = reg.Vec("glider.optgen.verdict", len(opt.VerdictLabels), opt.VerdictLabels...)
	p.obsOptOcc = reg.Histogram("glider.optgen.utilization", obs.LinearBuckets(0.1, 0.1, 10))
	p.sink = sink
	p.sampler.attachObs(p.obsOptVerdicts, p.obsOptOcc)
}

// FlushObs implements obs.Flusher: emits the ISVM weight distribution and
// the most-trained rows as end-of-run events (Fig. 5-style inspection).
func (p *Glider) FlushObs() {
	if p.sink == nil {
		return
	}
	ws := p.predictor.WeightStatsNow()
	samples, pos, neg, skipped := p.predictor.DebugCounts()
	p.sink.Emit("glider", "weights", map[string]any{
		"total": ws.Total, "nonzero": ws.NonZero, "positive": ws.Positive,
		"negative": ws.Negative, "saturated": ws.Saturated,
		"min": ws.Min, "max": ws.Max, "mean_abs": ws.MeanAbs,
		"samples": samples, "train_pos": pos, "train_neg": neg, "train_skipped": skipped,
		"threshold": p.predictor.TrainingThreshold(),
	})
	for _, row := range p.predictor.TopRows(8) {
		p.sink.Emit("glider", "isvm_row", map[string]any{
			"index": row.Index, "l1": row.L1, "weights": row.Weights,
		})
	}
}

// Victim implements cache.Policy: averse lines (RRPV 7) first; otherwise
// the oldest friendly line.
func (p *Glider) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.state.oldest(set)
}

// Update implements cache.Policy.
func (p *Glider) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		if way >= 0 && !hit {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}

	// Feature for this access: the PCHR contents *before* observing pc.
	history := p.predictor.HistoryView(int(core))

	// Train from OPTgen's reconstruction of MIN.
	v, prev, found := p.sampler.access(set, block)
	if found {
		switch v {
		case opt.VerdictHit:
			p.predictor.Train(prev.pc, p.hist.history(*prev), true)
			p.obsTrainPos.Inc()
		case opt.VerdictMiss, opt.VerdictExpired:
			p.predictor.Train(prev.pc, p.hist.history(*prev), false)
			p.obsTrainNeg.Inc()
		}
	} else {
		prev.ref = p.hist.alloc()
	}
	prev.pc = pc
	p.hist.store(prev, history)
	// Detrain entries whose blocks were never re-accessed within the
	// window (never-reused lines are cache-averse), in the sampler's
	// deterministic order.
	for _, e := range p.sampler.tick() {
		p.predictor.Train(e.Val.pc, p.hist.history(e.Val), false)
		p.obsTrainNeg.Inc()
		p.hist.release(e.Val.ref)
	}

	sum, class := p.predictor.Predict(pc, history)
	if p.obsSum != nil {
		p.obsSum.Observe(float64(sum))
		p.obsClass.Inc(int(class))
	}
	p.predictor.Observe(int(core), pc)

	if way < 0 {
		return
	}
	if hit {
		switch class {
		case gl.Averse:
			p.state.rrpv[set][way] = maxRRPV
		default:
			p.state.rrpv[set][way] = 0
		}
		return
	}
	// Fill: insertion priority from the three-way prediction (§4.4).
	switch class {
	case gl.Friendly:
		p.state.insertFriendly(set, way)
	case gl.FriendlyLowConfidence:
		p.state.rrpv[set][way] = 2
	default:
		p.state.rrpv[set][way] = maxRRPV
	}
}

// PredictFriendly reports whether the predictor would classify an access as
// cache-friendly (ISVM sum at or above the averse boundary), without
// touching any state — the binary classification Figure 10's accuracy
// comparison is defined over.
func (p *Glider) PredictFriendly(pc uint64, core uint8) bool {
	sum := p.predictor.Sum(pc, p.predictor.HistoryView(int(core)))
	return sum >= p.predictor.Config().AverseThreshold
}
