package policy

// reference_test.go keeps the map-based samplers Hawkeye, Glider, FRD and MSA
// used before their samplers moved onto opt.Table, verbatim apart from
// renaming, together with the map-based OPTgen they trained from. FRD and MSA
// also mirror the two obs changes the shared reuse-distance core brought:
// FRD counts top-k hits at k = 1, and MSA's predict.bucket histogram records
// the predicted bucket. The reference wall (reference_wall_test.go) replays
// real LLC streams through each policy and its reference and requires
// identical victims, statistics, counters, model rows and obs snapshots.
// It also keeps LRFU as it was before its decay table, calling math.Pow on
// every value, for TestLRFUMatchesReference.

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"glider/internal/cache"
	gl "glider/internal/glider"
	"glider/internal/obs"
	"glider/internal/opt"
	"glider/internal/trace"
	"glider/internal/workload"
)

// NewReference builds the reference of a policy: the map-based reference
// of hawkeye, glider, frd or msa, or lrfu without its decay table.
func NewReference(name string, sets, ways int) (cache.Policy, bool) {
	switch name {
	case "lrfu":
		return newRefLRFU(sets, ways, 0.001), true
	case "hawkeye":
		return newRefHawkeye(sets, ways), true
	case "glider":
		return newRefGlider(sets, ways), true
	case "frd":
		return newRefFRD(sets, ways), true
	case "msa":
		return newRefMSA(sets, ways), true
	}
	return nil, false
}

// ReferenceOPTgenCollected returns how many entries the OPTgen garbage
// collector of a reference hawkeye or glider has removed.
func ReferenceOPTgenCollected(p cache.Policy) int {
	n := 0
	switch p := p.(type) {
	case *refHawkeye:
		for _, s := range p.samplers {
			n += s.optgen.collected
		}
	case *refGlider:
		for _, s := range p.samplers {
			n += s.optgen.collected
		}
	}
	return n
}

// refSamplerStride and refHawkeyeDetrainOnEvict are the map-based
// Hawkeye's sampling stride and detrain toggle, at the only values it ran
// with.
const refSamplerStride = 1

const refHawkeyeDetrainOnEvict = true

// refOPTgen is opt.OPTgen with its block map.
type refOPTgen struct {
	ways      int
	window    int
	occupancy []uint8
	clock     uint64 // absolute per-set access count
	last      map[uint64]uint64
	collected int // entries the GC removed (the wall's non-vacuity check)

	// Observability (nil when disabled; see AttachObs).
	obsVerdicts *obs.Vec
	obsOcc      *obs.Histogram
}

// AttachObs publishes this instance's verdict counts and occupancy-vector
// utilization into shared metrics (typically one pair shared by every
// sampled set of a policy). Nil arguments leave observability disabled.
func (g *refOPTgen) AttachObs(verdicts *obs.Vec, occupancy *obs.Histogram) {
	g.obsVerdicts = verdicts
	g.obsOcc = occupancy
}

// utilization returns the mean occupancy over the history window as a
// fraction of associativity — how full MIN's reconstructed cache is. Only
// computed when observability is attached.
func (g *refOPTgen) utilization() float64 {
	total := 0
	for _, o := range g.occupancy {
		total += int(o)
	}
	return float64(total) / float64(len(g.occupancy)*g.ways)
}

// newRefOPTgen creates an refOPTgen instance for a set with the given
// associativity and history window (in set accesses). A window of 0 selects
// the Hawkeye default of 8× associativity.
func newRefOPTgen(ways, window int) *refOPTgen {
	if window <= 0 {
		window = opt.DefaultWindowFactor * ways
	}
	return &refOPTgen{
		ways:      ways,
		window:    window,
		occupancy: make([]uint8, window),
		last:      make(map[uint64]uint64, window),
	}
}

// Access records one access to the set and returns MIN's reconstructed
// outcome for it.
func (g *refOPTgen) Access(block uint64) opt.Verdict {
	t2 := g.clock
	verdict := opt.VerdictCold
	if t1, ok := g.last[block]; ok {
		if t2-t1 >= uint64(g.window) {
			verdict = opt.VerdictExpired
		} else {
			// Check capacity over [t1, t2).
			fits := true
			for t := t1; t < t2; t++ {
				if g.occupancy[t%uint64(g.window)] >= uint8(g.ways) {
					fits = false
					break
				}
			}
			if fits {
				for t := t1; t < t2; t++ {
					g.occupancy[t%uint64(g.window)]++
				}
				verdict = opt.VerdictHit
			} else {
				verdict = opt.VerdictMiss
			}
		}
	}
	if g.obsVerdicts != nil || g.obsOcc != nil {
		g.obsVerdicts.Inc(int(verdict))
		g.obsOcc.Observe(g.utilization())
	}
	g.occupancy[t2%uint64(g.window)] = 0
	g.last[block] = t2
	g.clock++
	// Garbage-collect stale entries occasionally so the map stays bounded.
	if len(g.last) > 4*g.window && g.clock%uint64(g.window) == 0 {
		for b, t := range g.last {
			if t2-t >= uint64(g.window) {
				delete(g.last, b)
				g.collected++
			}
		}
	}
	return verdict
}

// Clock returns the number of accesses observed.
func (g *refOPTgen) Clock() uint64 { return g.clock }

// refHawkeyeSample records who last touched a block in a sampled set.
type refHawkeyeSample struct {
	pc   uint64
	time uint64
}

// refHawkeyeSampler is the per-sampled-set training state.
type refHawkeyeSampler struct {
	optgen *refOPTgen
	last   map[uint64]refHawkeyeSample // block → previous toucher
}

func newRefHawkeyeSampler(ways int) *refHawkeyeSampler {
	return &refHawkeyeSampler{
		optgen: newRefOPTgen(ways, optgenWindowFactor*ways),
		last:   make(map[uint64]refHawkeyeSample, optgenWindowFactor*ways),
	}
}

// sweep detrains and discards sampler entries whose blocks were never
// re-accessed within the OPTgen window — the analog of refHawkeye detraining
// lines evicted un-reused from its sampler.
func (s *refHawkeyeSampler) sweep(window uint64, train func(pc uint64)) {
	now := s.optgen.Clock()
	for b, e := range s.last {
		if now-e.time > window {
			train(e.pc)
			delete(s.last, b)
		}
	}
}

// refHawkeye is the refHawkeye replacement policy.
type refHawkeye struct {
	ways     int
	state    rrpvState
	counters []int8
	samplers map[int]*refHawkeyeSampler
	accesses uint64
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
func (p *refHawkeye) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil {
		return
	}
	p.obsCounterHist = reg.Histogram("hawkeye.predict.counter", obs.LinearBuckets(-16, 4, 9))
	p.obsTrainPos = reg.Counter("hawkeye.train.pos")
	p.obsTrainNeg = reg.Counter("hawkeye.train.neg")
	p.obsOptVerdicts = reg.Vec("hawkeye.optgen.verdict", len(opt.VerdictLabels), opt.VerdictLabels...)
	p.obsOptOcc = reg.Histogram("hawkeye.optgen.utilization", obs.LinearBuckets(0.1, 0.1, 10))
	for _, s := range p.samplers {
		s.optgen.AttachObs(p.obsOptVerdicts, p.obsOptOcc)
	}
}

// Debug returns the accumulated event counters.
func (p *refHawkeye) Debug() TrainDebug { return p.debug }

// newRefHawkeye builds a refHawkeye policy for the given geometry.
func newRefHawkeye(sets, ways int) *refHawkeye {
	return &refHawkeye{
		ways:     ways,
		state:    newRRPVState(sets, ways),
		counters: make([]int8, hawkeyeTableSize),
		samplers: make(map[int]*refHawkeyeSampler),
	}
}

// Name implements cache.Policy.
func (p *refHawkeye) Name() string { return "hawkeye" }

func (p *refHawkeye) counterIndex(pc uint64, core uint8) int {
	return hashPC(pc^uint64(core)<<57, hawkeyeTableSize)
}

// friendly reports the predictor's decision for the PC.
func (p *refHawkeye) friendly(pc uint64, core uint8) bool {
	return p.counters[p.counterIndex(pc, core)] >= 0
}

// PredictFriendly exposes the prediction for accuracy measurements
// (Figure 10 compares predictor accuracy, not just miss rates).
func (p *refHawkeye) PredictFriendly(pc uint64, core uint8) bool { return p.friendly(pc, core) }

func (p *refHawkeye) train(pc uint64, core uint8, shouldCache bool) {
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

// sampled returns the training state for a sampled set, or nil.
func (p *refHawkeye) sampled(set int) *refHawkeyeSampler {
	if set%refSamplerStride != 0 {
		return nil
	}
	s, ok := p.samplers[set]
	if !ok {
		s = newRefHawkeyeSampler(p.ways)
		s.optgen.AttachObs(p.obsOptVerdicts, p.obsOptOcc)
		p.samplers[set] = s
	}
	return s
}

// Victim implements cache.Policy: prefer cache-averse lines (RRPV 7); when
// none exists, evict the oldest friendly line and detrain its PC.
func (p *refHawkeye) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	for w := range lines {
		if p.state.rrpv[set][w] >= maxRRPV {
			return w
		}
	}
	victim, oldest := 0, uint8(0)
	for w := range lines {
		if p.state.rrpv[set][w] >= oldest {
			oldest = p.state.rrpv[set][w]
			victim = w
		}
	}
	// A friendly line is being forced out: the predictor was wrong about
	// it. Detrain, but only at the sampler's rate — detraining on every
	// set would swamp the OPTgen-derived signal (the paper's hardware
	// trains predictor state exclusively from sampled sets).
	if refHawkeyeDetrainOnEvict && lines[victim].Valid && set%refSamplerStride == 0 {
		p.train(lines[victim].PC, lines[victim].Core, false)
	}
	return victim
}

// Update implements cache.Policy.
func (p *refHawkeye) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	// Train on sampled sets for demand accesses.
	if kind != trace.Writeback {
		if s := p.sampled(set); s != nil {
			switch s.optgen.Access(block) {
			case opt.VerdictHit:
				if prev, ok := s.last[block]; ok {
					p.train(prev.pc, core, true)
				}
			case opt.VerdictMiss, opt.VerdictExpired:
				if prev, ok := s.last[block]; ok {
					p.train(prev.pc, core, false)
				}
			}
			s.last[block] = refHawkeyeSample{pc: pc, time: s.optgen.Clock()}
		}
		p.accesses++
		if p.accesses%sweepPeriod == 0 {
			window := uint64(optgenWindowFactor * p.ways)
			for _, s := range p.samplers {
				s.sweep(window, func(stale uint64) { p.train(stale, core, false) })
			}
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
		p.state.rrpv[set][way] = 0
		// Age everyone else so stale friendly lines eventually expire.
		for w := range p.state.rrpv[set] {
			if w != way && p.state.rrpv[set][w] < maxRRPV-1 {
				p.state.rrpv[set][w]++
			}
		}
	case c >= -4:
		p.state.rrpv[set][way] = maxRRPV - 1
	default:
		p.state.rrpv[set][way] = maxRRPV
	}
}

// refGliderSample remembers what the predictor saw when a block was last
// touched, so OPTgen's later verdict can train the right feature vector.
type refGliderSample struct {
	pc      uint64
	history []uint64
	time    uint64
}

// refGliderSampler is the per-sampled-set training state.
type refGliderSampler struct {
	optgen *refOPTgen
	last   map[uint64]refGliderSample
}

func newRefGliderSampler(ways int) *refGliderSampler {
	return &refGliderSampler{
		optgen: newRefOPTgen(ways, optgenWindowFactor*ways),
		last:   make(map[uint64]refGliderSample, optgenWindowFactor*ways),
	}
}

// refGlider is the refGlider replacement policy.
type refGlider struct {
	ways      int
	state     rrpvState
	predictor *gl.Predictor
	samplers  map[int]*refGliderSampler
	accesses  uint64

	// Observability (nil when disabled; see AttachObs).
	obsSum         *obs.Histogram
	obsClass       *obs.Vec
	obsTrainPos    *obs.Counter
	obsTrainNeg    *obs.Counter
	obsOptVerdicts *obs.Vec
	obsOptOcc      *obs.Histogram
	sink           obs.Sink
}

// newRefGlider builds a refGlider policy with the paper's default predictor
// configuration, sized for up to 8 cores.
func newRefGlider(sets, ways int) *refGlider {
	return newRefGliderWithConfig(sets, ways, gl.DefaultConfig(8))
}

// newRefGliderWithConfig builds a refGlider policy with an explicit predictor
// configuration (used by the ablation benchmarks).
func newRefGliderWithConfig(sets, ways int, cfg gl.Config) *refGlider {
	return &refGlider{
		ways:      ways,
		state:     newRRPVState(sets, ways),
		predictor: gl.NewPredictor(cfg),
		samplers:  make(map[int]*refGliderSampler),
	}
}

// Name implements cache.Policy.
func (p *refGlider) Name() string { return "glider" }

// Predictor exposes the underlying ISVM predictor (for accuracy
// measurements and Table 3 cost reporting).
func (p *refGlider) Predictor() *gl.Predictor { return p.predictor }

// AttachObs implements obs.Attacher: predictor confidence (ISVM sum
// distribution and three-way class counts), training-event counters, and
// the sampled sets' OPTgen verdict/occupancy telemetry. Safe to call with
// nil arguments (stays disabled).
func (p *refGlider) AttachObs(reg *obs.Registry, sink obs.Sink) {
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
	for _, s := range p.samplers {
		s.optgen.AttachObs(p.obsOptVerdicts, p.obsOptOcc)
	}
}

// FlushObs implements obs.Flusher: emits the ISVM weight distribution and
// the most-trained rows as end-of-run events (Fig. 5-style inspection).
func (p *refGlider) FlushObs() {
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

func (p *refGlider) sampled(set int) *refGliderSampler {
	if set%refSamplerStride != 0 {
		return nil
	}
	s, ok := p.samplers[set]
	if !ok {
		s = newRefGliderSampler(p.ways)
		s.optgen.AttachObs(p.obsOptVerdicts, p.obsOptOcc)
		p.samplers[set] = s
	}
	return s
}

// Victim implements cache.Policy: averse lines (RRPV 7) first; otherwise
// the oldest friendly line, detraining the features that inserted it.
func (p *refGlider) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	for w := range lines {
		if p.state.rrpv[set][w] >= maxRRPV {
			return w
		}
	}
	victim, oldest := 0, uint8(0)
	for w := range lines {
		if p.state.rrpv[set][w] >= oldest {
			oldest = p.state.rrpv[set][w]
			victim = w
		}
	}
	return victim
}

// Update implements cache.Policy.
func (p *refGlider) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		if way >= 0 && !hit {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}

	// Feature for this access: the PCHR contents *before* observing pc.
	history := p.predictor.History(int(core))

	// Train on sampled sets from OPTgen's reconstruction of MIN.
	if s := p.sampled(set); s != nil {
		switch s.optgen.Access(block) {
		case opt.VerdictHit:
			if prev, ok := s.last[block]; ok {
				p.predictor.Train(prev.pc, prev.history, true)
				p.obsTrainPos.Inc()
			}
		case opt.VerdictMiss, opt.VerdictExpired:
			if prev, ok := s.last[block]; ok {
				p.predictor.Train(prev.pc, prev.history, false)
				p.obsTrainNeg.Inc()
			}
		}
		s.last[block] = refGliderSample{pc: pc, history: history, time: s.optgen.Clock()}
	}
	p.accesses++
	if p.accesses%sweepPeriod == 0 {
		// Detrain entries whose blocks were never re-accessed within the
		// window (never-reused lines are cache-averse). Swept on a global
		// cadence; see sweepPeriod. ISVM training is order-sensitive (the
		// adaptive threshold and sum-dependent skips make Train calls
		// non-commutative), so the sweep iterates samplers and expired
		// blocks in sorted order — map-range order here would make whole
		// simulations nondeterministic.
		window := uint64(optgenWindowFactor * p.ways)
		sets := make([]int, 0, len(p.samplers))
		for set := range p.samplers {
			sets = append(sets, set)
		}
		sort.Ints(sets)
		var expired []uint64
		for _, set := range sets {
			s := p.samplers[set]
			now := s.optgen.Clock()
			expired = expired[:0]
			for b, e := range s.last {
				if now-e.time > window {
					expired = append(expired, b)
				}
			}
			sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
			for _, b := range expired {
				e := s.last[b]
				p.predictor.Train(e.pc, e.history, false)
				p.obsTrainNeg.Inc()
				delete(s.last, b)
			}
		}
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
		p.state.rrpv[set][way] = 0
		for w := range p.state.rrpv[set] {
			if w != way && p.state.rrpv[set][w] < maxRRPV-1 {
				p.state.rrpv[set][w]++
			}
		}
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
func (p *refGlider) PredictFriendly(pc uint64, core uint8) bool {
	sum := p.predictor.Sum(pc, p.predictor.History(int(core)))
	return sum >= p.predictor.Config().AverseThreshold
}

// refFRDSample is one sampler record: which PC touched a block in a sampled
// set, when, and what the model predicted at that moment. Training recomputes
// features at observation time — stepping weights against a stale snapshot
// overcorrects badly when many same-context samples resolve back-to-back —
// but the snapshot prediction is kept to score the quality metrics against
// what the eviction logic actually used.
type refFRDSample struct {
	pred int16
	pc   uint64
	time uint64
}

type refFRDSampler struct {
	last map[uint64]refFRDSample
}

// refFRD is the forward reuse-distance regressor policy.
type refFRD struct {
	sets, ways int
	capacity   uint64
	clock      uint64 // demand accesses completed
	window     uint64
	next       []uint64 // predicted absolute next-use time per line
	model      ReusePredictor
	learn      *frdRegressor // nil when an external model is injected
	samplers   map[int]*refFRDSampler
	pcErr      map[uint64]*pcErrStat
	debug      ReuseDebug

	// Observability (nil when disabled; see AttachObs).
	obsPred   *obs.Histogram
	obsErr    *obs.Histogram
	obsTrain  *obs.Counter
	obsTopK   *obs.Counter
	obsExpire *obs.Counter
	obsBypass *obs.Counter
	sink      obs.Sink
}

// newRefFRD builds the learned refFRD policy for the given geometry.
func newRefFRD(sets, ways int) *refFRD {
	p := newRefFRDShell(sets, ways)
	p.learn = newFRDRegressor()
	p.model = p.learn
	return p
}

// NewFRDWithPredictor builds an refFRD policy around an injected model — the

func newRefFRDShell(sets, ways int) *refFRD {
	return &refFRD{
		sets:     sets,
		ways:     ways,
		capacity: uint64(sets * ways),
		window:   uint64(reuseWindowFactor * sets * ways),
		next:     make([]uint64, sets*ways),
		samplers: make(map[int]*refFRDSampler),
		pcErr:    make(map[uint64]*pcErrStat),
	}
}

// Name implements cache.Policy.
func (p *refFRD) Name() string { return "frd" }

// Debug returns the accumulated counters.
func (p *refFRD) Debug() ReuseDebug { return p.debug }

// AttachObs implements obs.Attacher: predicted-bucket and training-error
// histograms plus event counters.
func (p *refFRD) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsPred = reg.Histogram("frd.predict.bucket", obs.LinearBuckets(0, 4, 11))
	p.obsErr = reg.Histogram("frd.train.err", obs.LinearBuckets(-8, 2, 9))
	p.obsTrain = reg.Counter("frd.train.events")
	p.obsTopK = reg.Counter("frd.train.topk_hits")
	p.obsExpire = reg.Counter("frd.train.expiries")
	p.obsBypass = reg.Counter("frd.evict.bypass")
	p.sink = sink
}

// FlushObs implements obs.Flusher: emits the per-PC prediction-error
// histogram rows (hottest PCs first) as end-of-run events.
func (p *refFRD) FlushObs() {
	if p.sink == nil {
		return
	}
	p.sink.Emit("frd", "summary", map[string]any{
		"k": 1, "train_events": p.debug.TrainEvents,
		"expiries": p.debug.Expiries, "bypasses": p.debug.Bypasses,
		"mean_abs_err": p.debug.MeanAbsErr(), "topk_accuracy": p.debug.TopKAccuracy(),
	})
	for _, row := range p.TopModelRows(16) {
		p.sink.Emit("frd", "pc_error", map[string]any{
			"pc": row.PC, "samples": row.Samples, "mean_abs_err": row.MeanAbsErr,
			"err_hist": row.ErrHist, "predicted_buckets": row.Predicted,
		})
	}
}

// recordErr accumulates one training error and the top-k hit bit globally
// and per PC.
func (p *refFRD) recordErr(pc uint64, err int, topkHit bool) {
	abs := err
	if abs < 0 {
		abs = -abs
	}
	p.debug.TrainEvents++
	p.debug.SumAbsErr += uint64(abs)
	p.debug.SumErr += int64(err)
	if topkHit {
		p.debug.TopKHits++
		p.obsTopK.Inc()
	}
	p.obsTrain.Inc()
	p.obsErr.Observe(float64(err))
	s, ok := p.pcErr[pc]
	if !ok {
		if len(p.pcErr) >= reuseMaxTrackedPCs {
			return
		}
		s = &pcErrStat{}
		p.pcErr[pc] = s
	}
	s.n++
	s.sumAbs += uint64(abs)
	s.hist[clampInt(err, -4, 4)+4]++
}

// TopModelRows implements ModelIntrospector: the n most-trained PCs'
// error histograms and current predictions, ordered by sample count
// descending (PC ascending on ties).
func (p *refFRD) TopModelRows(n int) []ModelRow {
	pcs := make([]uint64, 0, len(p.pcErr))
	for pc := range p.pcErr {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		si, sj := p.pcErr[pcs[i]], p.pcErr[pcs[j]]
		if si.n != sj.n {
			return si.n > sj.n
		}
		return pcs[i] < pcs[j]
	})
	if n >= 0 && len(pcs) > n {
		pcs = pcs[:n]
	}
	rows := make([]ModelRow, 0, len(pcs))
	for _, pc := range pcs {
		s := p.pcErr[pc]
		row := ModelRow{
			PC:         pc,
			Samples:    s.n,
			MeanAbsErr: float64(s.sumAbs) / float64(s.n),
			ErrHist:    append([]uint64(nil), s.hist[:]...),
		}
		if p.learn != nil {
			row.Predicted = []int{int(p.learn.features(pc).pred)}
		}
		rows = append(rows, row)
	}
	return rows
}

// PredictFriendly implements the friendly/averse predictor interface: an
// access is friendly when its predicted forward reuse distance fits inside
// the cache capacity.
func (p *refFRD) PredictFriendly(pc uint64, core uint8) bool {
	var d [1]uint64
	p.model.PredictReuse(pc, 0, d[:])
	return d[0] < p.capacity
}

// Victim implements cache.Policy with the MIN decision rule over predicted
// absolute next-use times: evict the line predicted furthest, preferring
// expired lines (predicted reuse time already passed — the prediction was
// wrong and the line is presumed dead); bypass the incoming line when no
// resident is predicted strictly further than it.
func (p *refFRD) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	var d [1]uint64
	p.model.PredictReuse(pc, block, d[:])
	furthest := satAdd(p.clock, d[0])
	victim := cache.Bypass
	base := set * p.ways
	for w := range lines {
		eff := p.next[base+w]
		if eff <= p.clock {
			eff = ^uint64(0) // expired: presumed dead, evict first
		}
		if eff > furthest {
			furthest = eff
			victim = w
		}
	}
	if victim == cache.Bypass {
		p.debug.Bypasses++
		p.obsBypass.Inc()
	}
	return victim
}

// Update implements cache.Policy: train the regressor from observed reuse
// distances on sampled sets, then stamp the touched line with its freshly
// predicted absolute next-use time.
func (p *refFRD) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		// Writeback fills carry no reuse signal: mark them expired
		// (evict-first) and leave the clock and trainer untouched.
		if way >= 0 && !hit {
			p.next[set*p.ways+way] = p.clock
		}
		return
	}
	var dist uint64
	if p.learn != nil {
		p.trainSampled(set, pc, block)
		f := p.learn.features(pc)
		p.obsPred.Observe(float64(f.pred))
		dist = bucketDist(int(f.pred))
	} else {
		var d [1]uint64
		p.model.PredictReuse(pc, block, d[:])
		dist = d[0]
	}
	if way >= 0 {
		p.next[set*p.ways+way] = satAdd(p.clock, dist)
	}
	p.clock++
	if p.learn != nil && p.clock%sweepPeriod == 0 {
		p.sweep()
	}
}

// trainSampled records this access in the set's sampler and, when the block
// was seen before, trains the regressor on the observed reuse distance.
func (p *refFRD) trainSampled(set int, pc, block uint64) {
	s, ok := p.samplers[set]
	if !ok {
		s = &refFRDSampler{last: make(map[uint64]refFRDSample, reuseWindowFactor*p.ways)}
		p.samplers[set] = s
	}
	if prev, ok := s.last[block]; ok {
		target := reuseBucket(p.clock - prev.time)
		err := target - int(prev.pred)
		p.recordErr(prev.pc, err, err >= -1 && err <= 1)
		p.learn.train(p.learn.features(prev.pc), target)
		p.learn.observe(prev.pc, uint8(target))
	}
	s.last[block] = refFRDSample{pred: p.learn.features(pc).pred, pc: pc, time: p.clock}
}

// sweep detrains sampler records whose blocks were never re-accessed within
// the window: their true reuse distance is "beyond window", so they train
// toward one bucket past it. Like Glider's detrain sweep, iteration is
// sorted — regression updates are order-sensitive, and map-range order here
// would make whole simulations nondeterministic.
func (p *refFRD) sweep() {
	beyond := reuseBucket(p.window) + 1
	if beyond > reuseMaxBucket {
		beyond = reuseMaxBucket
	}
	sets := make([]int, 0, len(p.samplers))
	for set := range p.samplers {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	var expired []uint64
	for _, set := range sets {
		s := p.samplers[set]
		expired = expired[:0]
		for b, e := range s.last {
			if p.clock-e.time > p.window {
				expired = append(expired, b)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, b := range expired {
			e := s.last[b]
			p.learn.train(p.learn.features(e.pc), beyond)
			p.learn.observe(e.pc, uint8(beyond))
			p.debug.Expiries++
			p.obsExpire.Inc()
			delete(s.last, b)
		}
	}
}

// refMSASample is one sampler record: the k buckets predicted for a block when
// it was last touched in a sampled set.
type refMSASample struct {
	pred [reuseMaxSteps]uint8
	pc   uint64
	time uint64
}

type refMSASampler struct {
	last map[uint64]refMSASample
}

// refMSA is the multi-step-ahead eviction policy.
type refMSA struct {
	sets, ways int
	k          int
	capacity   uint64
	clock      uint64
	window     uint64
	rank       []uint64 // sets × ways × k predicted absolute reuse times
	model      ReusePredictor
	learn      *msaModel // nil when an external model is injected
	samplers   map[int]*refMSASampler
	pcErr      map[uint64]*pcErrStat
	debug      ReuseDebug

	// Observability (nil when disabled; see AttachObs).
	obsPred   *obs.Histogram
	obsErr    *obs.Histogram
	obsTrain  *obs.Counter
	obsTopK   *obs.Counter
	obsExpire *obs.Counter
	obsBypass *obs.Counter
	sink      obs.Sink
}

// newRefMSA builds the learned refMSA policy with the default prediction depth.
func newRefMSA(sets, ways int) *refMSA { return newRefMSAK(sets, ways, msaDefaultSteps) }

// newRefMSAK builds the learned refMSA policy predicting k steps ahead
// (1 ≤ k ≤ reuseMaxSteps; out-of-range k is clamped).
func newRefMSAK(sets, ways, k int) *refMSA {
	p := newRefMSAShell(sets, ways, k)
	p.learn = newMSAModel()
	p.model = p.learn
	return p
}

// NewMSAWithPredictor builds an refMSA policy around an injected model — the

func newRefMSAShell(sets, ways, k int) *refMSA {
	k = clampInt(k, 1, reuseMaxSteps)
	return &refMSA{
		sets:     sets,
		ways:     ways,
		k:        k,
		capacity: uint64(sets * ways),
		window:   uint64(reuseWindowFactor * sets * ways),
		rank:     make([]uint64, sets*ways*k),
		samplers: make(map[int]*refMSASampler),
		pcErr:    make(map[uint64]*pcErrStat),
	}
}

// Name implements cache.Policy.
func (p *refMSA) Name() string { return "msa" }

// Steps returns the configured prediction depth k.
func (p *refMSA) Steps() int { return p.k }

// Debug returns the accumulated counters.
func (p *refMSA) Debug() ReuseDebug { return p.debug }

// AttachObs implements obs.Attacher.
func (p *refMSA) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsPred = reg.Histogram("msa.predict.bucket", obs.LinearBuckets(0, 4, 11))
	p.obsErr = reg.Histogram("msa.train.err", obs.LinearBuckets(-8, 2, 9))
	p.obsTrain = reg.Counter("msa.train.events")
	p.obsTopK = reg.Counter("msa.train.topk_hits")
	p.obsExpire = reg.Counter("msa.train.expiries")
	p.obsBypass = reg.Counter("msa.evict.bypass")
	p.sink = sink
}

// FlushObs implements obs.Flusher: per-PC prediction-error rows plus a
// summary, mirroring FRD.
func (p *refMSA) FlushObs() {
	if p.sink == nil {
		return
	}
	p.sink.Emit("msa", "summary", map[string]any{
		"k": p.k, "train_events": p.debug.TrainEvents,
		"expiries": p.debug.Expiries, "bypasses": p.debug.Bypasses,
		"mean_abs_err": p.debug.MeanAbsErr(), "topk_accuracy": p.debug.TopKAccuracy(),
	})
	for _, row := range p.TopModelRows(16) {
		p.sink.Emit("msa", "pc_error", map[string]any{
			"pc": row.PC, "samples": row.Samples, "mean_abs_err": row.MeanAbsErr,
			"err_hist": row.ErrHist, "predicted_buckets": row.Predicted,
		})
	}
}

// TopModelRows implements ModelIntrospector (see FRD.TopModelRows); the
// Predicted column holds all k step buckets.
func (p *refMSA) TopModelRows(n int) []ModelRow {
	pcs := make([]uint64, 0, len(p.pcErr))
	for pc := range p.pcErr {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		si, sj := p.pcErr[pcs[i]], p.pcErr[pcs[j]]
		if si.n != sj.n {
			return si.n > sj.n
		}
		return pcs[i] < pcs[j]
	})
	if n >= 0 && len(pcs) > n {
		pcs = pcs[:n]
	}
	rows := make([]ModelRow, 0, len(pcs))
	for _, pc := range pcs {
		s := p.pcErr[pc]
		row := ModelRow{
			PC:         pc,
			Samples:    s.n,
			MeanAbsErr: float64(s.sumAbs) / float64(s.n),
			ErrHist:    append([]uint64(nil), s.hist[:]...),
		}
		if p.learn != nil {
			var bk [reuseMaxSteps]uint8
			p.learn.predictBuckets(pc, bk[:p.k])
			row.Predicted = make([]int, p.k)
			for j := 0; j < p.k; j++ {
				row.Predicted[j] = int(bk[j])
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// PredictFriendly reports whether pc's predicted first reuse fits inside
// the cache capacity.
func (p *refMSA) PredictFriendly(pc uint64, core uint8) bool {
	var d [1]uint64
	p.model.PredictReuse(pc, 0, d[:1])
	return d[0] < p.capacity
}

// Victim implements cache.Policy: rank every resident schedule against the
// incoming access's predicted schedule; evict the greatest, or bypass when
// the incoming line itself ranks greatest.
func (p *refMSA) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	var incBuf [reuseMaxSteps]uint64
	inc := incBuf[:p.k]
	p.model.PredictReuse(pc, block, inc)
	for j := range inc {
		inc[j] = satAdd(p.clock, inc[j])
	}
	best := inc
	victim := cache.Bypass
	base := set * p.ways * p.k
	for w := range lines {
		r := p.rank[base+w*p.k : base+(w+1)*p.k]
		if msaRankGreater(r, best, p.clock) {
			best = r
			victim = w
		}
	}
	if victim == cache.Bypass {
		p.debug.Bypasses++
		p.obsBypass.Inc()
	}
	return victim
}

// Update implements cache.Policy: train from observed reuse distances on
// sampled sets, then stamp the touched line's predicted reuse schedule.
func (p *refMSA) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		// Writeback fills carry no reuse signal: mark the whole schedule
		// expired (evict-first) and leave clock and trainer untouched.
		if way >= 0 && !hit {
			r := p.rank[(set*p.ways+way)*p.k : (set*p.ways+way+1)*p.k]
			for j := range r {
				r[j] = p.clock
			}
		}
		return
	}
	if p.learn != nil {
		p.trainSampled(set, pc, block)
	}
	var dist [reuseMaxSteps]uint64
	p.model.PredictReuse(pc, block, dist[:p.k])
	if p.learn != nil {
		p.obsPred.Observe(float64(p.samplers[set].last[block].pred[0]))
	}
	if way >= 0 {
		r := p.rank[(set*p.ways+way)*p.k : (set*p.ways+way+1)*p.k]
		for j := 0; j < p.k; j++ {
			r[j] = satAdd(p.clock, dist[j])
		}
	}
	p.clock++
	if p.learn != nil && p.clock%sweepPeriod == 0 {
		p.sweep()
	}
}

// recordErr accumulates one step-1 training error and the top-k hit bit.
func (p *refMSA) recordErr(pc uint64, err int, topkHit bool) {
	abs := err
	if abs < 0 {
		abs = -abs
	}
	p.debug.TrainEvents++
	p.debug.SumAbsErr += uint64(abs)
	p.debug.SumErr += int64(err)
	if topkHit {
		p.debug.TopKHits++
		p.obsTopK.Inc()
	}
	p.obsTrain.Inc()
	p.obsErr.Observe(float64(err))
	s, ok := p.pcErr[pc]
	if !ok {
		if len(p.pcErr) >= reuseMaxTrackedPCs {
			return
		}
		s = &pcErrStat{}
		p.pcErr[pc] = s
	}
	s.n++
	s.sumAbs += uint64(abs)
	s.hist[clampInt(err, -4, 4)+4]++
}

// trainSampled records this access in the set's sampler and, when the block
// was seen before, scores the stored k-step snapshot against the observed
// distance and feeds the observation to the model.
func (p *refMSA) trainSampled(set int, pc, block uint64) {
	s, ok := p.samplers[set]
	if !ok {
		s = &refMSASampler{last: make(map[uint64]refMSASample, reuseWindowFactor*p.ways)}
		p.samplers[set] = s
	}
	if prev, ok := s.last[block]; ok {
		target := reuseBucket(p.clock - prev.time)
		hit := false
		for j := 0; j < p.k; j++ {
			d := target - int(prev.pred[j])
			if d >= -1 && d <= 1 {
				hit = true
				break
			}
		}
		p.recordErr(prev.pc, target-int(prev.pred[0]), hit)
		p.learn.learn(prev.pc, uint8(target))
	}
	e := refMSASample{pc: pc, time: p.clock}
	p.learn.predictBuckets(pc, e.pred[:p.k])
	s.last[block] = e
}

// sweep expires sampler records beyond the window, feeding a beyond-window
// observation for each (sorted iteration; see FRD.sweep for why).
func (p *refMSA) sweep() {
	beyond := reuseBucket(p.window) + 1
	if beyond > reuseMaxBucket {
		beyond = reuseMaxBucket
	}
	sets := make([]int, 0, len(p.samplers))
	for set := range p.samplers {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	var expired []uint64
	for _, set := range sets {
		s := p.samplers[set]
		expired = expired[:0]
		for b, e := range s.last {
			if p.clock-e.time > p.window {
				expired = append(expired, b)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, b := range expired {
			e := s.last[b]
			p.learn.learn(e.pc, uint8(beyond))
			p.debug.Expiries++
			p.obsExpire.Inc()
			delete(s.last, b)
		}
	}
}

// TestLearnedPolicyGliderHistoryLenMatchesReference checks that Glider's
// history arena stores each PCHR snapshot whole and in order for any k: the
// ablation lengths and one past them, on a small LLC long enough for
// expiries, against the reference's per-entry history slices. The ISVM
// ignores history order, so the sampler contents are compared directly.
func TestLearnedPolicyGliderHistoryLenMatchesReference(t *testing.T) {
	t.Parallel()
	spec, err := workload.Resolve("mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.GenerateE(120_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	const sets, ways = 64, 8
	for _, k := range []int{1, 3, 5, 8, 13} {
		cfg := gl.DefaultConfig(2)
		cfg.HistoryLen = k
		p, ref := NewGliderWithConfig(sets, ways, cfg), newRefGliderWithConfig(sets, ways, cfg)
		a, _ := cache.New(cache.Config{Name: "llc", Sets: sets, Ways: ways}, p)
		b, _ := cache.New(cache.Config{Name: "llc", Sets: sets, Ways: ways}, ref)
		for i, acc := range tr.Accesses {
			core := acc.Core % 2
			ra := a.Access(acc.PC, acc.Block(), core, acc.Kind)
			rb := b.Access(acc.PC, acc.Block(), core, acc.Kind)
			if ra != rb {
				t.Fatalf("k=%d access %d: %+v, reference %+v", k, i, ra, rb)
			}
		}
		s1, p1, n1, k1 := p.Predictor().DebugCounts()
		s2, p2, n2, k2 := ref.Predictor().DebugCounts()
		if [4]uint64{s1, p1, n1, k1} != [4]uint64{s2, p2, n2, k2} {
			t.Fatalf("k=%d: ISVM counters %v, reference %v", k, [4]uint64{s1, p1, n1, k1}, [4]uint64{s2, p2, n2, k2})
		}
		if !reflect.DeepEqual(p.Predictor().TopRows(32), ref.Predictor().TopRows(32)) {
			t.Fatalf("k=%d: ISVM rows differ", k)
		}
		if s1 == 0 || n1 == 0 {
			t.Fatalf("k=%d: vacuous run (%d samples, %d negative updates)", k, s1, n1)
		}
		// The samplers hold the same entries, with the same PCHR
		// snapshots in the same order.
		for set := range p.sampler.last {
			entries := p.sampler.last[set].Entries(nil)
			var want map[uint64]refGliderSample
			if s := ref.samplers[set]; s != nil {
				want = s.last
			}
			if len(entries) != len(want) {
				t.Fatalf("k=%d set %d: %d sampler entries, reference %d", k, set, len(entries), len(want))
			}
			for _, e := range entries {
				w, ok := want[e.Key]
				if !ok || e.Time != w.time || e.Val.pc != w.pc || !reflect.DeepEqual(p.hist.history(e.Val), w.history) {
					t.Fatalf("k=%d set %d block %#x: entry (%d, %#x, %v), reference (%d, %#x, %v)",
						k, set, e.Key, e.Time, e.Val.pc, p.hist.history(e.Val), w.time, w.pc, w.history)
				}
			}
		}
	}
}

// LRFUDecayAges is the length of LRFU's decay table.
const LRFUDecayAges = lrfuDecayAges

// LRFUState returns the CRF values, stamps and clock of an lrfu policy or
// its reference.
func LRFUState(p cache.Policy) (crf [][]float64, stamp [][]uint64, clock uint64) {
	switch p := p.(type) {
	case *LRFU:
		return p.crf, p.stamp, p.clock
	case *refLRFU:
		return p.crf, p.stamp, p.clock
	}
	panic("LRFUState: not an lrfu policy")
}

// refLRFU is LRFU before its decay table.
type refLRFU struct {
	// Lambda is the decay exponent per access.
	Lambda float64
	crf    [][]float64
	stamp  [][]uint64
	clock  uint64
}

func newRefLRFU(sets, ways int, lambda float64) *refLRFU {
	p := &refLRFU{Lambda: lambda}
	p.crf = make([][]float64, sets)
	p.stamp = make([][]uint64, sets)
	cb := make([]float64, sets*ways)
	sb := make([]uint64, sets*ways)
	for i := range p.crf {
		p.crf[i], cb = cb[:ways], cb[ways:]
		p.stamp[i], sb = sb[:ways], sb[ways:]
	}
	return p
}

func (p *refLRFU) Name() string { return "lrfu" }

// value returns the decayed CRF of a line at the current clock.
func (p *refLRFU) value(set, way int) float64 {
	age := float64(p.clock - p.stamp[set][way])
	return p.crf[set][way] * math.Pow(0.5, p.Lambda*age)
}

func (p *refLRFU) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	victim := 0
	best := math.Inf(1)
	for w := range lines {
		if v := p.value(set, w); v < best {
			best = v
			victim = w
		}
	}
	return victim
}

func (p *refLRFU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	p.clock++
	if way < 0 {
		return
	}
	if hit {
		p.crf[set][way] = p.value(set, way) + 1
	} else {
		p.crf[set][way] = 1
	}
	p.stamp[set][way] = p.clock
}
