package policy

// frd.go implements FRD, a forward reuse-distance regressor policy in the
// shape of Li & Gu, "Learning Forward Reuse Distance" (TPDS 2020): instead of
// classifying PCs as cache-friendly or cache-averse (Hawkeye, Glider), FRD
// regresses the *forward reuse distance* of each access — how many LLC
// accesses from now the line will be referenced again — and evicts the line
// with the furthest predicted reuse, bypassing the incoming line when it is
// itself predicted furthest (the Belady-MIN decision rule applied to
// predicted, rather than oracle, distances).
//
// The regressor is an online integer perceptron over per-PC reuse-distance
// history features: the last frdHistLen observed reuse-distance buckets of
// the PC index small weight tables, and the prediction is the PC's last
// observed bucket plus the summed table weights (a learned correction on a
// persistence baseline). Training data comes from a sampled-set trainer fed
// by *observed* reuse distances: every set keeps a bounded window of
// (block → feature snapshot) records, and when a block is re-accessed the
// elapsed distance trains the snapshot that predicted it; records that fall
// out of the window un-reused train toward "beyond window".
//
// All state is integer, the trainer's sweeps run in sorted order, and the
// trainer runs identically for any worker count, so FRD joins the
// byte-identity differential suites unchanged.
//
// The model is a seam: NewFRDWithPredictor injects any ReusePredictor, and
// the oracle property tests inject a perfect predictor to prove the eviction
// machinery reproduces Belady MIN access-for-access.

import (
	"cmp"
	"math/bits"
	"slices"

	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/opt"
	"glider/internal/trace"
)

// ReuseNever is the predicted forward reuse distance of a line that is not
// expected to be referenced again within any horizon.
const ReuseNever = uint64(1) << 62

// ReusePredictor is the model seam of the reuse-distance policy family (FRD,
// MSA). PredictReuse fills dst with the predicted forward distances — in
// demand LLC accesses from now — of the block's next len(dst) uses, soonest
// first and nondecreasing; ReuseNever marks "no further use expected".
// Implementations must not mutate their own observable state in PredictReuse
// (policies call it from both Victim and Update for the same access).
type ReusePredictor interface {
	PredictReuse(pc, block uint64, dst []uint64)
}

// ModelRow is one per-PC introspection row of a learned reuse-distance model
// — the reuse-distance family's analog of Glider's ISVM rows, served by
// gliderd's /v1/predict.
type ModelRow struct {
	PC      uint64 `json:"pc"`
	Samples uint64 `json:"samples"`
	// MeanAbsErr is the mean absolute training error in log2 distance
	// buckets over this PC's observed reuses.
	MeanAbsErr float64 `json:"mean_abs_err"`
	// ErrHist counts training errors clamped to [-4, +4] buckets
	// (ErrHist[4] is exact predictions).
	ErrHist []uint64 `json:"err_hist"`
	// Predicted is the model's current forward-reuse prediction for the PC
	// in log2 distance buckets: one entry for FRD, k entries for MSA.
	Predicted []int `json:"predicted_buckets"`
}

// ModelIntrospector is implemented by policies whose learned model can
// report per-PC rows (FRD, MSA); experiments.RunPredictCell probes for it.
type ModelIntrospector interface {
	TopModelRows(n int) []ModelRow
}

// reuseBucket maps a forward reuse distance to its log2 bucket. Bucket b
// covers distances in (2^(b-1), 2^b]; distance 1 is bucket 1, distance 0
// (never valid) bucket 0.
func reuseBucket(d uint64) int {
	if d >= ReuseNever {
		return reuseMaxBucket
	}
	b := bits.Len64(d)
	if b > reuseMaxBucket {
		return reuseMaxBucket
	}
	return b
}

// bucketDist returns the representative (upper-bound) distance of a bucket.
func bucketDist(b int) uint64 {
	if b < 0 {
		b = 0
	}
	if b >= reuseMaxBucket {
		return ReuseNever
	}
	return uint64(1) << uint(b)
}

// reuseMaxBucket saturates bucket arithmetic; 2^40 accesses is beyond any
// simulated trace.
const reuseMaxBucket = 40

// satAdd is uint64 addition saturating below the expiry sentinel range.
func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a || s > (^uint64(0))>>1 {
		return (^uint64(0)) >> 1
	}
	return s
}

// clampInt bounds v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// --- FRD regressor ----------------------------------------------------------

const (
	// frdTableBits sizes each feature weight table.
	frdTableBits = 12
	frdTableSize = 1 << frdTableBits
	// frdHistLen is the per-PC reuse-distance history depth.
	frdHistLen = 3
	// frdNumTables is bias + one cross table per history slot.
	frdNumTables = 1 + frdHistLen
	// frdShift scales the summed weights into bucket units (each unit of
	// summed weight is 1/4 bucket).
	frdShift = 2
	// frdStepMax caps one training update per table.
	frdStepMax = 4
	// frdWeightMax saturates the int16 weights well inside their range.
	frdWeightMax = 512
	// frdInitBucket seeds unseen per-PC histories with a mid-range reuse
	// distance (2^8 accesses) so cold predictions are neither "immediate"
	// nor "never".
	frdInitBucket = 8
	// frdWindowFactor sizes the sampler window (× sets × ways, in global
	// demand accesses): reuses up to 4× cache capacity are observable,
	// anything longer trains as beyond-window.
	frdWindowFactor = 4
	// frdSweepPeriod is the global cadence (demand accesses) of the
	// beyond-window detraining sweep.
	frdSweepPeriod = 4096
	// frdMaxTrackedPCs bounds the per-PC error table.
	frdMaxTrackedPCs = 4096
)

// frdFeatures is the regressor's view of one access: the weight-table
// indices it read and the prediction it made, kept so a later observed
// reuse distance can train exactly this snapshot.
type frdFeatures struct {
	idx  [frdNumTables]int32
	pred int16
}

// frdRegressor is the online forward-reuse-distance model: frdNumTables
// integer weight tables plus a per-PC-slot history of observed buckets.
type frdRegressor struct {
	w    [frdNumTables][]int16
	hist []uint8 // frdTableSize × frdHistLen, newest first
}

func newFRDRegressor() *frdRegressor {
	r := &frdRegressor{hist: make([]uint8, frdTableSize*frdHistLen)}
	for i := range r.hist {
		r.hist[i] = frdInitBucket
	}
	for t := range r.w {
		r.w[t] = make([]int16, frdTableSize)
	}
	return r
}

// features computes the table indices and prediction for an access by pc.
// Read-only: safe to call from Victim and PredictFriendly.
func (r *frdRegressor) features(pc uint64) frdFeatures {
	var f frdFeatures
	slot := hashPC(pc, frdTableSize)
	h := r.hist[slot*frdHistLen : slot*frdHistLen+frdHistLen]
	f.idx[0] = int32(slot)
	sum := int(r.w[0][slot])
	for j := 0; j < frdHistLen; j++ {
		i := int32(hashPC(pc^(uint64(h[j])+3)<<uint(32+8*j), frdTableSize))
		f.idx[j+1] = i
		sum += int(r.w[j+1][i])
	}
	// Persistence baseline (last observed bucket) plus learned correction.
	f.pred = int16(clampInt(int(h[0])+(sum>>frdShift), 0, reuseMaxBucket))
	return f
}

// train applies one regression step toward target on the snapshot f.
func (r *frdRegressor) train(f frdFeatures, target int) {
	step := clampInt(target-int(f.pred), -frdStepMax, frdStepMax)
	if step == 0 {
		return
	}
	for t := 0; t < frdNumTables; t++ {
		w := int(r.w[t][f.idx[t]]) + step
		r.w[t][f.idx[t]] = int16(clampInt(w, -frdWeightMax, frdWeightMax))
	}
}

// observe pushes an observed reuse-distance bucket into pc's history.
func (r *frdRegressor) observe(pc uint64, b uint8) {
	slot := hashPC(pc, frdTableSize)
	h := r.hist[slot*frdHistLen : slot*frdHistLen+frdHistLen]
	copy(h[1:], h[:frdHistLen-1])
	h[0] = b
}

// PredictReuse implements ReusePredictor (read-only).
func (r *frdRegressor) PredictReuse(pc, block uint64, dst []uint64) {
	d := bucketDist(int(r.features(pc).pred))
	for j := range dst {
		dst[j] = d
	}
}

// --- FRD policy -------------------------------------------------------------

// frdSample is one sampler record: which PC touched a block in a sampled
// set and what the model predicted at that moment (the table keeps when).
// Training recomputes features at observation time — stepping weights
// against a stale snapshot overcorrects badly when many same-context samples
// resolve back-to-back — but the snapshot prediction is kept to score the
// quality metrics against what the eviction logic actually used.
type frdSample struct {
	pred int16
	pc   uint64
}

// pcErrStat aggregates one PC's prediction errors (in buckets).
type pcErrStat struct {
	n      uint64
	sumAbs uint64
	hist   [9]uint64 // err clamped to [-4, +4]
}

// pcErrors is the per-PC training-error table FRD and MSA keep for
// introspection. It tracks the first frdMaxTrackedPCs PCs it sees.
type pcErrors struct {
	t opt.Table[pcErrStat]
}

// record adds one training error for pc.
func (e *pcErrors) record(pc uint64, err int) {
	s, ok := e.t.Get(pc)
	if !ok {
		if e.t.Len() >= frdMaxTrackedPCs {
			return
		}
		_, s, _ = e.t.Touch(pc, 0)
	}
	s.n++
	s.sumAbs += uint64(max(err, -err))
	s.hist[clampInt(err, -4, 4)+4]++
}

// rows returns the n most-trained PCs' rows (every PC when n < 0), ordered
// by sample count descending and PC ascending on ties, without the
// Predicted column.
func (e *pcErrors) rows(n int) []ModelRow {
	stats := e.t.Entries(nil)
	slices.SortFunc(stats, func(a, b opt.Entry[pcErrStat]) int {
		if a.Val.n != b.Val.n {
			return cmp.Compare(b.Val.n, a.Val.n)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	if n >= 0 && len(stats) > n {
		stats = stats[:n]
	}
	rows := make([]ModelRow, 0, len(stats))
	for _, e := range stats {
		s := e.Val
		rows = append(rows, ModelRow{
			PC:         e.Key,
			Samples:    s.n,
			MeanAbsErr: float64(s.sumAbs) / float64(s.n),
			ErrHist:    append([]uint64(nil), s.hist[:]...),
		})
	}
	return rows
}

// FRDDebug exposes training and decision counters for tests and reports.
type FRDDebug struct {
	// TrainEvents counts observed-reuse training updates; SumAbsErr and
	// SumErr accumulate their errors in buckets.
	TrainEvents uint64
	SumAbsErr   uint64
	SumErr      int64
	// Expiries counts sampler records trained as beyond-window.
	Expiries uint64
	// Bypasses counts incoming lines the policy declined to cache.
	Bypasses uint64
}

// MeanAbsErr returns the mean absolute prediction error in buckets.
func (d FRDDebug) MeanAbsErr() float64 {
	if d.TrainEvents == 0 {
		return 0
	}
	return float64(d.SumAbsErr) / float64(d.TrainEvents)
}

// FRD is the forward reuse-distance regressor policy.
type FRD struct {
	sets, ways int
	capacity   uint64
	clock      uint64 // demand accesses completed
	window     uint64
	next       []uint64 // predicted absolute next-use time per line
	model      ReusePredictor
	reuse      [1]uint64              // PredictReuse output; a local would escape via the interface
	learn      *frdRegressor          // nil when an external model is injected
	last       []opt.Table[frdSample] // per set: block → last touch (learned only)
	expired    []opt.Entry[frdSample]
	pcErr      pcErrors
	debug      FRDDebug

	// Observability (nil when disabled; see AttachObs).
	obsPred   *obs.Histogram
	obsErr    *obs.Histogram
	obsTrain  *obs.Counter
	obsExpire *obs.Counter
	obsBypass *obs.Counter
	sink      obs.Sink
}

// NewFRD builds the learned FRD policy for the given geometry.
func NewFRD(sets, ways int) *FRD {
	p := newFRDShell(sets, ways)
	p.learn = newFRDRegressor()
	p.model = p.learn
	// A set's share of the window is frdWindowFactor × ways blocks; start
	// at half that and let busier sets grow.
	p.last = opt.NewTables[frdSample](sets, frdWindowFactor*ways/2)
	return p
}

// NewFRDWithPredictor builds an FRD policy around an injected model — the
// oracle seam used by the Belady-equivalence property tests. The sampled-set
// trainer is disabled; the eviction machinery is byte-identical to NewFRD's.
func NewFRDWithPredictor(sets, ways int, model ReusePredictor) *FRD {
	p := newFRDShell(sets, ways)
	p.model = model
	return p
}

func newFRDShell(sets, ways int) *FRD {
	return &FRD{
		sets:     sets,
		ways:     ways,
		capacity: uint64(sets * ways),
		window:   uint64(frdWindowFactor * sets * ways),
		next:     make([]uint64, sets*ways),
	}
}

// Name implements cache.Policy.
func (p *FRD) Name() string { return "frd" }

// Debug returns the accumulated counters.
func (p *FRD) Debug() FRDDebug { return p.debug }

// AttachObs implements obs.Attacher: predicted-bucket and training-error
// histograms plus event counters.
func (p *FRD) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsPred = reg.Histogram("frd.predict.bucket", obs.LinearBuckets(0, 4, 11))
	p.obsErr = reg.Histogram("frd.train.err", obs.LinearBuckets(-8, 2, 9))
	p.obsTrain = reg.Counter("frd.train.events")
	p.obsExpire = reg.Counter("frd.train.expiries")
	p.obsBypass = reg.Counter("frd.evict.bypass")
	p.sink = sink
}

// FlushObs implements obs.Flusher: emits the per-PC prediction-error
// histogram rows (hottest PCs first) as end-of-run events.
func (p *FRD) FlushObs() {
	if p.sink == nil {
		return
	}
	p.sink.Emit("frd", "summary", map[string]any{
		"train_events": p.debug.TrainEvents, "expiries": p.debug.Expiries,
		"bypasses": p.debug.Bypasses, "mean_abs_err": p.debug.MeanAbsErr(),
	})
	for _, row := range p.TopModelRows(16) {
		p.sink.Emit("frd", "pc_error", map[string]any{
			"pc": row.PC, "samples": row.Samples, "mean_abs_err": row.MeanAbsErr,
			"err_hist": row.ErrHist, "predicted_buckets": row.Predicted,
		})
	}
}

// recordErr accumulates one training error globally and per PC.
func (p *FRD) recordErr(pc uint64, err int) {
	p.debug.TrainEvents++
	p.debug.SumAbsErr += uint64(max(err, -err))
	p.debug.SumErr += int64(err)
	p.obsTrain.Inc()
	p.obsErr.Observe(float64(err))
	p.pcErr.record(pc, err)
}

// TopModelRows implements ModelIntrospector: the n most-trained PCs'
// error histograms and current predictions, ordered by sample count
// descending (PC ascending on ties).
func (p *FRD) TopModelRows(n int) []ModelRow {
	rows := p.pcErr.rows(n)
	if p.learn != nil {
		for i := range rows {
			rows[i].Predicted = []int{int(p.learn.features(rows[i].PC).pred)}
		}
	}
	return rows
}

// PredictFriendly implements the friendly/averse predictor interface: an
// access is friendly when its predicted forward reuse distance fits inside
// the cache capacity.
func (p *FRD) PredictFriendly(pc uint64, core uint8) bool {
	p.model.PredictReuse(pc, 0, p.reuse[:])
	return p.reuse[0] < p.capacity
}

// Victim implements cache.Policy with the MIN decision rule over predicted
// absolute next-use times: evict the line predicted furthest, preferring
// expired lines (predicted reuse time already passed — the prediction was
// wrong and the line is presumed dead); bypass the incoming line when no
// resident is predicted strictly further than it.
func (p *FRD) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	p.model.PredictReuse(pc, block, p.reuse[:])
	furthest := satAdd(p.clock, p.reuse[0])
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
func (p *FRD) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
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
		pred := p.trainSampled(set, pc, block)
		p.obsPred.Observe(float64(pred))
		dist = bucketDist(int(pred))
	} else {
		p.model.PredictReuse(pc, block, p.reuse[:])
		dist = p.reuse[0]
	}
	if way >= 0 {
		p.next[set*p.ways+way] = satAdd(p.clock, dist)
	}
	p.clock++
	if p.learn != nil && p.clock%frdSweepPeriod == 0 {
		p.sweep()
	}
}

// trainSampled records this access in the set's sampler and, when the block
// was seen before, trains the regressor on the observed reuse distance. It
// returns the regressor's prediction for this access, made after training.
func (p *FRD) trainSampled(set int, pc, block uint64) int16 {
	prevTime, prev, found := p.last[set].Touch(block, p.clock)
	if found {
		target := reuseBucket(p.clock - prevTime)
		p.recordErr(prev.pc, target-int(prev.pred))
		p.learn.train(p.learn.features(prev.pc), target)
		p.learn.observe(prev.pc, uint8(target))
	}
	*prev = frdSample{pred: p.learn.features(pc).pred, pc: pc}
	return prev.pred
}

// sweep detrains sampler records whose blocks were never re-accessed within
// the window: their true reuse distance is "beyond window", so they train
// toward one bucket past it. Regression updates are order-sensitive, so
// records train in ascending set, then block order, never in table order.
func (p *FRD) sweep() {
	beyond := reuseBucket(p.window) + 1
	if beyond > reuseMaxBucket {
		beyond = reuseMaxBucket
	}
	p.expired = p.expired[:0]
	for set := range p.last {
		p.expired = p.last[set].Expire(p.clock, p.window, p.expired)
	}
	for _, e := range p.expired {
		p.learn.train(p.learn.features(e.Val.pc), beyond)
		p.learn.observe(e.Val.pc, uint8(beyond))
		p.debug.Expiries++
		p.obsExpire.Inc()
	}
}
