package policy

// reuse.go is the core of the reuse-distance policy family. Hawkeye and
// Glider classify PCs as cache-friendly or cache-averse from OPTgen's view of
// Belady MIN; this family instead learns what MIN itself ranks by — the
// *forward reuse distance* of each access, how many LLC accesses from now the
// line will be referenced again — and applies MIN's rule to the predictions:
// evict the line predicted furthest, and bypass the incoming line when it is
// itself predicted furthest.
//
// One type, Reuse, holds a name, a prediction depth k and a model. Every line
// carries a k-long schedule of predicted absolute reuse times, and Reuse owns
// everything around the model: the victim rule over those schedules, the
// sampled-set trainer fed by *observed* reuse distances, the beyond-window
// sweep, the per-PC error rows and the obs hooks. Two models plug in: FRD's
// perceptron regressor at k = 1 (frd.go) and MSA's EMA-plus-ring model at
// k = 4 (msa.go).
//
// All state is integer, the trainer's sweeps run in sorted order, and the
// trainer runs identically for any worker count, so both policies join the
// byte-identity differential suites unchanged.
//
// The model is a seam: NewReuseWithPredictor injects any ReusePredictor, and
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

// reuseModel is a learned model of the family: a ReusePredictor that works in
// log2 distance buckets and learns from observed ones.
type reuseModel interface {
	ReusePredictor
	// predictBuckets fills dst with the predicted buckets of pc's next
	// len(dst) reuse gaps. Read-only.
	predictBuckets(pc uint64, dst []uint8)
	// learn trains the model on one observed reuse-distance bucket of pc.
	learn(pc uint64, b uint8)
	// reset returns the model to the state its constructor builds.
	reset()
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

const (
	// reuseMaxSteps bounds the prediction depth k (and MSA's per-PC ring
	// depth).
	reuseMaxSteps = 8
	// reuseInitBucket seeds unseen per-PC state with a mid-range reuse
	// distance (2^8 accesses) so cold predictions are neither "immediate"
	// nor "never".
	reuseInitBucket = 8
	// reuseWindowFactor sizes the sampler window (× sets × ways, in global
	// demand accesses): reuses up to 4× cache capacity are observable,
	// anything longer trains as beyond-window.
	reuseWindowFactor = 4
	// reuseMaxTrackedPCs bounds the per-PC error table.
	reuseMaxTrackedPCs = 4096
	// reuseMaxBucket saturates bucket arithmetic; 2^40 accesses is beyond
	// any simulated trace.
	reuseMaxBucket = 40
)

// reuseBucket maps a forward reuse distance to its log2 bucket. Bucket b
// covers distances in [2^(b-1), 2^b); distance 1 is bucket 1, distance 4
// bucket 3, distance 0 (never valid) bucket 0.
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

// bucketDist returns 2^b, the exclusive upper bound of bucket b's distances,
// so it covers every distance in the bucket. It is not in the bucket itself:
// reuseBucket(bucketDist(b)) is b + 1 below the max bucket.
func bucketDist(b int) uint64 {
	if b < 0 {
		b = 0
	}
	if b >= reuseMaxBucket {
		return ReuseNever
	}
	return uint64(1) << uint(b)
}

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

// schedule turns predicted reuse-gap buckets into cumulative forward
// distances, soonest first.
func schedule(buckets []uint8, dst []uint64) {
	var acc uint64
	for j, b := range buckets {
		acc = satAdd(acc, bucketDist(int(b)))
		dst[j] = acc
	}
}

// msaRankGreater reports whether schedule a should be evicted in preference
// to schedule b. Both are k-long ascending absolute reuse times; entries
// ≤ clock already expired. The comparison skips each schedule's expired
// prefix, treats a fully expired schedule as maximal (presumed dead), and
// otherwise compares lexicographically with exhausted suffixes reading as
// "never". Strict: equal schedules return false, so the first-scanned
// candidate wins ties — the same tie-break SimulateMIN uses.
func msaRankGreater(a, b []uint64, clock uint64) bool {
	ia, ib := 0, 0
	for ia < len(a) && a[ia] <= clock {
		ia++
	}
	for ib < len(b) && b[ib] <= clock {
		ib++
	}
	if ia == len(a) || ib == len(b) {
		return ia == len(a) && ib < len(b)
	}
	for {
		av, bv := ^uint64(0), ^uint64(0)
		if ia < len(a) {
			av = a[ia]
		}
		if ib < len(b) {
			bv = b[ib]
		}
		if av != bv {
			return av > bv
		}
		if ia >= len(a) && ib >= len(b) {
			return false
		}
		ia++
		ib++
	}
}

// reuseSample is one sampler record: which PC touched a block in a sampled
// set and the k step buckets the model predicted at that moment (the table
// keeps when). The snapshot scores the quality metrics against what the
// eviction logic actually used.
type reuseSample struct {
	pred [reuseMaxSteps]uint8
	pc   uint64
}

// pcErrStat aggregates one PC's prediction errors (in buckets).
type pcErrStat struct {
	n      uint64
	sumAbs uint64
	hist   [9]uint64 // err clamped to [-4, +4]
}

// pcErrors is the per-PC training-error table of a reuse-distance policy,
// kept for introspection. It tracks the first reuseMaxTrackedPCs PCs it sees.
type pcErrors struct {
	t opt.Table[pcErrStat]
}

// record adds one training error for pc.
func (e *pcErrors) record(pc uint64, err int) {
	s, ok := e.t.Get(pc)
	if !ok {
		if e.t.Len() >= reuseMaxTrackedPCs {
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

// ReuseDebug exposes training and decision counters for tests and reports.
type ReuseDebug struct {
	// TrainEvents counts observed-reuse training updates; SumAbsErr and
	// SumErr accumulate their step-1 errors in buckets.
	TrainEvents uint64
	SumAbsErr   uint64
	SumErr      int64
	// TopKHits counts training events where the observed bucket was
	// within ±1 of any of the k predicted step buckets in the snapshot —
	// the top-k accuracy numerator (TrainEvents is the denominator).
	TopKHits uint64
	// Expiries counts sampler records trained as beyond-window.
	Expiries uint64
	// Bypasses counts incoming lines the policy declined to cache.
	Bypasses uint64
}

// MeanAbsErr returns the mean absolute step-1 prediction error in buckets.
func (d ReuseDebug) MeanAbsErr() float64 {
	if d.TrainEvents == 0 {
		return 0
	}
	return float64(d.SumAbsErr) / float64(d.TrainEvents)
}

// TopKAccuracy returns the fraction of observed reuses whose bucket was
// within ±1 of any predicted step.
func (d ReuseDebug) TopKAccuracy() float64 {
	if d.TrainEvents == 0 {
		return 0
	}
	return float64(d.TopKHits) / float64(d.TrainEvents)
}

// Reuse is a reuse-distance policy: MIN's decision rule over the k-step
// reuse schedules its model predicts.
type Reuse struct {
	name     string
	ways, k  int
	capacity uint64
	clock    uint64 // demand accesses completed
	window   uint64
	rank     []uint64 // sets × ways × k predicted absolute reuse times
	model    ReusePredictor
	reuse    [reuseMaxSteps]uint64    // PredictReuse output; a local would escape via the interface
	learner  reuseModel               // nil when an external model is injected
	last     []opt.Table[reuseSample] // per set: block → last touch (learned only)
	expired  []opt.Entry[reuseSample]
	pcErr    pcErrors
	debug    ReuseDebug

	// Observability (nil when disabled; see AttachObs).
	obsPred   *obs.Histogram
	obsErr    *obs.Histogram
	obsTrain  *obs.Counter
	obsTopK   *obs.Counter
	obsExpire *obs.Counter
	obsBypass *obs.Counter
	sink      obs.Sink
}

// newLearnedReuse builds the learned policy called name: model m predicting
// k steps ahead, trained by the sampled-set trainer.
func newLearnedReuse(name string, sets, ways, k int, m reuseModel) *Reuse {
	p := NewReuseWithPredictor(sets, ways, k, m)
	p.name, p.learner = name, m
	// A set's share of the window is reuseWindowFactor × ways blocks; start
	// at half that and let busier sets grow.
	p.last = opt.NewTables[reuseSample](sets, reuseWindowFactor*ways/2)
	p.Reset()
	return p
}

// NewReuseWithPredictor builds a reuse-distance policy around an injected
// model predicting k steps ahead (1 ≤ k ≤ reuseMaxSteps; out-of-range k is
// clamped) — the oracle seam used by the Belady-equivalence property tests.
// The sampled-set trainer is disabled; the eviction machinery is
// byte-identical to the learned policies'.
func NewReuseWithPredictor(sets, ways, k int, model ReusePredictor) *Reuse {
	k = clampInt(k, 1, reuseMaxSteps)
	p := &Reuse{
		name:     "reuse",
		ways:     ways,
		k:        k,
		capacity: uint64(sets * ways),
		window:   uint64(reuseWindowFactor * sets * ways),
		rank:     make([]uint64, sets*ways*k),
		model:    model,
	}
	p.Reset()
	return p
}

// Name implements cache.Policy.
func (p *Reuse) Name() string { return p.name }

// Reset implements cache.Resetter: the schedules, the clock, the trainer,
// the per-PC error rows and the counters start over, and a learned model
// is reset with them. An injected model belongs to its caller and is left
// as it is.
func (p *Reuse) Reset() {
	p.clock = 0
	clear(p.rank)
	if p.learner != nil {
		p.learner.reset()
	}
	for i := range p.last {
		p.last[i].Reset()
	}
	p.expired = p.expired[:0]
	p.pcErr.t.Reset()
	p.debug = ReuseDebug{}
}

// Steps returns the prediction depth k.
func (p *Reuse) Steps() int { return p.k }

// Debug returns the accumulated counters.
func (p *Reuse) Debug() ReuseDebug { return p.debug }

// AttachObs implements obs.Attacher: predicted-bucket and training-error
// histograms plus event counters, named after the policy.
func (p *Reuse) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsPred = reg.Histogram(p.name+".predict.bucket", obs.LinearBuckets(0, 4, 11))
	p.obsErr = reg.Histogram(p.name+".train.err", obs.LinearBuckets(-8, 2, 9))
	p.obsTrain = reg.Counter(p.name + ".train.events")
	p.obsTopK = reg.Counter(p.name + ".train.topk_hits")
	p.obsExpire = reg.Counter(p.name + ".train.expiries")
	p.obsBypass = reg.Counter(p.name + ".evict.bypass")
	p.sink = sink
}

// FlushObs implements obs.Flusher: emits a summary and the per-PC
// prediction-error histogram rows (hottest PCs first) as end-of-run events.
func (p *Reuse) FlushObs() {
	if p.sink == nil {
		return
	}
	p.sink.Emit(p.name, "summary", map[string]any{
		"k": p.k, "train_events": p.debug.TrainEvents,
		"expiries": p.debug.Expiries, "bypasses": p.debug.Bypasses,
		"mean_abs_err": p.debug.MeanAbsErr(), "topk_accuracy": p.debug.TopKAccuracy(),
	})
	for _, row := range p.TopModelRows(16) {
		p.sink.Emit(p.name, "pc_error", map[string]any{
			"pc": row.PC, "samples": row.Samples, "mean_abs_err": row.MeanAbsErr,
			"err_hist": row.ErrHist, "predicted_buckets": row.Predicted,
		})
	}
}

// recordErr accumulates one step-1 training error and the top-k hit bit,
// globally and per PC.
func (p *Reuse) recordErr(pc uint64, err int, topkHit bool) {
	p.debug.TrainEvents++
	p.debug.SumAbsErr += uint64(max(err, -err))
	p.debug.SumErr += int64(err)
	if topkHit {
		p.debug.TopKHits++
		p.obsTopK.Inc()
	}
	p.obsTrain.Inc()
	p.obsErr.Observe(float64(err))
	p.pcErr.record(pc, err)
}

// TopModelRows implements ModelIntrospector: the n most-trained PCs'
// error histograms and current k step buckets, ordered by sample count
// descending (PC ascending on ties).
func (p *Reuse) TopModelRows(n int) []ModelRow {
	rows := p.pcErr.rows(n)
	if p.learner != nil {
		var bk [reuseMaxSteps]uint8
		for i := range rows {
			p.learner.predictBuckets(rows[i].PC, bk[:p.k])
			rows[i].Predicted = make([]int, p.k)
			for j := range rows[i].Predicted {
				rows[i].Predicted[j] = int(bk[j])
			}
		}
	}
	return rows
}

// PredictFriendly implements the friendly/averse predictor interface: an
// access is friendly when its predicted first reuse fits inside the cache
// capacity.
func (p *Reuse) PredictFriendly(pc uint64, core uint8) bool {
	p.model.PredictReuse(pc, 0, p.reuse[:1])
	return p.reuse[0] < p.capacity
}

// Victim implements cache.Policy with the MIN decision rule over predicted
// reuse schedules: evict the line whose schedule ranks greatest under
// msaRankGreater — so a line whose predictions all expired (the reuse never
// came: presumed dead) goes first — and bypass the incoming line when no
// resident ranks strictly above its own schedule.
func (p *Reuse) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	inc := p.reuse[:p.k]
	p.model.PredictReuse(pc, block, inc)
	for j := range inc {
		inc[j] = satAdd(p.clock, inc[j])
	}
	victim := cache.Bypass
	if p.k == 1 {
		// One compare per way, ordering one-step schedules exactly as
		// msaRankGreater does: an expired time reads as ^uint64(0), above
		// every live one (satAdd saturates below it), and strict comparison
		// keeps the first candidate on ties. Ranking each way through
		// msaRankGreater instead makes a 16-way Victim about 6× slower.
		furthest := inc[0]
		if furthest <= p.clock {
			furthest = ^uint64(0)
		}
		base := set * p.ways
		for w := range lines {
			eff := p.rank[base+w]
			if eff <= p.clock {
				eff = ^uint64(0) // expired: presumed dead, evict first
			}
			if eff > furthest {
				furthest = eff
				victim = w
			}
		}
	} else {
		best := inc
		base := set * p.ways * p.k
		for w := range lines {
			r := p.rank[base+w*p.k : base+(w+1)*p.k]
			if msaRankGreater(r, best, p.clock) {
				best = r
				victim = w
			}
		}
	}
	if victim == cache.Bypass {
		p.debug.Bypasses++
		p.obsBypass.Inc()
	}
	return victim
}

// Update implements cache.Policy: train the model from observed reuse
// distances on sampled sets, then stamp the touched line with its freshly
// predicted reuse schedule.
func (p *Reuse) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	var r []uint64 // the touched line's schedule; empty on a bypass
	if way >= 0 {
		r = p.rank[(set*p.ways+way)*p.k : (set*p.ways+way+1)*p.k]
	}
	if kind == trace.Writeback {
		// Writeback fills carry no reuse signal: mark the whole schedule
		// expired (evict-first) and leave the clock and trainer untouched.
		if !hit {
			for j := range r {
				r[j] = p.clock
			}
		}
		return
	}
	dist := p.reuse[:p.k]
	if p.learner != nil {
		bk := p.trainSampled(set, pc, block)
		p.obsPred.Observe(float64(bk[0]))
		schedule(bk[:p.k], dist)
	} else {
		p.model.PredictReuse(pc, block, dist)
	}
	for j := range r {
		r[j] = satAdd(p.clock, dist[j])
	}
	p.clock++
	if p.learner != nil && p.clock%sweepPeriod == 0 {
		p.sweep()
	}
}

// trainSampled records this access in the set's sampler and, when the block
// was seen before, scores the stored k-step snapshot against the observed
// distance and teaches the model that distance. It returns the model's k
// step buckets for this access, predicted after learning.
func (p *Reuse) trainSampled(set int, pc, block uint64) [reuseMaxSteps]uint8 {
	prevTime, prev, found := p.last[set].Touch(block, p.clock)
	if found {
		target := reuseBucket(p.clock - prevTime)
		hit := false
		for _, b := range prev.pred[:p.k] {
			if d := target - int(b); d >= -1 && d <= 1 {
				hit = true
				break
			}
		}
		p.recordErr(prev.pc, target-int(prev.pred[0]), hit)
		p.learner.learn(prev.pc, uint8(target))
	}
	*prev = reuseSample{pc: pc}
	p.learner.predictBuckets(pc, prev.pred[:p.k])
	return prev.pred
}

// sweep teaches the model about sampler records whose blocks were never
// re-accessed within the window: their true reuse distance is "beyond
// window", one bucket past it. Model updates are order-sensitive, so
// records train in ascending set, then block order, never in table order.
func (p *Reuse) sweep() {
	beyond := min(reuseBucket(p.window)+1, reuseMaxBucket)
	p.expired = p.expired[:0]
	for set := range p.last {
		p.expired = p.last[set].Expire(p.clock, p.window, p.expired)
	}
	for _, e := range p.expired {
		p.learner.learn(e.Val.pc, uint8(beyond))
		p.debug.Expiries++
		p.obsExpire.Inc()
	}
}
