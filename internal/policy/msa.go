package policy

// msa.go implements MSA, a multi-step-ahead evictor in the shape of MUSTACHE
// (Quislant et al.): instead of predicting only the next reuse of a line,
// the model predicts its next k reuses, and eviction ranks lines by the
// resulting reuse schedule. A line whose *first* predicted reuse is near but
// whose remaining schedule is short or distant loses to one with a dense
// schedule.
//
// Ranking is lexicographic over the predicted absolute reuse times with
// expired entries (predicted times already passed) skipped: the first
// predicted reuse is primary — exactly Belady MIN's criterion, which is why
// the perfect-prediction variant provably matches MIN — and the later steps
// break ties toward the line with the worst (shortest/furthest-ending)
// remaining schedule. Lines whose entire schedule has expired are presumed
// dead and evicted first; schedules with fewer known future uses rank as if
// padded with "never".
//
// The learned model is a per-PC slot holding an EMA of observed
// reuse-distance buckets (step 1) and a ring of the most recent observed
// buckets (steps 2..k), trained by the same sampled-set observed-reuse
// pipeline as FRD. All state is integer and sweeps are sorted, so MSA
// joins the byte-identity differential suites unchanged. NewMSAWithPredictor
// injects any ReusePredictor (the oracle seam for the property tests).

import (
	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/opt"
	"glider/internal/trace"
)

const (
	// msaDefaultSteps is the default prediction depth k.
	msaDefaultSteps = 4
	// msaMaxSteps bounds configurable k (and the per-PC ring depth).
	msaMaxSteps = 8
	// msaTableBits sizes the per-PC model table.
	msaTableBits = 12
	msaTableSize = 1 << msaTableBits
	// msaInitBucket seeds unseen PCs (2^8 accesses), matching FRD.
	msaInitBucket = 8
	// msaEMAShift is the EMA weight: new = old + (obs - old)/4, in 1/16
	// bucket fixed point.
	msaEMAShift = 2
	msaEMAScale = 4 // fixed-point fractional bits
)

// msaModel is the learned k-step reuse model: per-PC-slot EMA of observed
// reuse-distance buckets plus a ring of the last msaMaxSteps observations.
type msaModel struct {
	k    int
	ema  []uint16 // bucket << msaEMAScale fixed point
	ring []uint8  // msaTableSize × msaMaxSteps, newest first
}

func newMSAModel(k int) *msaModel {
	m := &msaModel{
		k:    k,
		ema:  make([]uint16, msaTableSize),
		ring: make([]uint8, msaTableSize*msaMaxSteps),
	}
	for i := range m.ema {
		m.ema[i] = msaInitBucket << msaEMAScale
	}
	for i := range m.ring {
		m.ring[i] = msaInitBucket
	}
	return m
}

// observe feeds one observed reuse-distance bucket for pc into the model.
func (m *msaModel) observe(pc uint64, b uint8) {
	slot := hashPC(pc, msaTableSize)
	cur := int(m.ema[slot])
	m.ema[slot] = uint16(cur + ((int(b)<<msaEMAScale)-cur)>>msaEMAShift)
	r := m.ring[slot*msaMaxSteps : slot*msaMaxSteps+msaMaxSteps]
	copy(r[1:], r[:msaMaxSteps-1])
	r[0] = b
}

// predictBuckets fills dst with the predicted buckets of pc's next len(dst)
// reuse gaps: the EMA (rounded) for the first, then the observation ring.
// Read-only.
func (m *msaModel) predictBuckets(pc uint64, dst []uint8) {
	slot := hashPC(pc, msaTableSize)
	half := 1 << (msaEMAScale - 1)
	dst[0] = uint8(clampInt((int(m.ema[slot])+half)>>msaEMAScale, 0, reuseMaxBucket))
	r := m.ring[slot*msaMaxSteps : slot*msaMaxSteps+msaMaxSteps]
	for j := 1; j < len(dst); j++ {
		dst[j] = r[j-1]
	}
}

// PredictReuse implements ReusePredictor: cumulative gap distances, soonest
// first, nondecreasing. Read-only.
func (m *msaModel) PredictReuse(pc, block uint64, dst []uint64) {
	var bk [msaMaxSteps]uint8
	n := min(len(dst), msaMaxSteps)
	m.predictBuckets(pc, bk[:n])
	schedule(bk[:n], dst)
	for j := n; j < len(dst); j++ {
		dst[j] = ReuseNever
	}
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

// MSADebug exposes training and decision counters for tests and reports.
type MSADebug struct {
	// TrainEvents counts observed-reuse training updates; SumAbsErr and
	// SumErr accumulate step-1 errors in buckets.
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
func (d MSADebug) MeanAbsErr() float64 {
	if d.TrainEvents == 0 {
		return 0
	}
	return float64(d.SumAbsErr) / float64(d.TrainEvents)
}

// TopKAccuracy returns the fraction of observed reuses whose bucket was
// within ±1 of any predicted step.
func (d MSADebug) TopKAccuracy() float64 {
	if d.TrainEvents == 0 {
		return 0
	}
	return float64(d.TopKHits) / float64(d.TrainEvents)
}

// msaSample is one sampler record: the k buckets predicted for a block when
// it was last touched in a sampled set, and by which PC.
type msaSample struct {
	pred [msaMaxSteps]uint8
	pc   uint64
}

// MSA is the multi-step-ahead eviction policy.
type MSA struct {
	sets, ways int
	k          int
	capacity   uint64
	clock      uint64
	window     uint64
	rank       []uint64 // sets × ways × k predicted absolute reuse times
	model      ReusePredictor
	inc, dist  [msaMaxSteps]uint64    // PredictReuse outputs; locals would escape via the interface
	learn      *msaModel              // nil when an external model is injected
	last       []opt.Table[msaSample] // per set: block → last touch (learned only)
	expired    []opt.Entry[msaSample]
	pcErr      pcErrors
	debug      MSADebug

	// Observability (nil when disabled; see AttachObs).
	obsPred   *obs.Histogram
	obsErr    *obs.Histogram
	obsTrain  *obs.Counter
	obsTopK   *obs.Counter
	obsExpire *obs.Counter
	obsBypass *obs.Counter
	sink      obs.Sink
}

// NewMSA builds the learned MSA policy with the default prediction depth.
func NewMSA(sets, ways int) *MSA { return NewMSAK(sets, ways, msaDefaultSteps) }

// NewMSAK builds the learned MSA policy predicting k steps ahead
// (1 ≤ k ≤ msaMaxSteps; out-of-range k is clamped).
func NewMSAK(sets, ways, k int) *MSA {
	p := newMSAShell(sets, ways, k)
	p.learn = newMSAModel(p.k)
	p.model = p.learn
	p.last = opt.NewTables[msaSample](sets, frdWindowFactor*ways/2) // as NewFRD
	return p
}

// NewMSAWithPredictor builds an MSA policy around an injected model — the
// oracle seam used by the Belady-equivalence property tests. The sampled-set
// trainer is disabled; the ranking machinery is byte-identical to NewMSAK's.
func NewMSAWithPredictor(sets, ways, k int, model ReusePredictor) *MSA {
	p := newMSAShell(sets, ways, k)
	p.model = model
	return p
}

func newMSAShell(sets, ways, k int) *MSA {
	k = clampInt(k, 1, msaMaxSteps)
	return &MSA{
		sets:     sets,
		ways:     ways,
		k:        k,
		capacity: uint64(sets * ways),
		window:   uint64(frdWindowFactor * sets * ways),
		rank:     make([]uint64, sets*ways*k),
	}
}

// Name implements cache.Policy.
func (p *MSA) Name() string { return "msa" }

// Steps returns the configured prediction depth k.
func (p *MSA) Steps() int { return p.k }

// Debug returns the accumulated counters.
func (p *MSA) Debug() MSADebug { return p.debug }

// AttachObs implements obs.Attacher.
func (p *MSA) AttachObs(reg *obs.Registry, sink obs.Sink) {
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
func (p *MSA) FlushObs() {
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
func (p *MSA) TopModelRows(n int) []ModelRow {
	rows := p.pcErr.rows(n)
	if p.learn != nil {
		for i := range rows {
			var bk [msaMaxSteps]uint8
			p.learn.predictBuckets(rows[i].PC, bk[:p.k])
			rows[i].Predicted = make([]int, p.k)
			for j := 0; j < p.k; j++ {
				rows[i].Predicted[j] = int(bk[j])
			}
		}
	}
	return rows
}

// PredictFriendly reports whether pc's predicted first reuse fits inside
// the cache capacity.
func (p *MSA) PredictFriendly(pc uint64, core uint8) bool {
	p.model.PredictReuse(pc, 0, p.dist[:1])
	return p.dist[0] < p.capacity
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

// Victim implements cache.Policy: rank every resident schedule against the
// incoming access's predicted schedule; evict the greatest, or bypass when
// the incoming line itself ranks greatest.
func (p *MSA) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	inc := p.inc[:p.k]
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
func (p *MSA) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
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
	dist := p.dist[:p.k]
	if p.learn != nil {
		bk := p.trainSampled(set, pc, block)
		schedule(bk[:p.k], dist)
		p.obsPred.Observe(float64(reuseBucket(dist[0])))
	} else {
		p.model.PredictReuse(pc, block, dist)
	}
	if way >= 0 {
		r := p.rank[(set*p.ways+way)*p.k : (set*p.ways+way+1)*p.k]
		for j := range r {
			r[j] = satAdd(p.clock, dist[j])
		}
	}
	p.clock++
	if p.learn != nil && p.clock%frdSweepPeriod == 0 {
		p.sweep()
	}
}

// recordErr accumulates one step-1 training error and the top-k hit bit.
func (p *MSA) recordErr(pc uint64, err int, topkHit bool) {
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

// trainSampled records this access in the set's sampler and, when the block
// was seen before, scores the stored k-step snapshot against the observed
// distance and feeds the observation to the model. It returns the model's
// k step buckets for this access, predicted after that observation.
func (p *MSA) trainSampled(set int, pc, block uint64) [msaMaxSteps]uint8 {
	prevTime, prev, found := p.last[set].Touch(block, p.clock)
	if found {
		target := reuseBucket(p.clock - prevTime)
		hit := false
		for j := 0; j < p.k; j++ {
			d := target - int(prev.pred[j])
			if d >= -1 && d <= 1 {
				hit = true
				break
			}
		}
		p.recordErr(prev.pc, target-int(prev.pred[0]), hit)
		p.learn.observe(prev.pc, uint8(target))
	}
	*prev = msaSample{pc: pc}
	p.learn.predictBuckets(pc, prev.pred[:p.k])
	return prev.pred
}

// sweep expires sampler records beyond the window, feeding a beyond-window
// observation for each, in ascending set, then block order (see FRD.sweep
// for why).
func (p *MSA) sweep() {
	beyond := reuseBucket(p.window) + 1
	if beyond > reuseMaxBucket {
		beyond = reuseMaxBucket
	}
	p.expired = p.expired[:0]
	for set := range p.last {
		p.expired = p.last[set].Expire(p.clock, p.window, p.expired)
	}
	for _, e := range p.expired {
		p.learn.observe(e.Val.pc, uint8(beyond))
		p.debug.Expiries++
		p.obsExpire.Inc()
	}
}
