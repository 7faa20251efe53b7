package policy

// msa.go implements MSA, a multi-step-ahead evictor in the shape of MUSTACHE
// (Quislant et al.): instead of predicting only the next reuse of a line,
// the model predicts its next k reuses, and eviction ranks lines by the
// resulting reuse schedule. A line whose *first* predicted reuse is near but
// whose remaining schedule is short or distant loses to one with a dense
// schedule.
//
// Ranking is the family's lexicographic msaRankGreater (reuse.go) over the
// predicted absolute reuse times with expired entries (predicted times
// already passed) skipped: the first predicted reuse is primary — exactly
// Belady MIN's criterion, which is why the perfect-prediction variant
// provably matches MIN — and the later steps break ties toward the line with
// the worst (shortest/furthest-ending) remaining schedule. Lines whose entire
// schedule has expired are presumed dead and evicted first; schedules with
// fewer known future uses rank as if padded with "never".
//
// The learned model is a per-PC slot holding an EMA of observed
// reuse-distance buckets (step 1) and a ring of the most recent observed
// buckets (steps 2..k), trained by the family's sampled-set observed-reuse
// pipeline, like FRD.

const (
	// msaDefaultSteps is the default prediction depth k.
	msaDefaultSteps = 4
	// msaTableBits sizes the per-PC model table.
	msaTableBits = 12
	msaTableSize = 1 << msaTableBits
	// msaEMAShift is the EMA weight: new = old + (obs - old)/4, in 1/16
	// bucket fixed point.
	msaEMAShift = 2
	msaEMAScale = 4 // fixed-point fractional bits
)

// msaModel is the learned k-step reuse model: per-PC-slot EMA of observed
// reuse-distance buckets plus a ring of the last reuseMaxSteps observations.
type msaModel struct {
	ema  []uint16 // bucket << msaEMAScale fixed point
	ring []uint8  // msaTableSize × reuseMaxSteps, newest first
}

// NewMSA builds the learned MSA policy with the default prediction depth.
func NewMSA(sets, ways int) *Reuse { return NewMSAK(sets, ways, msaDefaultSteps) }

// NewMSAK builds the learned MSA policy predicting k steps ahead
// (1 ≤ k ≤ reuseMaxSteps; out-of-range k is clamped).
func NewMSAK(sets, ways, k int) *Reuse { return newLearnedReuse("msa", sets, ways, k, newMSAModel()) }

func newMSAModel() *msaModel {
	m := &msaModel{
		ema:  make([]uint16, msaTableSize),
		ring: make([]uint8, msaTableSize*reuseMaxSteps),
	}
	m.reset()
	return m
}

// reset implements reuseModel: every EMA and ring entry at the mid-range
// bucket.
func (m *msaModel) reset() {
	for i := range m.ema {
		m.ema[i] = reuseInitBucket << msaEMAScale
	}
	for i := range m.ring {
		m.ring[i] = reuseInitBucket
	}
}

// learn implements reuseModel: it feeds one observed reuse-distance bucket
// for pc into the EMA and the ring.
func (m *msaModel) learn(pc uint64, b uint8) {
	slot := hashPC(pc, msaTableSize)
	cur := int(m.ema[slot])
	m.ema[slot] = uint16(cur + ((int(b)<<msaEMAScale)-cur)>>msaEMAShift)
	r := m.ring[slot*reuseMaxSteps : slot*reuseMaxSteps+reuseMaxSteps]
	copy(r[1:], r[:reuseMaxSteps-1])
	r[0] = b
}

// predictBuckets implements reuseModel: the EMA (rounded) for the first
// reuse gap, then the observation ring. Read-only.
func (m *msaModel) predictBuckets(pc uint64, dst []uint8) {
	slot := hashPC(pc, msaTableSize)
	half := 1 << (msaEMAScale - 1)
	dst[0] = uint8(clampInt((int(m.ema[slot])+half)>>msaEMAScale, 0, reuseMaxBucket))
	r := m.ring[slot*reuseMaxSteps : slot*reuseMaxSteps+reuseMaxSteps]
	for j := 1; j < len(dst); j++ {
		dst[j] = r[j-1]
	}
}

// PredictReuse implements ReusePredictor: cumulative gap distances, soonest
// first, nondecreasing. Read-only.
func (m *msaModel) PredictReuse(pc, block uint64, dst []uint64) {
	var bk [reuseMaxSteps]uint8
	n := min(len(dst), reuseMaxSteps)
	m.predictBuckets(pc, bk[:n])
	schedule(bk[:n], dst)
	for j := n; j < len(dst); j++ {
		dst[j] = ReuseNever
	}
}
