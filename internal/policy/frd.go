package policy

// frd.go implements FRD, a forward reuse-distance regressor policy in the
// shape of Li & Gu, "Learning Forward Reuse Distance" (TPDS 2020): it
// regresses each access's forward reuse distance and runs the family's
// MIN-on-predictions rule (reuse.go) at k = 1, evicting the line with the
// furthest predicted reuse and bypassing the incoming line when it is itself
// predicted furthest.
//
// The regressor is an online integer perceptron over per-PC reuse-distance
// history features: the last frdHistLen observed reuse-distance buckets of
// the PC index small weight tables, and the prediction is the PC's last
// observed bucket plus the summed table weights (a learned correction on a
// persistence baseline). Training data comes from the family's sampled-set
// trainer: when a sampled block is re-accessed, the elapsed distance trains
// the PC that touched it; records that fall out of the window un-reused
// train toward "beyond window".

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
)

// frdFeatures is the regressor's view of one access: the weight-table
// indices it read and the prediction it made.
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

// NewFRD builds the learned FRD policy for the given geometry.
func NewFRD(sets, ways int) *Reuse { return newLearnedReuse("frd", sets, ways, 1, newFRDRegressor()) }

func newFRDRegressor() *frdRegressor {
	r := &frdRegressor{hist: make([]uint8, frdTableSize*frdHistLen)}
	for t := range r.w {
		r.w[t] = make([]int16, frdTableSize)
	}
	r.reset()
	return r
}

// reset implements reuseModel: zero weights and every history at the
// mid-range bucket.
func (r *frdRegressor) reset() {
	for i := range r.hist {
		r.hist[i] = reuseInitBucket
	}
	for _, w := range r.w {
		clear(w)
	}
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

// learn implements reuseModel: one regression step toward b, then b joins
// pc's history. The step uses pc's features recomputed now, not the
// sampler's snapshot: stepping weights against a stale snapshot overcorrects
// badly when many same-context samples resolve back-to-back.
func (r *frdRegressor) learn(pc uint64, b uint8) {
	r.train(r.features(pc), int(b))
	r.observe(pc, b)
}

// predictBuckets implements reuseModel: every reuse gap is predicted at
// pc's one regressed bucket. Read-only.
func (r *frdRegressor) predictBuckets(pc uint64, dst []uint8) {
	b := uint8(r.features(pc).pred)
	for j := range dst {
		dst[j] = b
	}
}

// PredictReuse implements ReusePredictor (read-only).
func (r *frdRegressor) PredictReuse(pc, block uint64, dst []uint64) {
	d := bucketDist(int(r.features(pc).pred))
	for j := range dst {
		dst[j] = d
	}
}
