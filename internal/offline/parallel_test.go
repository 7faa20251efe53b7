package offline

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"glider/internal/ml"
)

// The data-parallel training loop promises bit-identical results for every
// worker count (see trainShards). These tests are the enforcement: they
// compare accuracy curves and raw weight tensors with ==, not a tolerance.

// parallelTestOpts returns a small-but-real training configuration; batch
// and workers vary per subtest.
func parallelTestOpts(batch, workers int) LSTMOptions {
	return LSTMOptions{
		HistoryLen:        10,
		Epochs:            2,
		MaxTrainSequences: 52, // deliberately not divisible by the batch size
		MaxEvalSequences:  30,
		BatchSize:         batch,
		Workers:           workers,
		Config:            ml.AttentionLSTMConfig{Vocab: 1, Embed: 12, Hidden: 12, LR: 0.005, ClipNorm: 5, Seed: 1},
		Seed:              1,
	}
}

// trainOnce trains on a shared dataset and returns the accuracy curve plus a
// deep copy of every weight tensor.
func trainOnce(t *testing.T, d *Dataset, opts LSTMOptions) ([]float64, map[string][]float64) {
	t.Helper()
	m, res, err := TrainLSTM(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.EpochAccuracy, m.WeightSnapshot()
}

func assertIdenticalRuns(t *testing.T, label string, accA, accB []float64, wA, wB map[string][]float64) {
	t.Helper()
	if len(accA) != len(accB) {
		t.Fatalf("%s: epoch count %d vs %d", label, len(accA), len(accB))
	}
	for e := range accA {
		if accA[e] != accB[e] {
			t.Errorf("%s: epoch %d accuracy %v vs %v (must be bit-identical)", label, e, accA[e], accB[e])
		}
	}
	if len(wA) != len(wB) {
		t.Fatalf("%s: parameter count %d vs %d", label, len(wA), len(wB))
	}
	for name, a := range wA {
		b := wB[name]
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v (must be bit-identical)", label, name, i, a[i], b[i])
			}
		}
	}
}

// TestTrainLSTMWorkerEquivalence is the headline determinism guarantee:
// the same options must produce bit-identical accuracy curves and weight
// tensors no matter how many workers accumulate the gradients.
func TestTrainLSTMWorkerEquivalence(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	refAcc, refW := trainOnce(t, d, parallelTestOpts(8, 1))
	workerCounts := []int{2, 4, runtime.NumCPU()}
	for _, w := range workerCounts {
		accW, wW := trainOnce(t, d, parallelTestOpts(8, w))
		assertIdenticalRuns(t, "workers=1 vs workers="+strconv.Itoa(w), refAcc, accW, refW, wW)
	}
}

// TestTrainLSTMBatchBoundary covers the ragged final batch (52 sequences,
// batch 8 → last batch of 4, fewer sequences than shards) and a batch
// smaller than trainShards.
func TestTrainLSTMBatchBoundary(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	for _, batch := range []int{3, 5} {
		accA, wA := trainOnce(t, d, parallelTestOpts(batch, 1))
		accB, wB := trainOnce(t, d, parallelTestOpts(batch, 4))
		assertIdenticalRuns(t, "batch="+strconv.Itoa(batch), accA, accB, wA, wB)
	}
}

// TestTrainLSTMBatchedDiffersFromSerial is a sanity check on the semantics:
// BatchSize > 1 averages gradients per batch, which is a different training
// trajectory from per-sequence updates — the equivalence tests above must
// not be passing vacuously because the batch machinery is a no-op.
func TestTrainLSTMBatchedDiffersFromSerial(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	_, wSerial := trainOnce(t, d, parallelTestOpts(1, 1))
	_, wBatched := trainOnce(t, d, parallelTestOpts(8, 1))
	for name, a := range wSerial {
		b := wBatched[name]
		for i := range a {
			if a[i] != b[i] {
				return // trajectories diverged, as they should
			}
		}
		_ = name
	}
	t.Fatal("batched training produced identical weights to serial per-sequence training")
}

// TestEvalIndicesProperties checks the seeded eval subsample: identity when
// uncapped, and a sorted duplicate-free in-range selection when capped.
func TestEvalIndicesProperties(t *testing.T) {
	if got := EvalIndices(5, 0, 1); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("uncapped EvalIndices = %v, want identity", got)
	}
	if got := EvalIndices(3, 10, 1); len(got) != 3 {
		t.Fatalf("n<=max EvalIndices = %v, want identity", got)
	}
	got := EvalIndices(100, 30, 7)
	if len(got) != 30 {
		t.Fatalf("capped EvalIndices returned %d indices, want 30", len(got))
	}
	for i, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("index %d out of range", v)
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("indices not strictly increasing: %v", got)
		}
	}
	// Different seeds must select different subsets (the whole point of the
	// fix: the old code always scored the same leading prefix).
	other := EvalIndices(100, 30, 8)
	same := true
	for i := range got {
		if got[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 selected the same eval subset")
	}
}

// TestEvalIndicesGolden pins the exact index sets so the eval subsample —
// and therefore every recorded accuracy curve — cannot drift silently.
func TestEvalIndicesGolden(t *testing.T) {
	cases := []struct {
		n, max int
		seed   int64
		want   []int
	}{
		{20, 6, 1, []int{1, 4, 7, 11, 12, 19}},
		{500, 10, 42, []int{105, 121, 221, 314, 355, 356, 396, 480, 493, 497}},
	}
	for _, c := range cases {
		got := EvalIndices(c.n, c.max, c.seed)
		if len(got) != len(c.want) {
			t.Fatalf("EvalIndices(%d,%d,%d) = %v, want %v", c.n, c.max, c.seed, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("EvalIndices(%d,%d,%d) = %v, want %v", c.n, c.max, c.seed, got, c.want)
			}
		}
	}
}

// TestBatchSizeOneMatchesLegacySerial pins the compatibility contract:
// TrainLSTM at BatchSize 1 runs one-sequence batches through the sharded
// minibatch loop, and must reproduce, bit for bit, the classic per-sequence
// loop — TrainSequence over the same seeded subsample, scored by the same
// evaluation.
func TestBatchSizeOneMatchesLegacySerial(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	opts := parallelTestOpts(1, 1)
	acc, w := trainOnce(t, d, opts)

	cfg := opts.Config
	cfg.Vocab = len(d.Vocab)
	m, err := ml.NewAttentionLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainSeqs := d.Sequences(opts.HistoryLen, true)
	testSeqs := d.Sequences(opts.HistoryLen, false)
	if len(trainSeqs) <= opts.MaxTrainSequences {
		t.Fatalf("%d training sequences do not exercise the %d-sequence subsample", len(trainSeqs), opts.MaxTrainSequences)
	}
	r := rand.New(rand.NewSource(opts.Seed))
	var serialAcc []float64
	for e := 0; e < opts.Epochs; e++ {
		for _, i := range r.Perm(len(trainSeqs))[:opts.MaxTrainSequences] {
			s := trainSeqs[i]
			m.TrainSequence(s.Tokens, s.Labels, s.PredictFrom)
		}
		serialAcc = append(serialAcc, EvalLSTM(m, testSeqs, opts.MaxEvalSequences, opts.Seed))
	}
	assertIdenticalRuns(t, "batch=1 vs per-sequence loop", acc, serialAcc, w, m.WeightSnapshot())
}
