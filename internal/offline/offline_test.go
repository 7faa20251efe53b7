package offline

import (
	"strings"
	"testing"

	"glider/internal/ml"
	"glider/internal/obs"
	"glider/internal/trace"
	"glider/internal/workload"
)

// testDataset builds a small dataset once per test binary.
func testDataset(t *testing.T, name string, n int) *Dataset {
	t.Helper()
	spec, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDataset(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildDatasetBasics(t *testing.T) {
	d := testDataset(t, "omnetpp", 60000)
	if d.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if len(d.PCs) != len(d.Tokens) || len(d.Tokens) != len(d.Labels) {
		t.Fatal("parallel slices misaligned")
	}
	if d.TrainEnd <= 0 || d.TrainEnd >= d.Len() {
		t.Fatalf("bad split at %d of %d", d.TrainEnd, d.Len())
	}
	ratio := float64(d.TrainEnd) / float64(d.Len())
	if ratio < 0.74 || ratio > 0.76 {
		t.Fatalf("split ratio %.3f, want 0.75", ratio)
	}
	for i, tok := range d.Tokens {
		if tok < 0 || tok >= len(d.Vocab) {
			t.Fatalf("token %d out of vocab at %d", tok, i)
		}
		if d.Vocab[tok] != d.PCs[i] {
			t.Fatal("vocab mapping inconsistent")
		}
	}
	f := d.FriendlyFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("friendly fraction %v — labels degenerate", f)
	}
}

func TestBuildDatasetFiltersL1L2(t *testing.T) {
	// A trace that fits entirely in the L1 reaches the LLC only on its
	// compulsory misses: the dataset must shrink to (at most) the 4
	// distinct blocks, demonstrating the upper levels filter the stream.
	spec := workload.Custom("offline-l1-resident", workload.Ingest, func(n int, seed int64) (*trace.Trace, error) {
		tr := trace.New("offline-l1-resident", n)
		for i := 0; i < n; i++ {
			tr.Append(trace.Access{PC: 1, Addr: uint64(i%4) << trace.BlockShift})
		}
		return tr, nil
	})
	d, err := BuildDataset(spec, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() > 4 {
		t.Fatalf("L1-resident trace produced %d LLC accesses, want ≤ 4", d.Len())
	}
}

func TestSequencesShape(t *testing.T) {
	d := testDataset(t, "mcf", 60000)
	n := 10
	train := d.Sequences(n, true)
	test := d.Sequences(n, false)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("no sequences")
	}
	for _, s := range train {
		if len(s.Tokens) != 2*n || len(s.Labels) != 2*n || s.PredictFrom != n {
			t.Fatalf("bad sequence shape %+v", s)
		}
		if s.Start+2*n > d.TrainEnd {
			t.Fatal("train sequence leaks into test region")
		}
	}
	// Overlap: consecutive sequences share N tokens.
	if len(train) >= 2 && train[1].Start-train[0].Start != n {
		t.Fatalf("stride = %d, want %d", train[1].Start-train[0].Start, n)
	}
	for _, s := range test {
		if s.Start < d.TrainEnd {
			t.Fatal("test sequence starts in train region")
		}
	}
}

func TestUniqueHistories(t *testing.T) {
	d := &Dataset{
		PCs:    []uint64{1, 2, 1, 3, 4},
		Tokens: []int{0, 1, 0, 2, 3},
		Labels: make([]bool, 5),
	}
	h := d.UniqueHistories(2)
	// Before access 0: empty. Before access 2: {1,2}. Before access 3:
	// {2,1} (1 moved to MRU). Before access 4: {1,3}.
	if len(h[0]) != 0 {
		t.Fatalf("h[0] = %v", h[0])
	}
	if len(h[2]) != 2 {
		t.Fatalf("h[2] = %v", h[2])
	}
	has := func(hist []ml.Feature, pc uint64) bool {
		for _, f := range hist {
			if f == (ml.Feature{PC: pc}) {
				return true
			}
		}
		return false
	}
	if !has(h[4], 1) || !has(h[4], 3) || has(h[4], 2) {
		t.Fatalf("h[4] = %v, want {1,3} (2 evicted as LRU)", h[4])
	}
}

func TestOrderedHistories(t *testing.T) {
	d := &Dataset{PCs: []uint64{1, 2, 3, 4}}
	h := d.OrderedHistories(2)
	if len(h[0]) != 0 || len(h[1]) != 1 {
		t.Fatal("history lengths wrong at stream head")
	}
	if len(h[3]) != 2 || h[3][0] != (ml.Feature{Pos: 0, PC: 3}) || h[3][1] != (ml.Feature{Pos: 1, PC: 2}) {
		t.Fatalf("h[3] = %v, want [{0 3} {1 2}] (most recent first, at most h)", h[3])
	}
}

func TestTrainLinearModelsImprove(t *testing.T) {
	d := testDataset(t, "omnetpp", 120000)
	_, hk := TrainHawkeyeOffline(d, 2)
	_, isvm, err := TrainISVMOffline(d, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, perc, err := TrainOrderedSVMOffline(d, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := d.FriendlyFraction()
	if base > 0.5 {
		base = 1 - base
	}
	majority := 1 - base
	if hk.FinalAccuracy() < majority-0.05 {
		t.Fatalf("Hawkeye offline accuracy %.3f below majority %.3f", hk.FinalAccuracy(), majority)
	}
	if isvm.FinalAccuracy() < hk.FinalAccuracy()-0.02 {
		t.Fatalf("offline ISVM (%.3f) should not trail Hawkeye (%.3f)", isvm.FinalAccuracy(), hk.FinalAccuracy())
	}
	if perc.FinalAccuracy() <= 0.5 {
		t.Fatalf("perceptron accuracy %.3f", perc.FinalAccuracy())
	}
	if len(hk.EpochAccuracy) != 2 {
		t.Fatalf("epoch curve %v", hk.EpochAccuracy)
	}
}

func TestISVMBeatsHawkeyeOnContextBenchmark(t *testing.T) {
	// omnetpp's context component makes its target PCs bimodal per PC: the
	// unordered-history ISVM must separate them, the PC-only counters
	// cannot (the paper's Figure 9 claim).
	d := testDataset(t, "omnetpp", 200000)
	_, hk := TrainHawkeyeOffline(d, 2)
	_, isvm, err := TrainISVMOffline(d, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if isvm.FinalAccuracy() <= hk.FinalAccuracy() {
		t.Fatalf("ISVM (%.3f) should beat Hawkeye (%.3f) on omnetpp", isvm.FinalAccuracy(), hk.FinalAccuracy())
	}
}

func TestLSTMTrainsAndEvaluates(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	opts := LSTMOptions{
		HistoryLen:        10,
		Epochs:            2,
		MaxTrainSequences: 60,
		MaxEvalSequences:  40,
		Config:            ml.AttentionLSTMConfig{Vocab: 1, Embed: 16, Hidden: 16, LR: 0.005, ClipNorm: 5, Seed: 1},
		Seed:              1,
		Sink:              obs.NewRingSink(8),
	}
	m, res, err := TrainLSTM(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(res.EpochAccuracy) != 2 {
		t.Fatalf("train result %+v", res)
	}
	events := opts.Sink.(*obs.RingSink).Events()
	if len(events) != 2 {
		t.Fatalf("%d epoch events, want 2", len(events))
	}
	for _, e := range events {
		if e.Fields["workload"] != "omnetpp" {
			t.Fatalf("epoch event %v: workload %v, want omnetpp", e.Fields, e.Fields["workload"])
		}
	}
	if res.FinalAccuracy() < 0.5 {
		t.Fatalf("LSTM accuracy %.3f is below coin flip", res.FinalAccuracy())
	}
}

func TestTrainLSTMRejectsHistoryLenZero(t *testing.T) {
	d := &Dataset{PCs: []uint64{1, 2}, Tokens: []int{0, 1}, Labels: make([]bool, 2), Vocab: []uint64{1, 2}, TrainEnd: 1}
	if _, _, err := TrainLSTM(d, LSTMOptions{HistoryLen: 0, Epochs: 1}); err == nil {
		t.Fatal("TrainLSTM accepted HistoryLen 0")
	}
}

// TestTrainersRejectShortHistory: every entry point that builds history
// features refuses a length below 1 with an error instead of panicking in
// the feature builder.
func TestTrainersRejectShortHistory(t *testing.T) {
	d := &Dataset{PCs: []uint64{1, 2}, Tokens: []int{0, 1}, Labels: make([]bool, 2), Vocab: []uint64{1, 2}, TrainEnd: 1}
	for _, n := range []int{0, -1} {
		for name, train := range map[string]func() error{
			"TrainISVMOffline": func() error {
				_, _, err := TrainISVMOffline(d, n, 1)
				return err
			},
			"TrainOrderedSVMOffline": func() error {
				_, _, err := TrainOrderedSVMOffline(d, n, 1)
				return err
			},
			"TrainMLPOffline": func() error {
				opts := DefaultMLPOptions()
				opts.K = n
				_, _, err := TrainMLPOffline(d, opts)
				return err
			},
			"SweepHistoryLength/linear": func() error {
				_, err := SweepHistoryLength(d, nil, []int{n}, LSTMOptions{Epochs: 1}, 1)
				return err
			},
			"SweepHistoryLength/lstm": func() error {
				_, err := SweepHistoryLength(d, []int{n}, nil, LSTMOptions{Epochs: 1}, 1)
				return err
			},
		} {
			if err := train(); err == nil || !strings.Contains(err.Error(), "history length") {
				t.Errorf("%s with history length %d: err = %v, want a history length error", name, n, err)
			}
		}
	}
}

func TestShuffleStudyRuns(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	opts := LSTMOptions{HistoryLen: 10, Epochs: 1, MaxTrainSequences: 40, MaxEvalSequences: 20, Seed: 1,
		Config: ml.AttentionLSTMConfig{Vocab: 1, Embed: 16, Hidden: 16, LR: 0.005, ClipNorm: 5, Seed: 1}}
	m, _, err := TrainLSTM(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := ShuffleStudy(m, d.Sequences(10, false), 20, 7)
	if res.Original <= 0 || res.Shuffled <= 0 {
		t.Fatalf("shuffle study %+v", res)
	}
}

func TestAttentionHeatmapShape(t *testing.T) {
	d := testDataset(t, "omnetpp", 80000)
	opts := LSTMOptions{HistoryLen: 10, Epochs: 1, MaxTrainSequences: 20, MaxEvalSequences: 10, Seed: 1,
		Config: ml.AttentionLSTMConfig{Vocab: 1, Embed: 8, Hidden: 8, LR: 0.005, ClipNorm: 5, Seed: 1}}
	m, _, err := TrainLSTM(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq := d.Sequences(10, false)[0]
	hm := AttentionHeatmap(m, seq, 5, 8)
	if len(hm.Rows) != 5 || len(hm.Offsets) != 8 {
		t.Fatalf("heatmap shape %dx%d", len(hm.Rows), len(hm.Offsets))
	}
	if hm.Offsets[0] != -8 || hm.Offsets[7] != -1 {
		t.Fatalf("offsets %v", hm.Offsets)
	}
}

func TestAnchorStudyFindsCallerPC(t *testing.T) {
	// Build a synthetic dataset with a perfect anchor relationship: target
	// PC 42's label equals "caller 10 appeared just before".
	var pcs []uint64
	var labels []bool
	for i := 0; i < 3000; i++ {
		caller := uint64(10 + i%2)
		pcs = append(pcs, caller, 99, 42)
		labels = append(labels, false, false, caller == 10)
	}
	d := &Dataset{Name: "synth"}
	idx := map[uint64]int{}
	for i, pc := range pcs {
		tok, ok := idx[pc]
		if !ok {
			tok = len(d.Vocab)
			idx[pc] = tok
			d.Vocab = append(d.Vocab, pc)
		}
		d.PCs = append(d.PCs, pc)
		d.Tokens = append(d.Tokens, tok)
		d.Labels = append(d.Labels, labels[i])
	}
	d.TrainEnd = int(0.75 * float64(d.Len()))

	opts := LSTMOptions{HistoryLen: 6, Epochs: 4, MaxTrainSequences: 150, MaxEvalSequences: 50, Seed: 1,
		Config: ml.AttentionLSTMConfig{Vocab: 1, Embed: 12, Hidden: 16, LR: 0.01, ClipNorm: 5, Seed: 1, Scale: 3}}
	m, _, err := TrainLSTM(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	hk, _ := TrainHawkeyeOffline(d, 1)
	rows := AnchorStudy(d, m, hk, []uint64{42}, 6, 60)
	if len(rows) != 1 {
		t.Fatalf("rows %v", rows)
	}
	r := rows[0]
	if r.Samples == 0 {
		t.Fatal("no samples for target PC")
	}
	if r.LSTMAccuracy <= r.HawkeyeAccuracy {
		t.Fatalf("LSTM (%.3f) should beat Hawkeye (%.3f) on the anchored PC", r.LSTMAccuracy, r.HawkeyeAccuracy)
	}
	// The anchor must be one of the context-carrying PCs: a caller marker,
	// or the intervening PC 99 whose recurrent hidden state already encodes
	// which caller preceded it (attention may legitimately pick either).
	if r.AnchorPC != 10 && r.AnchorPC != 11 && r.AnchorPC != 99 {
		t.Fatalf("anchor = %#x, want a context-carrying PC", r.AnchorPC)
	}
}

func TestAttentionWeightStudyRuns(t *testing.T) {
	d := testDataset(t, "omnetpp", 60000)
	opts := LSTMOptions{HistoryLen: 8, Epochs: 1, MaxTrainSequences: 20, MaxEvalSequences: 10, Seed: 1,
		Config: ml.AttentionLSTMConfig{Vocab: 1, Embed: 8, Hidden: 8, LR: 0.005, ClipNorm: 5, Seed: 1}}
	out, err := AttentionWeightStudy(d, []float64{1, 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Weights) == 0 {
		t.Fatalf("study output %+v", out)
	}
	if out[0].Scale != 1 || out[1].Scale != 3 {
		t.Fatal("scales not preserved")
	}
}

func TestSweepHistoryLengthRuns(t *testing.T) {
	d := testDataset(t, "omnetpp", 60000)
	opts := LSTMOptions{Epochs: 1, MaxTrainSequences: 15, MaxEvalSequences: 10, Seed: 1,
		Config: ml.AttentionLSTMConfig{Vocab: 1, Embed: 8, Hidden: 8, LR: 0.005, ClipNorm: 5, Seed: 1}}
	sweep, err := SweepHistoryLength(d, []int{5, 10}, []int{1, 3}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.LSTMAcc) != 2 || len(sweep.ISVMAcc) != 2 || len(sweep.PercAcc) != 2 {
		t.Fatalf("sweep %+v", sweep)
	}
}

func TestMultiperspectiveFeatures(t *testing.T) {
	d := testDataset(t, "omnetpp", 60000)
	feats := d.MultiperspectiveFeatures(5)
	if len(feats) != d.Len() {
		t.Fatalf("features length %d != dataset %d", len(feats), d.Len())
	}
	for i, f := range feats[:100] {
		// current PC + ≤5 unique + ≤3 ordered + 2 address features
		if len(f) < 3 || len(f) > 11 {
			t.Fatalf("feature count %d at %d", len(f), i)
		}
		for _, idx := range f {
			if idx < 0 || idx >= 4096 {
				t.Fatalf("feature index %d out of space", idx)
			}
		}
	}
}

func TestTrainMLPOffline(t *testing.T) {
	d := testDataset(t, "omnetpp", 100000)
	opts := DefaultMLPOptions()
	opts.Epochs = 2
	opts.MaxTrainSamples = 20000
	_, res, err := TrainMLPOffline(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochAccuracy) != 2 {
		t.Fatalf("curve %v", res.EpochAccuracy)
	}
	base := d.FriendlyFraction()
	if base > 0.5 {
		base = 1 - base
	}
	if res.FinalAccuracy() < (1-base)-0.08 {
		t.Fatalf("MLP accuracy %.3f far below majority %.3f", res.FinalAccuracy(), 1-base)
	}
}
