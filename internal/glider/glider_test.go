package glider

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPCHRUniqueAndLRU(t *testing.T) {
	h := NewPCHR(3)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1) // move-to-front, no duplicate
	if h.Len() != 3 {
		t.Fatalf("len = %d, want 3", h.Len())
	}
	h.Observe(4) // evicts LRU (2)
	if h.Contains(2) {
		t.Fatal("LRU entry 2 not evicted")
	}
	for _, pc := range []uint64{1, 3, 4} {
		if !h.Contains(pc) {
			t.Fatalf("pc %d missing", pc)
		}
	}
}

func TestPCHRNoDuplicates(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewPCHR(5)
		for _, v := range raw {
			h.Observe(uint64(v % 16))
		}
		snap := h.Snapshot()
		if len(snap) > 5 {
			return false
		}
		seen := map[uint64]bool{}
		for _, pc := range snap {
			if seen[pc] {
				return false
			}
			seen[pc] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPCHREffectiveHistoryLongerThanK(t *testing.T) {
	// The paper's point: with duplicates collapsed, k unique PCs can span a
	// much longer raw access window. Observe a run of 30 accesses from only
	// 3 distinct PCs plus an early marker: the marker survives.
	h := NewPCHR(5)
	h.Observe(99) // marker
	for i := 0; i < 30; i++ {
		h.Observe(uint64(i % 3))
	}
	if !h.Contains(99) {
		t.Fatal("marker evicted: unique history should span long raw windows")
	}
}

func TestPCHRSnapshotIsCopy(t *testing.T) {
	h := NewPCHR(2)
	h.Observe(1)
	snap := h.Snapshot()
	h.Observe(2)
	h.Observe(3)
	if len(snap) != 1 || snap[0] != 1 {
		t.Fatal("snapshot aliased internal storage")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TableSize: 3, WeightsPerISVM: 16, HistoryLen: 5, Cores: 1, TrainingThresholds: []int{0}},
		{TableSize: 16, WeightsPerISVM: 5, HistoryLen: 5, Cores: 1, TrainingThresholds: []int{0}},
		{TableSize: 16, WeightsPerISVM: 16, HistoryLen: 0, Cores: 1, TrainingThresholds: []int{0}},
		{TableSize: 16, WeightsPerISVM: 16, HistoryLen: 5, Cores: 0, TrainingThresholds: []int{0}},
		{TableSize: 16, WeightsPerISVM: 16, HistoryLen: 5, Cores: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			NewPredictor(cfg)
		}()
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.TableSize != 2048 || cfg.WeightsPerISVM != 16 || cfg.HistoryLen != 5 {
		t.Fatalf("structure deviates from §4.4: %+v", cfg)
	}
	if cfg.FriendlyThreshold != 60 || cfg.AverseThreshold != 0 {
		t.Fatalf("prediction thresholds deviate from §4.4: %+v", cfg)
	}
	want := []int{0, 30, 100, 300, 3000}
	for i, v := range want {
		if cfg.TrainingThresholds[i] != v {
			t.Fatalf("training thresholds deviate: %v", cfg.TrainingThresholds)
		}
	}
}

func TestPredictorLearnsContext(t *testing.T) {
	p := NewPredictor(DefaultConfig(1))
	friendlyHist := []uint64{11, 12, 13}
	averseHist := []uint64{21, 22, 23}
	for i := 0; i < 100; i++ {
		p.Train(5, friendlyHist, true)
		p.Train(5, averseHist, false)
	}
	if _, c := p.Predict(5, friendlyHist); c == Averse {
		t.Fatal("friendly context predicted averse")
	}
	if _, c := p.Predict(5, averseHist); c != Averse {
		t.Fatalf("averse context predicted %v", c)
	}
}

func TestPredictorThreeWayClasses(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TrainingThresholds = []int{3000} // always update, let sums grow
	p := NewPredictor(cfg)
	hist := []uint64{1, 2, 3, 4, 5}
	for i := 0; i < 200; i++ {
		p.Train(7, hist, true)
	}
	sum, c := p.Predict(7, hist)
	if c != Friendly || sum < cfg.FriendlyThreshold {
		t.Fatalf("high-confidence prediction expected, got sum=%d class=%v", sum, c)
	}
	// A fresh (pc, history) sits between the thresholds.
	if _, c := p.Predict(8, []uint64{9}); c != FriendlyLowConfidence {
		t.Fatalf("untrained prediction should be low-confidence friendly, got %v", c)
	}
}

func TestWeightSaturation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TrainingThresholds = []int{1 << 20} // never skip
	p := NewPredictor(cfg)
	hist := []uint64{1}
	for i := 0; i < 1000; i++ {
		p.Train(7, hist, true)
	}
	if s := p.Sum(7, hist); s != 127 {
		t.Fatalf("weight should saturate at 127, sum = %d", s)
	}
	for i := 0; i < 2000; i++ {
		p.Train(7, hist, false)
	}
	if s := p.Sum(7, hist); s != -128 {
		t.Fatalf("weight should saturate at -128, sum = %d", s)
	}
}

func TestMarginSkipsUpdates(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TrainingThresholds = []int{0}
	p := NewPredictor(cfg)
	hist := []uint64{1, 2}
	for i := 0; i < 50; i++ {
		p.Train(7, hist, true)
	}
	// With θ=0, training stops as soon as the margin is positive.
	if s := p.Sum(7, hist); s > 4 {
		t.Fatalf("θ=0 should keep margins tiny, sum = %d", s)
	}
	_, _, _, skipped := p.DebugCounts()
	if skipped == 0 {
		t.Fatal("no updates were skipped at θ=0")
	}
}

func TestThresholdAdaptsUpUnderErrors(t *testing.T) {
	p := NewPredictor(DefaultConfig(1))
	start := p.TrainingThreshold()
	r := rand.New(rand.NewSource(1))
	// Alternating labels for the same features force persistent errors.
	for i := 0; i < 5000; i++ {
		p.Train(7, []uint64{1, 2, 3}, r.Intn(2) == 0)
	}
	if p.TrainingThreshold() < start {
		t.Fatalf("threshold decreased under persistent errors: %d → %d", start, p.TrainingThreshold())
	}
}

func TestPerCorePCHRIsolation(t *testing.T) {
	p := NewPredictor(DefaultConfig(2))
	p.Observe(0, 1)
	p.Observe(1, 2)
	h0 := p.History(0)
	h1 := p.History(1)
	if len(h0) != 1 || h0[0] != 1 || len(h1) != 1 || h1[0] != 2 {
		t.Fatalf("per-core histories mixed: %v %v", h0, h1)
	}
}

func TestSizeBytesMatchesPaperBudget(t *testing.T) {
	// §5.4: 2048 PCs × 16 weights × 1 byte = 32 KB of ISVM state (32.8 KB
	// in the paper's decimal-KB accounting), plus a ~0.1 KB PCHR.
	p := NewPredictor(DefaultConfig(1))
	if got := p.SizeBytes(); got != 2048*16+5*8 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestCostReport(t *testing.T) {
	p := NewPredictor(DefaultConfig(1))
	c := p.Cost()
	if c.TrainOpsPerSample != 8 || c.PredictOpsPerSample != 8 {
		t.Fatalf("per-sample ops = %+v, want 8 (Table 3)", c)
	}
}

func TestClassString(t *testing.T) {
	if Averse.String() != "averse" || Friendly.String() != "friendly" || FriendlyLowConfidence.String() != "friendly-low" {
		t.Fatal("Class.String mismatch")
	}
}

func TestSumEmptyHistory(t *testing.T) {
	p := NewPredictor(DefaultConfig(1))
	if p.Sum(1, nil) != 0 {
		t.Fatal("empty history should sum to 0")
	}
}

// TestPredictorIntrospection pins the diagnostic views of the ISVM table
// that the policy's observability hooks and predict cells report:
// WeightStatsNow over every weight, and TopRows ranking rows by L1 norm
// (ties by index), skipping all-zero rows and returning copies.
func TestPredictorIntrospection(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TableSize, cfg.WeightsPerISVM = 4, 4
	p := NewPredictor(cfg)
	copy(p.weights, []int8{
		0, 0, 0, 0, // row 0: untouched
		127, -1, 0, 0, // row 1: L1 128
		-128, 0, 0, 0, // row 2: L1 128
		3, -2, 0, 1, // row 3: L1 6
	})
	want := WeightStats{Total: 16, NonZero: 6, Positive: 3, Negative: 3, Saturated: 2, Min: -128, Max: 127, MeanAbs: 262.0 / 6}
	if got := p.WeightStatsNow(); got != want {
		t.Fatalf("WeightStatsNow = %+v, want %+v", got, want)
	}
	rows := p.TopRows(2)
	wantRows := []RowSnapshot{
		{Index: 1, L1: 128, Weights: []int8{127, -1, 0, 0}},
		{Index: 2, L1: 128, Weights: []int8{-128, 0, 0, 0}},
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("TopRows(2) = %+v, want %+v", rows, wantRows)
	}
	rows[0].Weights[0] = 0
	if p.weights[4] != 127 {
		t.Fatal("TopRows returned a view of the table, not a copy")
	}
	if got := p.TopRows(10); len(got) != 3 || got[2].Index != 3 || got[2].L1 != 6 {
		t.Fatalf("TopRows(10) = %+v, want rows 1, 2, 3", got)
	}
	if got := p.TopRows(0); got != nil {
		t.Fatalf("TopRows(0) = %+v, want nil", got)
	}

	// Training moves exactly the trained PC's row.
	q := NewPredictor(DefaultConfig(1))
	for i := 0; i < 10; i++ {
		q.Train(5, []uint64{1, 2, 3}, true)
	}
	top := q.TopRows(5)
	if len(top) != 1 || top[0].Index != q.tableIndex(5) {
		t.Fatalf("after training PC 5: TopRows %+v, want its row %d alone", top, q.tableIndex(5))
	}
	if s := q.WeightStatsNow(); s.Positive == 0 || s.Negative != 0 {
		t.Fatalf("after friendly training: %+v", s)
	}
}
