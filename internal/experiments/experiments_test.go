package experiments

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"glider/internal/cpu"
	"glider/internal/workload"
)

// The experiment harness is exercised end-to-end at Quick scale: every
// table/figure must compute without error and render non-empty output.

func TestTable1(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	tab := RunTable1()
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"L1 D-Cache", "32 KB", "2048 KB", "tRP=tRCD=tCAS=24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	t.Parallel()
	tab, err := RunTable2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Accesses == 0 || r.PCs == 0 {
			t.Fatalf("empty row %+v", r)
		}
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "omnetpp") {
		t.Fatal("render missing benchmark names")
	}
}

func TestFig4(t *testing.T) {
	t.Parallel()
	f, err := RunFig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Curves) != 5 {
		t.Fatalf("got %d curves, want 5", len(f.Curves))
	}
	// CDFs end at 1.
	for i, cdf := range f.CDF {
		if cdf[len(cdf)-1] < 0.999 {
			t.Fatalf("curve %d CDF does not reach 1: %v", i, cdf[len(cdf)-1])
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "scale=5") {
		t.Fatal("render missing scale curves")
	}
}

func TestFig5(t *testing.T) {
	t.Parallel()
	f, err := RunFig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Wide.Rows) == 0 || len(f.Narrow.Rows) != 10 {
		t.Fatalf("heatmap shapes: wide %d, narrow %d", len(f.Wide.Rows), len(f.Narrow.Rows))
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if len(buf.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestFig6(t *testing.T) {
	t.Parallel()
	f, err := RunFig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 7 { // 6 benchmarks + average
		t.Fatalf("got %d rows", len(f.Rows))
	}
	avg := f.Rows[len(f.Rows)-1]
	if avg.Name != "average" || avg.Original <= 0 {
		t.Fatalf("average row %+v", avg)
	}
}

func TestFig9(t *testing.T) {
	t.Parallel()
	f, err := RunFig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 7 {
		t.Fatalf("got %d rows", len(f.Rows))
	}
	for _, r := range f.Rows {
		for _, acc := range []float64{r.Hawkeye, r.Perceptron, r.ISVM, r.LSTM} {
			if acc <= 0 || acc > 1 {
				t.Fatalf("accuracy out of range in %+v", r)
			}
		}
	}
}

func TestFig11AndFig12(t *testing.T) {
	t.Parallel()
	cfg := Quick()
	f, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 33 {
		t.Fatalf("got %d rows, want 33", len(f.Rows))
	}
	if &f.Policies[0] == &policySet[0] {
		t.Fatal("Fig11.Policies shares the package's policy set")
	}
	if _, ok := f.SuiteAverages["ALL"]; !ok {
		t.Fatal("missing overall average")
	}
	for _, suite := range []string{"SPEC06", "SPEC17", "GAP"} {
		if _, ok := f.SuiteAverages[suite]; !ok {
			t.Fatalf("missing %s average", suite)
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Fatal("render missing Figure 12 section")
	}
}

// quickFig13 runs Figure 13 at Quick() once for the tests that read it.
var quickFig13 = sync.OnceValues(func() (Fig13, error) { return RunFig13(Quick()) })

func TestFig13(t *testing.T) {
	t.Parallel()
	f, err := quickFig13()
	if err != nil {
		t.Fatal(err)
	}
	if &f.Policies[0] == &policySet[0] {
		t.Fatal("Fig13.Policies shares the package's policy set")
	}
	for _, pol := range f.Policies {
		if len(f.Speedups[pol]) != Quick().Mixes {
			t.Fatalf("%s has %d mixes", pol, len(f.Speedups[pol]))
		}
		// Sorted ascending (the paper's S-curve).
		s := f.Speedups[pol]
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				t.Fatal("speedups not sorted")
			}
		}
	}
}

// TestFig13MatchesWeightedSpeedup pins Figure 13's deduplicated solo table
// to cpu.WeightedSpeedup, the one definition of the §5.1 metric: core i of a
// mix runs the trace seeded cpu.CoreSeed(cfg.Seed, i), and its solo
// baseline must replay that same trace. At Quick's trace length at least
// one speedup must be nonzero.
func TestFig13MatchesWeightedSpeedup(t *testing.T) {
	t.Parallel()
	cfg := Quick()
	f, err := quickFig13()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := map[string][]float64{}
	for _, mix := range workload.Mixes(cfg.Mixes, 4, cfg.Seed) {
		lru, err := cpu.WeightedSpeedup(ctx, mix, "lru", cfg.MixAccessesPerCore, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range f.Policies {
			ws, err := cpu.WeightedSpeedup(ctx, mix, pol, cfg.MixAccessesPerCore, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			want[pol] = append(want[pol], 100*(ws-lru)/lru)
		}
	}
	separated := false
	for _, pol := range f.Policies {
		sort.Float64s(want[pol])
		if !reflect.DeepEqual(f.Speedups[pol], want[pol]) {
			t.Fatalf("%s: Figure 13 speedups %v, cpu.WeightedSpeedup %v", pol, f.Speedups[pol], want[pol])
		}
		for _, v := range want[pol] {
			separated = separated || v != 0
		}
	}
	if !separated {
		t.Fatal("every speedup is 0: the mixes are too short to tell the baselines apart")
	}
}

func TestFig14(t *testing.T) {
	t.Parallel()
	f, err := RunFig14(Quick(), []int{5, 10}, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sweep.LSTMAcc) != 2 || len(f.Sweep.ISVMAcc) != 2 {
		t.Fatalf("sweep %+v", f.Sweep)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "offline ISVM") {
		t.Fatal("render missing ISVM series")
	}
}

func TestFig15(t *testing.T) {
	t.Parallel()
	f, err := RunFig15(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ISVM) != f.Epochs || len(f.LSTM) != f.Epochs {
		t.Fatalf("epoch curves wrong length: %+v", f)
	}
}

func TestTable3(t *testing.T) {
	t.Parallel()
	tab, err := RunTable3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// The paper's headline: the LSTM is orders of magnitude larger than
	// Glider. At Quick scale the vocabulary (and hence the embedding) is
	// small, so require a 10× gap here; at paper-scale vocabularies the
	// ratio exceeds three orders of magnitude.
	if tab.Rows[0].SizeKB < 10*tab.Rows[1].SizeKB {
		t.Fatalf("LSTM (%.0f KB) should dwarf Glider (%.0f KB)", tab.Rows[0].SizeKB, tab.Rows[1].SizeKB)
	}
	if tab.Rows[1].TrainOps != 8 {
		t.Fatalf("Glider train ops = %d, want 8 (Table 3)", tab.Rows[1].TrainOps)
	}
}

func TestTable4(t *testing.T) {
	t.Parallel()
	tab, err := RunTable4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d target rows", len(tab.Rows))
	}
	sampled := 0
	for _, r := range tab.Rows {
		sampled += r.Samples
	}
	if sampled == 0 {
		t.Fatal("no samples for any target PC")
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "anchor") {
		t.Fatal("render missing anchor column")
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	cfg := Quick()
	for _, run := range []func(Config) (Ablation, error){
		RunAblationOptgenVsBelady,
		RunAblationOrderedVsUnordered,
		RunAblationThreshold,
		RunAblationTableSize,
		RunAblationHistoryLen,
	} {
		a, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) == 0 || a.Title == "" {
			t.Fatalf("empty ablation %+v", a)
		}
		var buf bytes.Buffer
		a.Render(&buf)
		if len(buf.String()) == 0 {
			t.Fatal("empty render")
		}
	}
}

func TestQuickAndDefaultConfigs(t *testing.T) {
	t.Parallel()
	q, d := Quick(), Default()
	if q.Accesses >= d.Accesses || q.Mixes >= d.Mixes {
		t.Fatal("Quick config should be smaller than Default")
	}
	if d.Mixes != 100 {
		t.Fatalf("Default mixes = %d, want 100 (paper §5.1)", d.Mixes)
	}
}

func TestExtensionMLP(t *testing.T) {
	t.Parallel()
	e, err := RunExtensionMLP(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 2 {
		t.Fatalf("got %d rows", len(e.Rows))
	}
	for _, r := range e.Rows {
		if r.MLP <= 0.5 || r.MLPWeights == 0 {
			t.Fatalf("MLP row degenerate: %+v", r)
		}
	}
	var buf bytes.Buffer
	e.Render(&buf)
	if !strings.Contains(buf.String(), "multiperspective") {
		t.Fatal("render missing header")
	}
}

func TestExtensionQuantization(t *testing.T) {
	t.Parallel()
	q, err := RunExtensionQuantization(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("rows %v", q.Rows)
	}
	r := q.Rows[0]
	if r.CompressionRatio < 7 {
		t.Fatalf("compression ratio %v", r.CompressionRatio)
	}
	// int8 quantization must not destroy the model.
	if r.AccuracyInt8 < r.AccuracyFloat-0.05 {
		t.Fatalf("quantization dropped accuracy %v → %v", r.AccuracyFloat, r.AccuracyInt8)
	}
	var buf bytes.Buffer
	q.Render(&buf)
	if !strings.Contains(buf.String(), "int8") {
		t.Fatal("render missing header")
	}
}

func TestLineage(t *testing.T) {
	t.Parallel()
	cfg := Quick()
	cfg.Accesses = 60000
	l, err := RunLineage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != 3 || len(l.Policies) != 14 || len(l.Cells) != 3*14 {
		t.Fatalf("shape: %d benchmarks, %d policies, %d cells", len(l.Workloads), len(l.Policies), len(l.Cells))
	}
	for _, c := range l.Cells {
		if mr := c.LLCMissRate; mr <= 0 || mr > 1 {
			t.Fatalf("%s/%s miss rate %v", c.Workload, c.Policy, mr)
		}
	}
	if l.Policies[0] != "lru" || l.avgReduction(0) != 0 {
		t.Fatalf("LRU self-reduction %v, want 0", l.avgReduction(0))
	}
	var buf bytes.Buffer
	l.Render(&buf)
	if !strings.Contains(buf.String(), "glider") {
		t.Fatal("render missing policies")
	}
}
