package main

import (
	"io"
	"strings"
	"testing"
)

func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Runs: 1, Metrics: map[string]float64{"ns/op": ns, "B/op": 64}}
}

func TestCompareReports(t *testing.T) {
	old := Report{Benchmarks: []Benchmark{
		bench("BenchmarkA", 100),
		bench("BenchmarkB", 200),
		bench("BenchmarkGone", 10),
	}}
	new := Report{Benchmarks: []Benchmark{
		bench("BenchmarkA", 105), // +5%: inside threshold
		bench("BenchmarkB", 260), // +30%: regression
		bench("BenchmarkNew", 42),
	}}
	cr := compareReports(old, new, "ns/op", 10)
	if len(cr.Deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(cr.Deltas), cr.Deltas)
	}
	if cr.Deltas[0].Name != "BenchmarkA" || cr.Deltas[0].Regression {
		t.Errorf("BenchmarkA should be within threshold: %+v", cr.Deltas[0])
	}
	if cr.Deltas[1].Name != "BenchmarkB" || !cr.Deltas[1].Regression {
		t.Errorf("BenchmarkB should be a regression: %+v", cr.Deltas[1])
	}
	if got := cr.Deltas[1].DeltaPct; got < 29.9 || got > 30.1 {
		t.Errorf("BenchmarkB delta = %v, want ~30", got)
	}
	if cr.Regressions != 1 {
		t.Errorf("Regressions = %d, want 1", cr.Regressions)
	}
	if cr.WorstPct != cr.Deltas[1].DeltaPct {
		t.Errorf("WorstPct = %v, want %v", cr.WorstPct, cr.Deltas[1].DeltaPct)
	}
	if len(cr.OnlyOld) != 1 || cr.OnlyOld[0] != "BenchmarkGone" {
		t.Errorf("OnlyOld = %v", cr.OnlyOld)
	}
	if len(cr.OnlyNew) != 1 || cr.OnlyNew[0] != "BenchmarkNew" {
		t.Errorf("OnlyNew = %v", cr.OnlyNew)
	}
}

func TestCompareReportsImprovementNotRegression(t *testing.T) {
	old := Report{Benchmarks: []Benchmark{bench("BenchmarkA", 100)}}
	new := Report{Benchmarks: []Benchmark{bench("BenchmarkA", 50)}}
	cr := compareReports(old, new, "ns/op", 10)
	if cr.Regressions != 0 {
		t.Errorf("a 50%% improvement must not count as regression: %+v", cr)
	}
	if cr.WorstPct != 0 {
		t.Errorf("WorstPct = %v, want 0 (improvements don't raise it)", cr.WorstPct)
	}
}

func TestCompareReportsMissingMetric(t *testing.T) {
	old := Report{Benchmarks: []Benchmark{bench("BenchmarkA", 100)}}
	new := Report{Benchmarks: []Benchmark{bench("BenchmarkA", 100)}}
	cr := compareReports(old, new, "seqs/s", 10)
	if len(cr.Deltas) != 0 {
		t.Errorf("metric absent from both sides must produce no delta: %+v", cr.Deltas)
	}
}

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkRunTable2Parallel/workers=4-8   	       5	 245000000 ns/op	 1024 B/op	 12 allocs/op")
	if !ok {
		t.Fatal("parseLine failed")
	}
	if b.Name != "BenchmarkRunTable2Parallel/workers=4" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Runs != 5 || b.Metrics["ns/op"] != 245000000 || b.Metrics["allocs/op"] != 12 {
		t.Errorf("parsed = %+v", b)
	}
}

// TestReadReportFoldsRepeatedSamples feeds three lines of one benchmark, as
// `go test -count 3` prints them, beside a one-line benchmark from a second
// run of the package: each name yields one entry holding the per-unit
// median and the sample count, and the package is listed once.
func TestReadReportFoldsRepeatedSamples(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"pkg: glider/internal/policy",
		"BenchmarkFRDAccess-2   	 7000000	       171.0 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkFRDAccess-2   	 8000000	       149.0 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkFRDAccess-2   	 8000000	       152.5 ns/op	       8 B/op	       1 allocs/op",
		"PASS",
		"pkg: glider/internal/policy",
		"BenchmarkLLCPolicy/lru-2         	      30	  77.1 ns/event	       6.000 allocs/op",
		"PASS",
	}, "\n")
	rep, err := readReport(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if empty, _ := readReport(strings.NewReader("PASS"), io.Discard); empty.Benchmarks == nil {
		t.Error("no benchmark lines must give an empty list, not null")
	}
	if len(rep.Pkgs) != 1 {
		t.Errorf("Pkgs = %v, want the one package once", rep.Pkgs)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	frd := rep.Benchmarks[0]
	if frd.Name != "BenchmarkFRDAccess" || frd.Samples != 3 || frd.Runs != 23000000 {
		t.Errorf("folded entry = %+v, want BenchmarkFRDAccess, 3 samples, 23000000 runs", frd)
	}
	for unit, want := range map[string]float64{"ns/op": 152.5, "B/op": 0, "allocs/op": 0} {
		if got := frd.Metrics[unit]; got != want {
			t.Errorf("median %s = %v, want %v", unit, got, want)
		}
	}
	if lru := rep.Benchmarks[1]; lru.Name != "BenchmarkLLCPolicy/lru" || lru.Samples != 1 || lru.Metrics["ns/event"] != 77.1 {
		t.Errorf("single-sample entry = %+v", lru)
	}
}
