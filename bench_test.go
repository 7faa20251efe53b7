// Package repro's top-level benchmarks regenerate every table and figure of
// the paper at reduced (Quick) scale, so `go test -bench=.` reproduces the
// full evaluation pipeline end to end. Paper-scale runs use cmd/experiments.
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"glider/internal/cpu"
	"glider/internal/experiments"
	"glider/internal/workload"
)

// render discards output; benchmarks measure compute, not I/O.
type discardRenderer interface{ Render(w io.Writer) }

func renderQuiet(b *testing.B, r discardRenderer) {
	b.Helper()
	r.Render(io.Discard)
}

func BenchmarkTable1Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderQuiet(b, experiments.RunTable1())
	}
}

func BenchmarkTable2Stats(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, t)
	}
}

func BenchmarkFig4AttentionCDF(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig5AttentionHeatmap(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig6Shuffle(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig9OfflineAccuracy(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig10OnlineAccuracy(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig11MissReduction(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

// BenchmarkFig12Speedup shares its simulation with Figure 11 (the harness
// computes both metrics in one pass); it is kept as a separate bench target
// per the experiment index.
func BenchmarkFig12Speedup(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig13Multicore(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig14SequenceLength(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig14(cfg, []int{5, 10}, []int{2, 5})
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkFig15Convergence(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, f)
	}
}

func BenchmarkTable3Cost(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, t)
	}
}

func BenchmarkTable4Anchor(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, t)
	}
}

// --- Ablations (DESIGN.md §4) ---

func BenchmarkAblationOptgenVsBelady(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationOptgenVsBelady(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, a)
	}
}

func BenchmarkAblationOrderedVsUnordered(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationOrderedVsUnordered(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, a)
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationThreshold(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, a)
	}
}

func BenchmarkAblationTableSize(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationTableSize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, a)
	}
}

func BenchmarkAblationHistoryLen(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationHistoryLen(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, a)
	}
}

// BenchmarkRunTable2Parallel measures the worker-pool scaling of the
// parallel experiment runner (internal/simrunner). Results are identical at
// every worker count; only wall-clock time changes. On a single-CPU box the
// variants coincide — compare workers=1 vs workers=4 on multi-core hardware.
func BenchmarkRunTable2Parallel(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Quick()
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Reset the trace store so every iteration measures a cold
				// run, like one cmd/experiments invocation; a warm store
				// across iterations would overstate the speedup.
				workload.DefaultStore.Reset()
				if _, err := experiments.RunTable2(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11Sweep measures the full single-core policy sweep (33
// benchmarks × 5 policies at Quick scale): the workload the trace store and
// the one-pass L1/L2 capture target. BENCH_sim.json records its results.
func BenchmarkFig11Sweep(b *testing.B) {
	cfg := experiments.Quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Cold store per iteration: see BenchmarkRunTable2Parallel.
		workload.DefaultStore.Reset()
		if _, err := experiments.RunFig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep pruning: the learned proxy simulator ---

// benchSweepSetup loads the embedded full-fidelity surrogate model and
// pre-warms every grid trace outside the timed region, so both sweep
// benchmarks measure simulation strategy — exhaustive vs confidence-gated
// pruning — not trace generation.
func benchSweepSetup(b *testing.B) (experiments.Config, experiments.SweepOptions) {
	b.Helper()
	cfg := experiments.Default()
	est, err := experiments.BenchEstimator()
	if err != nil {
		b.Fatal(err)
	}
	wls := experiments.BenchSweepWorkloads()
	for _, wl := range wls {
		spec, err := workload.Resolve(wl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.SharedE(spec, cfg.Accesses, cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
	return cfg, experiments.SweepOptions{Workloads: wls, Estimator: est}
}

// BenchmarkSweepPruned measures the surrogate-pruned configuration sweep at
// full fidelity (the 228-cell BenchSweepWorkloads grid at 1M accesses): the
// confidence-gated fast path /v1/estimate serves. Compare against
// BenchmarkSweepExhaustive on the same grid; the prunefactor metric records
// grid cells per exact simulation. TestSweepPrunedNeverWrongOnFrontier holds
// the correctness side: the pruned frontier is always the exhaustive one.
func BenchmarkSweepPruned(b *testing.B) {
	cfg, opts := benchSweepSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSweepPruned(cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.PruneFactor(), "prunefactor")
	}
}

// BenchmarkSweepExhaustive is the baseline BenchmarkSweepPruned is measured
// against: every cell of the same grid simulated exactly.
func BenchmarkSweepExhaustive(b *testing.B) {
	cfg, opts := benchSweepSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepExhaustive(cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks: raw simulator throughput ---

// BenchmarkHierarchyAccess measures the per-access cost of the three-level
// hierarchy under an LRU LLC: the hot loop every simulation pays, dominated
// by the upper-level L1/L2 filter.
func BenchmarkHierarchyAccess(b *testing.B) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.Generate(200_000, 42)
	h, err := cpu.BuildHierarchy(1, "lru")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.RunFunctional(context.Background(), tr, h, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerate measures raw synthetic trace generation — the cost
// the shared trace store de-duplicates across policy jobs.
func BenchmarkTraceGenerate(b *testing.B) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := spec.Generate(200_000, 42)
		if tr.Len() != 200_000 {
			b.Fatal("short trace")
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.Generate(200_000, 42)
	for _, pol := range []string{"lru", "ship++", "hawkeye", "glider"} {
		b.Run(pol, func(b *testing.B) {
			h, err := cpu.BuildHierarchy(1, pol)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(tr.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cpu.RunFunctional(context.Background(), tr, h, 0, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionMLP covers the paper's future-work direction: MPPPB's
// multiperspective features inside a deep model (see DESIGN.md §4).
func BenchmarkExtensionMLP(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		e, err := experiments.RunExtensionMLP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, e)
	}
}

// BenchmarkLineage measures the §2.1 policy-evolution study.
func BenchmarkLineage(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		l, err := experiments.RunLineage(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderQuiet(b, l)
	}
}
