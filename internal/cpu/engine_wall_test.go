package cpu_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/experiments"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// The engine equivalence wall: every registered policy on every trace of
// the benchmark sweep grid, run through the capture/replay engine and
// through the fused reference loops (reference_test.go), single- and
// multi-core. Results, LLC streams, predictions and the caller's L1/L2
// statistics must be identical, and so must the entry points that replay a
// capture kept in the trace store.

// wallAccesses is the per-trace length: short enough to keep the wall fast,
// long enough for every policy to see L1/L2 writebacks and LLC hits.
const wallAccesses = 12_000

// wallSeed is the seed of every wall trace.
const wallSeed = 11

// smallLLC is a 2,048-line LLC that the wall's short traces overflow many
// times, so every policy's victim selection runs on real event streams.
var smallLLC = cache.Config{Name: "LLC", Sets: 128, Ways: 16, LatencyCycles: 26}

func wallSpecs(t *testing.T) []workload.Spec {
	t.Helper()
	var specs []workload.Spec
	for _, name := range experiments.BenchSweepWorkloads() {
		spec, err := workload.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

func mustHierarchy(t *testing.T, cores int, pol string) *cache.Hierarchy {
	t.Helper()
	h, err := cpu.BuildHierarchy(cores, pol)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkRun runs tr through the reference and the engine on two identically
// built hierarchies and requires deep-equal Results and upper-level stats.
func checkRun(t *testing.T, tr *trace.Trace, build func() *cache.Hierarchy, dcfg dram.Config) cpu.Result {
	t.Helper()
	ctx := context.Background()
	href, heng := build(), build()
	want, err := cpu.RefRun(ctx, tr, href, dram.New(dcfg), cpu.DefaultCoreConfig(), tr.Len()/5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpu.Run(ctx, tr, heng, dram.New(dcfg), cpu.DefaultCoreConfig(), tr.Len()/5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run diverged from the reference:\nengine=%+v\nref   =%+v", got, want)
	}
	checkUpperStats(t, heng, href)
	return want
}

// checkFunctional compares RunFunctional with collection against the
// reference and returns the reference's result.
func checkFunctional(t *testing.T, tr *trace.Trace, build func() *cache.Hierarchy) cpu.FunctionalResult {
	t.Helper()
	ctx := context.Background()
	href, heng := build(), build()
	want, err := cpu.RefRunFunctional(ctx, tr, href, tr.Len()/5, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpu.RunFunctional(ctx, tr, heng, tr.Len()/5, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.LLC != want.LLC {
		t.Fatalf("functional LLC stats diverged:\nengine=%+v\nref   =%+v", got.LLC, want.LLC)
	}
	if !reflect.DeepEqual(got.LLCStream, want.LLCStream) {
		t.Fatalf("LLC stream diverged: engine %d vs ref %d accesses", got.LLCStream.Len(), want.LLCStream.Len())
	}
	if !reflect.DeepEqual(got.Predictions, want.Predictions) {
		t.Fatalf("predictions diverged: engine %d vs ref %d", len(got.Predictions), len(want.Predictions))
	}
	checkUpperStats(t, heng, href)
	return want
}

func checkUpperStats(t *testing.T, got, want *cache.Hierarchy) {
	t.Helper()
	for c := 0; c < want.Cores(); c++ {
		if got.L1(c).Stats() != want.L1(c).Stats() || got.L2(c).Stats() != want.L2(c).Stats() {
			t.Fatalf("core %d L1/L2 stats diverged", c)
		}
	}
}

func TestEngineMatchesReferenceSingleCore(t *testing.T) {
	t.Parallel()
	for _, spec := range wallSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			tr, err := workload.SharedE(spec, wallAccesses, wallSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policy.Names() {
				table1 := func() *cache.Hierarchy { return mustHierarchy(t, 1, pol) }
				want := checkRun(t, tr, table1, dram.SingleCoreConfig())
				wantF := checkFunctional(t, tr, table1)

				small := func() *cache.Hierarchy {
					p, _ := policy.New(pol, smallLLC.Sets, smallLLC.Ways)
					h, err := cache.NewHierarchy(1, smallLLC, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				checkRun(t, tr, small, dram.SingleCoreConfig())
				checkFunctional(t, tr, small)

				// The store-backed entry points replay the trace's shared
				// capture on a fresh LLC.
				stored, err := cpu.SingleCore(ctx, spec, pol, wallAccesses, wallSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stored, want) {
					t.Fatalf("%s: SingleCore diverged from a fresh BuildHierarchy run:\nstored=%+v\nfresh =%+v", pol, stored, want)
				}
				c, err := cpu.SharedCapture(ctx, spec, wallAccesses, wallSeed, 1)
				if err != nil {
					t.Fatal(err)
				}
				llc, err := cpu.BuildLLC(1, pol)
				if err != nil {
					t.Fatal(err)
				}
				storedF, err := c.RunFunctional(ctx, llc, wallAccesses/5, true)
				if err != nil {
					t.Fatal(err)
				}
				if storedF.LLC != wantF.LLC || !reflect.DeepEqual(storedF.Predictions, wantF.Predictions) {
					t.Fatalf("%s: functional replay of the shared capture diverged from the reference:\nstored=%+v\nref   =%+v", pol, storedF.LLC, wantF.LLC)
				}
				// Timing does not steer the LLC: the timed replay sees the
				// functional run's LLC outcome, so its miss rate is the one
				// the miss-rate studies report.
				if stored.LLC != wantF.LLC {
					t.Fatalf("%s: timed LLC stats %+v, functional %+v", pol, stored.LLC, wantF.LLC)
				}
			}
		})
	}
}

func TestEngineMatchesReferenceMultiCore(t *testing.T) {
	t.Parallel()
	const cores, perCore = 4, wallAccesses / 4
	specs := wallSpecs(t)
	for m := 0; m+cores <= len(specs); m += cores {
		mix := workload.Mix{ID: m / cores, Members: specs[m : m+cores]}
		t.Run(fmt.Sprintf("mix%d", mix.ID), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			perTrace := make([]*trace.Trace, cores)
			for i, spec := range mix.Members {
				tr, err := workload.SharedE(spec, perCore, wallSeed+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				perTrace[i] = tr
			}
			merged := trace.Interleave(fmt.Sprintf("mix%d", mix.ID), perTrace...)
			for _, pol := range policy.Names() {
				quad := func() *cache.Hierarchy { return mustHierarchy(t, cores, pol) }
				want := checkRun(t, merged, quad, dram.QuadCoreConfig())
				checkFunctional(t, merged, quad)
				got, err := cpu.MultiCore(ctx, mix, pol, perCore, wallSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MultiCore diverged from the reference", pol)
				}

				// The first member alone on the shared configuration, from
				// its stored capture.
				solo := checkRun(t, perTrace[0], quad, dram.QuadCoreConfig())
				stored, err := cpu.SoloOnShared(ctx, mix.Members[0], cores, pol, perCore, wallSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stored, solo) {
					t.Fatalf("%s: SoloOnShared diverged from a fresh BuildHierarchy run", pol)
				}
			}
		})
	}
}
