package cpu

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// The fast upper-level LRU path (cache/fastlru.go) claims bit-identical
// externally visible behaviour to the reference path built with
// policy.NewLRU. These tests pin that claim at hierarchy level across every
// registered workload: identical LLC stats, identical LLC-visible access
// streams and predictions, and identical timing results.

// refHierarchy builds the pre-optimization hierarchy: generic caches with
// the policy package's LRU at every upper level.
func refHierarchy(t *testing.T, cores int, policyName string) *cache.Hierarchy {
	t.Helper()
	llcCfg := cache.LLCConfig
	if cores > 1 {
		llcCfg = cache.SharedLLCConfig4
	}
	p, ok := policy.New(policyName, llcCfg.Sets, llcCfg.Ways)
	if !ok {
		t.Fatalf("unknown policy %q", policyName)
	}
	upper := func(sets, ways int) cache.Policy { return policy.NewLRU(sets, ways) }
	h, err := cache.NewHierarchy(cores, llcCfg, p, upper)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFastUpperEquivalenceAllWorkloads runs every registered single-core
// workload functionally through both hierarchies and requires the collected
// LLC stream, predictions, and stats to match bit for bit.
func TestFastUpperEquivalenceAllWorkloads(t *testing.T) {
	t.Parallel()
	const accesses = 20_000
	for _, spec := range workload.SingleCoreSet() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate(accesses, 42)

			fast, err := BuildHierarchy(1, "lru")
			if err != nil {
				t.Fatal(err)
			}
			ref := refHierarchy(t, 1, "lru")

			got, err := RunFunctional(context.Background(), tr, fast, accesses/5, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunFunctional(context.Background(), tr, ref, accesses/5, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.LLC != want.LLC {
				t.Fatalf("LLC stats diverged:\nfast=%+v\nref =%+v", got.LLC, want.LLC)
			}
			if !reflect.DeepEqual(got.LLCStream, want.LLCStream) {
				t.Fatalf("LLC stream diverged (fast %d vs ref %d accesses)", got.LLCStream.Len(), want.LLCStream.Len())
			}
			if !reflect.DeepEqual(got.Predictions, want.Predictions) {
				t.Fatal("predictions diverged")
			}
			// Upper-level stats are externally visible too (diagnostics).
			if fast.L1(0).Stats() != ref.L1(0).Stats() {
				t.Fatal("L1 stats diverged")
			}
			if fast.L2(0).Stats() != ref.L2(0).Stats() {
				t.Fatal("L2 stats diverged")
			}
		})
	}
}

// TestFastUpperEquivalenceTiming covers the full timing model (ROB, MSHRs,
// DRAM) with a learning LLC policy, whose training input is the LLC stream
// the upper levels produce.
func TestFastUpperEquivalenceTiming(t *testing.T) {
	t.Parallel()
	const accesses = 20_000
	for _, name := range []string{"omnetpp", "mcf", "soplex"} {
		for _, pol := range []string{"lru", "hawkeye", "glider"} {
			name, pol := name, pol
			t.Run(name+"/"+pol, func(t *testing.T) {
				t.Parallel()
				spec, err := workload.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				tr := spec.Generate(accesses, 7)

				fast, err := BuildHierarchy(1, pol)
				if err != nil {
					t.Fatal(err)
				}
				ref := refHierarchy(t, 1, pol)

				got, err := Run(context.Background(), tr, fast, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), accesses/5)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(context.Background(), tr, ref, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), accesses/5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("timing results diverged:\nfast=%+v\nref =%+v", got, want)
				}
			})
		}
	}
}

// TestFastUpperEquivalenceMultiCore covers the shared-LLC configuration:
// four private L1/L2 pairs on the fast path feeding one studied LLC.
func TestFastUpperEquivalenceMultiCore(t *testing.T) {
	t.Parallel()
	for _, mix := range workload.Mixes(2, 4, 42) {
		mix := mix
		t.Run(fmt.Sprintf("mix%d", mix.ID), func(t *testing.T) {
			t.Parallel()
			c, err := MixCapture(context.Background(), mix, 8_000, 42)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MultiCore(context.Background(), c, "hawkeye")
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the same merged trace through the generic upper
			// path (mirroring MultiCore's construction).
			perCore := make([]*trace.Trace, len(mix.Members))
			for i, spec := range mix.Members {
				perCore[i] = spec.Generate(8_000, 42+int64(i))
			}
			merged := trace.Interleave(fmt.Sprintf("mix%d", mix.ID), perCore...)
			ref := refHierarchy(t, len(mix.Members), "hawkeye")
			want, err := Run(context.Background(), merged, ref, dram.New(dram.QuadCoreConfig()), DefaultCoreConfig(), merged.Len()/5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("multi-core results diverged:\nfast=%+v\nref =%+v", got, want)
			}
		})
	}
}
