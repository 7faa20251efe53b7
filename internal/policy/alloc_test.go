package policy_test

import (
	"context"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/policy"
	"glider/internal/workload"
)

// openAllocExceptions are the registered policies that still allocate on
// the LLC event path, with where. Each is an open item; a policy leaves this
// list when it allocates nothing, warm-up included. None is open.
var openAllocExceptions = map[string]string{}

// TestPoliciesZeroAllocsPerLLCEvent is the allocation gate: once warmed up,
// every registered policy outside openAllocExceptions must handle LLC events
// (demand hits, fills, evictions and writebacks) without allocating. The
// events are a real trace's LLC stream, replayed on an LLC small enough that
// every pass keeps missing and evicting. Resetting a warmed LLC, as a grid's
// LLC pool does before every cell, must not allocate either.
func TestPoliciesZeroAllocsPerLLCEvent(t *testing.T) {
	spec, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Generate(30_000, 42)
	ctx := context.Background()
	capture, err := cpu.NewCapture(ctx, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Name: "LLC", Sets: 256, Ways: 16, LatencyCycles: 26}
	for _, name := range policy.Names() {
		p, _ := policy.New(name, cfg.Sets, cfg.Ways)
		llc, err := cache.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		replay := func() {
			if _, err := capture.RunFunctional(ctx, llc, tr.Len(), false); err != nil {
				t.Fatal(err)
			}
		}
		replay() // warm-up: fill the cache and grow every table
		const runs = 2
		before := llc.Stats().Accesses
		allocs := testing.AllocsPerRun(runs, replay)
		// AllocsPerRun calls replay once more, unmeasured, before its runs.
		events := float64(llc.Stats().Accesses-before) / (runs + 1)
		perEvent := allocs / events
		if where, open := openAllocExceptions[name]; open {
			t.Logf("%s: %.3f allocs per LLC event after warm-up (open exception: %s)", name, perEvent, where)
		} else if allocs != 0 {
			t.Errorf("%s: %.4f allocs per LLC event after warm-up, want 0", name, perEvent)
		}
		if allocs := testing.AllocsPerRun(runs, llc.Reset); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Reset of a warmed LLC, want 0", name, allocs)
		}
	}
}
