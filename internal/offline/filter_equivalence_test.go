package offline

import (
	"context"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/trace"
	"glider/internal/workload"
)

// referenceFilterToLLC is the pre-optimization filter: a full three-level
// hierarchy (LRU upper levels plus an LRU LLC) whose LLCAccessed
// flag selects the stream. Datasets take their stream from the L1/L2
// capture instead (cpu.Capture.LLCStream), which never simulates the LLC —
// valid because nothing flows from the LLC back into L1/L2 — and this test
// pins the two streams against each other for every registered workload.
func referenceFilterToLLC(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	h, err := cache.NewHierarchy(1, cache.LLCConfig, cache.NewLRU(cache.LLCConfig.Sets, cache.LLCConfig.Ways))
	if err != nil {
		t.Fatal(err)
	}
	out := trace.New(tr.Name+".llc", 0)
	for _, a := range tr.Accesses {
		a.Core = 0
		if h.Access(a).LLCAccessed {
			out.Append(a)
		}
	}
	return out
}

func TestFilterToLLCEquivalence(t *testing.T) {
	t.Parallel()
	const accesses = 15_000
	for _, spec := range workload.SingleCoreSet() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate(accesses, 42)
			c, err := cpu.NewCapture(context.Background(), tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, want := c.LLCStream(), referenceFilterToLLC(t, tr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("LLC-filtered stream diverged: fast %d vs ref %d accesses", got.Len(), want.Len())
			}
		})
	}
}
