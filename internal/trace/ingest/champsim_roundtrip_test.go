// Package ingest_test is the ChampSim ingest round trip, tested from outside
// package workload: every workload tracegen can write is written with
// trace.WriteChampSim and read back through the champsim(file=…) spec string
// that workload.Resolve parses. It uses only the exported API of packages
// trace and workload, so the round trip holds for any caller that names a
// ChampSim file by spec.
package ingest_test

import (
	"os"
	"path/filepath"
	"testing"

	"glider/internal/trace"
	"glider/internal/workload"
)

// writeChampSimFile writes n accesses of the named workload (seed 42) as a
// ChampSim file and returns its path and the trace it wrote.
func writeChampSimFile(t *testing.T, name string, n int) (string, *trace.Trace) {
	t.Helper()
	spec, err := workload.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.GenerateE(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

func sameAccesses(t *testing.T, got, want []trace.Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestParseChampSim: every workload tracegen can write comes back through
// WriteChampSim and champsim(file=…) with the same accesses. A ChampSim
// record carries a PC, an address and a load or store slot, so this holds
// only while generated traces keep to three facts, asserted first: every
// access is on core 0, none is a writeback, and none has address 0 (the
// reader takes a zero memory slot for an empty one and drops it). Then the
// scheme materializes exactly the length asked for, whatever the seed, and
// cycle-extends past the file's end.
func TestParseChampSim(t *testing.T) {
	names := workload.Names()
	names = append(names,
		"zipf(objects=4096,skew=0.9,scan-every=1000)",
		"mix(poisson,zipf(objects=512,skew=1.1),mix(rr,mcf,lbm),p=0.3)",
		// Depth 3: its leaves' composed tenant tags (7 and 11) set bit 63.
		"mix(rr,mix(rr,mix(rr,mcf,mcf),mcf),mcf)")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 1000, 20_000} {
				path, want := writeChampSimFile(t, name, n)
				for i, a := range want.Accesses {
					if a.Core != 0 || a.Kind == trace.Writeback || a.Addr == 0 {
						t.Fatalf("n=%d: access %d = %+v: not representable as a ChampSim record", n, i, a)
					}
				}
				spec, err := workload.Resolve("champsim(file=" + path + ")")
				if err != nil {
					t.Fatal(err)
				}
				if want := "champsim(file=" + path + ")"; spec.Name != want {
					t.Fatalf("Name = %q, want %q", spec.Name, want)
				}
				got, err := spec.GenerateE(0, 1)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				sameAccesses(t, got.Accesses, want.Accesses)
			}
		})
	}

	path, _ := writeChampSimFile(t, "mcf", 200)
	spec, err := workload.Resolve("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}

	// Exact-length materialization, deterministic across calls.
	tr, err := spec.GenerateE(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 150 {
		t.Fatalf("got %d accesses, want 150", tr.Len())
	}
	again, err := spec.GenerateE(150, 99) // seed is irrelevant for files
	if err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, again.Accesses, tr.Accesses)

	// A request longer than the file cycle-extends: access i repeats access
	// i mod fileLen.
	full, err := spec.GenerateE(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := full.Len()
	long, err := spec.GenerateE(2*n+7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if long.Len() != 2*n+7 {
		t.Fatalf("got %d accesses, want %d", long.Len(), 2*n+7)
	}
	for i, a := range long.Accesses {
		if a != full.Accesses[i%n] {
			t.Fatalf("access %d != source access %d", i, i%n)
		}
	}
}
