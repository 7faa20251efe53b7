package ingest

import (
	"os"
	"path/filepath"
	"strings"
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

func TestParseCanonicalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"zipf(objects=100,skew=1.2)", "zipf(objects=100,skew=1.2)"},
		{"zipf(skew=1.20,objects=100)", "zipf(objects=100,skew=1.2)"},
		{"zipf(objects=100,skew=0.9,span=1,pcs=16)", "zipf(objects=100,skew=0.9)"}, // defaults elided
		{"zipf(objects=100,skew=0.5,pcs=8,span=2)", "zipf(objects=100,skew=0.5,span=2,pcs=8)"},
		{"zipf(objects=64,skew=0)", "zipf(objects=64,skew=0)"},
		{"zipf(objects=64,skew=1,scan-every=1000)", "zipf(objects=64,skew=1,scan-every=1000)"},
		{"zipf(objects=64,skew=1,scan-len=512,scan-every=1000)", "zipf(objects=64,skew=1,scan-every=1000)"}, // default scan-len elided
		{"zipf(objects=64,skew=1,scan-every=1000,scan-len=64,churn-every=9)", "zipf(objects=64,skew=1,scan-every=1000,scan-len=64,churn-every=9)"},
		{"mix(rr,mcf,libquantum)", "mix(rr,mcf,libquantum)"},
		{"mix(poisson,mcf,libquantum)", "mix(poisson,mcf,libquantum,p=0.5)"}, // p always explicit
		{"mix(poisson,mcf,libquantum,p=0.70)", "mix(poisson,mcf,libquantum,p=0.7)"},
		{"mix(rr,zipf(skew=1.0,objects=32),mcf)", "mix(rr,zipf(objects=32,skew=1),mcf)"},
	}
	for _, c := range cases {
		spec, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if spec.Name != c.want {
			t.Fatalf("Parse(%q).Name = %q, want %q", c.in, spec.Name, c.want)
		}
		if spec.Suite != workload.Ingest {
			t.Fatalf("Parse(%q).Suite = %q", c.in, spec.Suite)
		}
		// Canonicalization is a fixpoint: re-parsing the canonical name
		// yields the same canonical name.
		again, err := Parse(spec.Name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec.Name, err)
		}
		if again.Name != spec.Name {
			t.Fatalf("fixpoint: Parse(%q).Name = %q", spec.Name, again.Name)
		}
	}
}

// TestCanonicalSpellingsGenerateIdentically: two spellings of one workload
// are the same workload — identical canonical name, identical stream.
func TestCanonicalSpellingsGenerateIdentically(t *testing.T) {
	a, err := Parse("zipf(objects=256,skew=1.10)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("zipf(skew=1.1,objects=256,span=1)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatalf("names differ: %q vs %q", a.Name, b.Name)
	}
	ta, err := a.GenerateE(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.GenerateE(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, ta.Accesses, tb.Accesses)
}

func TestParseErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []string{
		"",
		"zipf",
		"zipf(",
		"zipf)",
		"(objects=1)",
		"zipf(objects=1,skew=1))",
		"zipf(objects=1,skew=1",
		"zipf(objects=1,skew=1,)",
		"unknown(x=1)",
		"zipf(objects=100)",                   // missing skew
		"zipf(skew=1)",                        // missing objects
		"zipf(objects=0,skew=1)",              // below min
		"zipf(objects=99999999,skew=1)",       // above max
		"zipf(objects=abc,skew=1)",            // not an int
		"zipf(objects=100,skew=NaN)",          // NaN
		"zipf(objects=100,skew=-0.1)",         // negative skew
		"zipf(objects=100,skew=100)",          // above max skew
		"zipf(objects=100,skew=1,skew=2)",     // duplicate key
		"zipf(objects=100,skew=1,foo=2)",      // unknown key
		"zipf(objects=100,skew=1,span=)",      // empty value
		"zipf(objects=100,skew=1,scan-len=5)", // scan-len without scan-every
		"mix(rr,mcf)",                         // missing member
		"mix(fifo,mcf,libquantum)",            // unknown mode
		"mix(rr,nosuchbench,libquantum)",      // unknown member
		"mix(rr,mcf,libquantum,p=0.5)",        // p only valid for poisson
		"mix(poisson,mcf,libquantum,p=0)",     // p out of (0,1)
		"mix(poisson,mcf,libquantum,p=1)",     // p out of (0,1)
		"mix(poisson,mcf,libquantum,p=x)",     // p not a number
		"mix(poisson,mcf,libquantum,q=0.5)",   // unknown trailing arg
		"mix(rr,mcf,libquantum,extra,extra)",
		"mix(rr,mix(rr,mix(rr,mix(rr,mcf,mcf),mcf),mcf),mcf)", // too deep
		"champsim()",
		"champsim(file=/no/such/file)",
		"champsim(file=" + dir + ")", // directory
		"champsim(path=/tmp/x)",      // wrong key
		"zipf(objects=1,skew=1)x",    // trailing garbage
		strings.Repeat("x", maxSpecLen+1) + "(a)",
	}
	for _, in := range cases {
		if spec, err := Parse(in); err == nil {
			t.Fatalf("Parse(%q) accepted as %q", in, spec.Name)
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
		"mix(poisson,zipf(objects=512,skew=1.1),mix(rr,mcf,lbm),p=0.3)")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 1000, 20_000} {
				path, want := writeChampSimFile(t, name, n)
				for i, a := range want.Accesses {
					if a.Core != 0 || a.Kind == trace.Writeback || a.Addr == 0 {
						t.Fatalf("n=%d: access %d = %+v: not representable as a ChampSim record", n, i, a)
					}
				}
				spec, err := Parse("champsim(file=" + path + ")")
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
	spec, err := Parse("champsim(file=" + path + ")")
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

func TestParseChampSimEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.champsim")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Parse("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err) // parse-time only stats the file
	}
	if _, err := spec.GenerateE(100, 1); err == nil {
		t.Fatal("empty trace file accepted")
	}
}

// TestTruncatedErrorMessage: a file that ends mid-record fails the scheme
// with the decoder's truncation error, naming the file.
func TestTruncatedErrorMessage(t *testing.T) {
	const path = "../testdata/truncated.champsim"
	spec, err := Parse("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}
	_, err = spec.GenerateE(0, 1)
	if err == nil || !strings.Contains(err.Error(), "truncated ChampSim record at access") || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want the truncation error for %s", err, path)
	}
}

// TestCapStopsReading: the scheme decodes no further than the n accesses it
// is asked for, so a corrupt tail past them is never read; the whole-file
// read (n = 0) reports it.
func TestCapStopsReading(t *testing.T) {
	path, _ := writeChampSimFile(t, "mcf", 10)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD}); err != nil { // partial record
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec, err := Parse("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5} {
		tr, err := spec.GenerateE(n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: got %d accesses", n, tr.Len())
		}
	}
	if _, err := spec.GenerateE(0, 1); err == nil {
		t.Fatal("whole-file read accepted the corrupt tail")
	}
}

func TestResolveIngestSpecs(t *testing.T) {
	// Registry names still resolve.
	spec, err := workload.Resolve("mcf")
	if err != nil || spec.Name != "mcf" {
		t.Fatalf("Resolve(mcf) = %q, %v", spec.Name, err)
	}
	// Ingest specs resolve through the registered schemes.
	spec, err = workload.Resolve("zipf(objects=64,skew=1)")
	if err != nil || spec.Name != "zipf(objects=64,skew=1)" {
		t.Fatalf("Resolve(zipf) = %q, %v", spec.Name, err)
	}
	if _, err := workload.Resolve("zipf(objects=64)"); err == nil {
		t.Fatal("malformed spec resolved")
	}
	if _, err := workload.Resolve("nosuchthing(x=1)"); err == nil {
		t.Fatal("unknown scheme resolved")
	}
	for _, want := range []string{"champsim", "mix", "zipf"} {
		found := false
		for _, s := range workload.Schemes() {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("scheme %q not registered (have %v)", want, workload.Schemes())
		}
	}
}

// TestStoreCanonicalSharing: every spelling of a workload hits the same
// store entry, and generation happens once.
func TestStoreCanonicalSharing(t *testing.T) {
	st := workload.NewStore(64 << 20)
	a, err := workload.Resolve("zipf(objects=128,skew=0.9)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Resolve("zipf(skew=0.90,objects=128,pcs=16)")
	if err != nil {
		t.Fatal(err)
	}
	ta, err := st.GetE(a, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := st.GetE(b, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Fatal("canonical spellings produced distinct cache entries")
	}
}
