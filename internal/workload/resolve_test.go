package workload

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"glider/internal/trace"
)

// testSpecTrace builds a tiny deterministic trace for Custom specs.
func testSpecTrace(name string, n int) *trace.Trace {
	t := trace.New(name, n)
	for i := 0; i < n; i++ {
		t.Append(trace.Access{PC: uint64(i), Addr: uint64(i) << trace.BlockShift, Kind: trace.Load})
	}
	return t
}

// TestSchemesResolve: Schemes lists exactly the three spec schemes, and a
// spec of each resolves to an ingest workload under its canonical name.
func TestSchemesResolve(t *testing.T) {
	got := Schemes()
	if want := []string{"champsim", "mix", "zipf"}; !slices.Equal(got, want) {
		t.Fatalf("Schemes() = %v, want %v", got, want)
	}
	got[0] = "changed"
	if Schemes()[0] != "champsim" {
		t.Fatal("Schemes() returned the package's own slice")
	}
	for _, c := range []struct{ in, want string }{
		{"champsim(file=../trace/testdata/mini.champsim)", "champsim(file=../trace/testdata/mini.champsim)"},
		{"mix(poisson,mcf,lbm)", "mix(poisson,mcf,lbm,p=0.5)"},
		{"zipf(skew=1.0,objects=64)", "zipf(objects=64,skew=1)"},
	} {
		spec, err := Resolve(c.in)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", c.in, err)
		}
		if spec.Name != c.want || spec.Suite != Ingest {
			t.Fatalf("Resolve(%q) = %q (%s), want %q (%s)", c.in, spec.Name, spec.Suite, c.want, Ingest)
		}
		if tr, err := spec.GenerateE(100, 1); err != nil || tr.Len() != 100 {
			t.Fatalf("%s: GenerateE(100) = %v", c.in, err)
		}
	}
}

func TestResolveRegistryNameWins(t *testing.T) {
	spec, err := Resolve("mcf")
	if err != nil || spec.Name != "mcf" {
		t.Fatalf("Resolve(mcf) = %q, %v", spec.Name, err)
	}
}

func TestResolveRejectsNonSpecNames(t *testing.T) {
	for _, name := range []string{"", "nosuch", "(x)", "noscheme)", "unregistered(x)"} {
		if _, err := Resolve(name); err == nil {
			t.Fatalf("Resolve(%q) succeeded", name)
		}
	}
	// Unknown plain names keep the registry's error type.
	var unknown ErrUnknown
	if _, err := Resolve("nosuch"); !errors.As(err, &unknown) {
		t.Fatalf("Resolve(nosuch) error %v, want ErrUnknown", err)
	}
}

func TestCustomGeneratePanicsOnError(t *testing.T) {
	spec := Custom("failing(x)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		return nil, errors.New("nope")
	})
	if _, err := spec.GenerateE(5, 1); err == nil {
		t.Fatal("GenerateE swallowed the error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Generate did not panic on error")
		}
	}()
	spec.Generate(5, 1)
}

// TestStoreDoesNotCacheFailures: a failed generation reaches every waiter
// but is forgotten — the next Get retries and can succeed.
func TestStoreDoesNotCacheFailures(t *testing.T) {
	calls := 0
	spec := Custom("flaky(x)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return testSpecTrace("flaky(x)", n), nil
	})
	st := NewStore(64 << 20)
	if _, err := st.GetE(spec, 100, 1); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("first GetE err = %v", err)
	}
	tr, err := st.GetE(spec, 100, 1)
	if err != nil {
		t.Fatalf("second GetE failed: %v (failure was cached)", err)
	}
	if tr.Len() != 100 {
		t.Fatalf("got %d accesses", tr.Len())
	}
	if calls != 2 {
		t.Fatalf("generator ran %d times, want 2", calls)
	}
	// The successful generation IS cached.
	again, err := st.GetE(spec, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Fatal("successful generation not cached")
	}
	if calls != 2 {
		t.Fatalf("generator ran %d times after hit, want 2", calls)
	}
}

func TestStoreCanonicalNameIsIdentity(t *testing.T) {
	// Two Spec values with the same Name are one cache entry, whatever
	// closure they carry — the canonical name is the identity.
	mk := func() Spec {
		return Custom("samename(x)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
			return testSpecTrace("samename(x)", n), nil
		})
	}
	st := NewStore(64 << 20)
	a, err := st.GetE(mk(), 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.GetE(mk(), 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same canonical name produced two entries")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", stats)
	}
}

func TestSharedEPropagatesErrors(t *testing.T) {
	spec := Custom("alwaysfails(x)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		return nil, errors.New("boom")
	})
	if _, err := SharedE(spec, 10, 1); err == nil {
		t.Fatal("SharedE swallowed the error")
	}
}
