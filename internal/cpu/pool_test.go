package cpu

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"glider/internal/policy"
	"glider/internal/workload"
)

// pollBudget is a context that is live for its first n Err polls and
// cancelled from then on: a caller that gives up partway through a run.
type pollBudget struct {
	context.Context
	n atomic.Int32
}

func (c *pollBudget) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLLCPoolMatchesFresh runs every registered policy on two traces in
// turn through one pool, so each policy's second run resets the LLC of its
// first, and requires every result to equal SingleCore's on a fresh LLC. A
// run cancelled partway gives back an LLC in whatever state it reached; the
// next run on it must still match a fresh one.
func TestLLCPoolMatchesFresh(t *testing.T) {
	t.Parallel()
	const accesses, seed = 60_000, 3
	ctx := context.Background()
	var specs []workload.Spec
	for _, name := range []string{"mcf", "calculix"} {
		spec, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	pool := NewLLCPool()
	check := func(spec workload.Spec, pol string) {
		t.Helper()
		got, err := pool.SingleCore(ctx, spec, pol, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SingleCore(ctx, spec, pol, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on %s: pooled LLC gives %+v, a fresh one %+v", pol, spec.Name, got, want)
		}
	}
	for _, pol := range policy.Names() {
		for _, spec := range specs {
			check(spec, pol)
		}
	}

	// Three polls reach the middle of the replay (one every 8,192
	// accesses); the capture is already built, so none is spent on it.
	cut := &pollBudget{Context: ctx}
	cut.n.Store(3)
	if _, err := pool.SingleCore(cut, specs[0], "glider", accesses, seed); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	check(specs[1], "glider")
}

// TestLLCPoolConcurrent runs every policy on two traces from four
// goroutines through one pool, each goroutine one cell further along the
// same list, so two cells of one policy often take and give back LLCs at
// the same time. Every result must equal SingleCore's on a fresh LLC. Run
// it under -race.
func TestLLCPoolConcurrent(t *testing.T) {
	t.Parallel()
	const accesses, seed = 8_000, 5
	ctx := context.Background()
	type cell struct {
		spec workload.Spec
		pol  string
	}
	var cells []cell
	for _, pol := range policy.Names() {
		for _, name := range []string{"mcf", "sphinx3"} {
			spec, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{spec, pol})
		}
	}
	want := make([]Result, len(cells))
	for i, c := range cells {
		res, err := SingleCore(ctx, c.spec, c.pol, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	pool := NewLLCPool()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				j := (i + g) % len(cells)
				got, err := pool.SingleCore(ctx, cells[j].spec, cells[j].pol, accesses, seed)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[j]) {
					t.Errorf("%s on %s: pooled LLC gives %+v, a fresh one %+v", cells[j].pol, cells[j].spec.Name, got, want[j])
				}
			}
		}()
	}
	wg.Wait()
}

// TestLLCPoolKeys checks that get reuses a free LLC of its own key only,
// builds the key's geometry and policy otherwise, refuses an unknown policy,
// and that the nil pool builds a fresh LLC every time.
func TestLLCPoolKeys(t *testing.T) {
	t.Parallel()
	pool := NewLLCPool()
	first, err := pool.get(1, "glider")
	if err != nil {
		t.Fatal(err)
	}
	pool.put(1, "glider", first)
	again, err := pool.get(1, "glider")
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("get built a new LLC although one of its key was free")
	}
	pool.put(1, "glider", again)
	for _, k := range []struct {
		cores  int
		policy string
	}{{1, "lru"}, {4, "glider"}} {
		llc, err := pool.get(k.cores, k.policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildLLC(k.cores, k.policy)
		if err != nil {
			t.Fatal(err)
		}
		if llc == first || llc.Policy().Name() != k.policy || llc.Config() != want.Config() {
			t.Errorf("get(%d, %q) returned a %s LLC of %+v, want a new %s LLC of %+v",
				k.cores, k.policy, llc.Policy().Name(), llc.Config(), k.policy, want.Config())
		}
	}
	if _, err := pool.get(1, "no-such-policy"); err == nil {
		t.Error("get accepted an unknown policy")
	}
	var none *LLCPool
	a, err := none.get(1, "lru")
	if err != nil {
		t.Fatal(err)
	}
	none.put(1, "lru", a)
	if b, _ := none.get(1, "lru"); b == a {
		t.Error("the nil pool reused an LLC")
	}
}
