package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/trace"
)

// lruStream drives one access through both a fast-path cache and a reference
// cache built with the policy package's LRU, asserting bit-identical results
// at every step. This is the cache-level half of the equivalence argument in
// fastlru.go; internal/cpu covers whole hierarchies over every workload.

func randomAccess(r *rand.Rand) (pc, block uint64, core uint8, kind trace.Kind) {
	// A small block universe over many sets forces hits, fills, evictions,
	// and writeback-eviction interleavings.
	pc = uint64(0x400000 + r.Intn(16)*8)
	block = uint64(r.Intn(256))
	core = uint8(r.Intn(2))
	kind = trace.Kind(r.Intn(3)) // Load, Store, Writeback
	return
}

func TestFastLRUEquivalence(t *testing.T) {
	t.Parallel()
	cfg := cache.Config{Name: "L1D", Sets: 8, Ways: 4}
	fast, err := cache.NewUpperLRU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cache.MustNew(cfg, policy.NewLRU(cfg.Sets, cfg.Ways))

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		pc, block, core, kind := randomAccess(r)
		got := fast.Access(pc, block, core, kind)
		want := ref.Access(pc, block, core, kind)
		if got != want {
			t.Fatalf("access %d (pc=%#x block=%d kind=%v): fast=%+v ref=%+v", i, pc, block, kind, got, want)
		}
		if i%1000 == 0 {
			probe := uint64(r.Intn(256))
			if fast.Lookup(probe) != ref.Lookup(probe) {
				t.Fatalf("access %d: Lookup(%d) diverged", i, probe)
			}
			if fast.Occupancy() != ref.Occupancy() {
				t.Fatalf("access %d: occupancy diverged", i)
			}
		}
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats diverged:\nfast=%+v\nref =%+v", fast.Stats(), ref.Stats())
	}

	// Flush and keep going: recency state across Flush must not change any
	// externally visible outcome either.
	fast.Flush()
	ref.Flush()
	if fast.Occupancy() != 0 || ref.Occupancy() != 0 {
		t.Fatal("flush left valid lines")
	}
	for i := 0; i < 10_000; i++ {
		pc, block, core, kind := randomAccess(r)
		got := fast.Access(pc, block, core, kind)
		want := ref.Access(pc, block, core, kind)
		if got != want {
			t.Fatalf("post-flush access %d: fast=%+v ref=%+v", i, got, want)
		}
	}
	if fast.Stats() != ref.Stats() {
		t.Fatal("post-flush stats diverged")
	}
}

// TestFastLRUObserver: the fast path drives the same observer callbacks at
// the same points as the reference path.
func TestFastLRUObserver(t *testing.T) {
	t.Parallel()
	cfg := cache.Config{Name: "L1D", Sets: 4, Ways: 2}
	fast, err := cache.NewUpperLRU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cache.MustNew(cfg, policy.NewLRU(cfg.Sets, cfg.Ways))

	regFast, regRef := obs.NewRegistry(), obs.NewRegistry()
	fast.AttachObserver(cache.NewObserver(regFast, cfg))
	ref.AttachObserver(cache.NewObserver(regRef, cfg))

	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20_000; i++ {
		pc, block, core, kind := randomAccess(r)
		if got, want := fast.Access(pc, block, core, kind), ref.Access(pc, block, core, kind); got != want {
			t.Fatalf("access %d diverged: fast=%+v ref=%+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(regFast.Snapshot(), regRef.Snapshot()) {
		t.Fatal("observer snapshots diverged between fast and reference paths")
	}
}

// TestNewUpperLRUValidation mirrors New's geometry checks.
func TestNewUpperLRUValidation(t *testing.T) {
	t.Parallel()
	if _, err := cache.NewUpperLRU(cache.Config{Name: "x", Sets: 3, Ways: 4}); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := cache.NewUpperLRU(cache.Config{Name: "x", Sets: 4, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	if c := cache.MustNewUpperLRU(cache.L1DConfig); c.Policy() != nil {
		t.Fatal("fast cache should report a nil policy")
	}
}
