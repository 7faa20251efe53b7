package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// TestResetMatchesNew replays a random stream A on an LRU cache, resets it
// and replays a stream B. Every access result, the statistics and the
// resident blocks must equal those of a new cache replaying B.
func TestResetMatchesNew(t *testing.T) {
	cfg := cache.Config{Name: "reset", Sets: 16, Ways: 4}
	stream := func(seed int64) []trace.Access {
		rng := rand.New(rand.NewSource(seed))
		out := make([]trace.Access, 5000)
		for i := range out {
			out[i] = trace.Access{PC: uint64(rng.Intn(16)), Addr: uint64(rng.Intn(256)) << trace.BlockShift, Kind: trace.Kind(rng.Intn(3))}
		}
		return out
	}
	replay := func(c *cache.Cache, accs []trace.Access) []cache.AccessResult {
		out := make([]cache.AccessResult, len(accs))
		for i, a := range accs {
			out[i] = c.Access(a.PC, a.Block(), a.Core, a.Kind)
		}
		return out
	}
	a, b := stream(1), stream(2)
	fresh, reused := cache.MustNewUpperLRU(cfg), cache.MustNewUpperLRU(cfg)
	want := replay(fresh, b)
	replay(reused, a)
	reused.Reset()
	if got := replay(reused, b); !reflect.DeepEqual(got, want) {
		t.Error("access results after a reset differ from a new cache's")
	}
	if got, want := reused.Stats(), fresh.Stats(); got != want {
		t.Errorf("stats after a reset %+v, new cache %+v", got, want)
	}
	for block := uint64(0); block < 256; block++ {
		if got, want := reused.Lookup(block), fresh.Lookup(block); got != want {
			t.Errorf("block %d: resident %v after a reset, %v in a new cache", block, got, want)
		}
	}
}

// TestResetNeedsResetter: resetting a cache whose policy cannot be reset
// is a programming error, reported by a panic that names the policy.
func TestResetNeedsResetter(t *testing.T) {
	c := cache.MustNew(cache.Config{Name: "reset", Sets: 4, Ways: 2}, &stubBypass{ways: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a cache whose policy is no Resetter did not panic")
		}
	}()
	c.Reset()
}
