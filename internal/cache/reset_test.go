package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/policy"
	"glider/internal/trace"
)

// TestResetMatchesNew replays a random stream A on a cache, resets it and
// replays a stream B, on the policy-driven path and on the fast LRU path.
// Every access result, the statistics and the occupancy must equal those of
// a new cache replaying B.
func TestResetMatchesNew(t *testing.T) {
	cfg := cache.Config{Name: "reset", Sets: 16, Ways: 4}
	builds := map[string]func() *cache.Cache{
		"policy": func() *cache.Cache { return cache.MustNew(cfg, policy.NewLRU(cfg.Sets, cfg.Ways)) },
		"fast":   func() *cache.Cache { return cache.MustNewUpperLRU(cfg) },
	}
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
	for name, build := range builds {
		fresh, reused := build(), build()
		want := replay(fresh, b)
		replay(reused, a)
		reused.Reset()
		if got := replay(reused, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: access results after a reset differ from a new cache's", name)
		}
		if got, want := reused.Stats(), fresh.Stats(); got != want {
			t.Errorf("%s: stats after a reset %+v, new cache %+v", name, got, want)
		}
		if got, want := reused.Occupancy(), fresh.Occupancy(); got != want {
			t.Errorf("%s: occupancy after a reset %v, new cache %v", name, got, want)
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
