package cache_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// llcEvent is one call to a cache's Access, or a Flush.
type llcEvent struct {
	pc, block uint64
	core      uint8
	kind      trace.Kind
	flush     bool
}

// updateLog wraps a policy and records every Update call as the access that
// caused it. The cache calls Update once per Access.
type updateLog struct {
	cache.Policy
	events []llcEvent
}

func (u *updateLog) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	u.events = append(u.events, llcEvent{pc: pc, block: block, core: core, kind: kind})
	u.Policy.Update(set, way, pc, block, core, hit, kind)
}

// victimLog wraps a policy and keeps a copy of the lines of its latest
// Victim call.
type victimLog struct {
	cache.Policy
	calls int
	lines []cache.Line
}

func (v *victimLog) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	v.calls++
	v.lines = append(v.lines[:0], lines...)
	return v.Policy.Victim(set, pc, block, core, lines)
}

// stubBypass bypasses every other victim request and otherwise evicts a way
// picked from the PC and block, so both the bypass and the eviction paths
// run with a full set.
type stubBypass struct{ ways, calls int }

func (s *stubBypass) Name() string { return "stub-bypass" }

func (s *stubBypass) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	s.calls++
	if s.calls%2 == 0 {
		return cache.Bypass
	}
	return int((pc + block) % uint64(s.ways))
}

func (s *stubBypass) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
}

// wallPolicies is every registered policy plus the bypassing stub.
func wallPolicies() []string { return append(policy.Names(), "stub-bypass") }

func newWallPolicy(t testing.TB, name string, cfg cache.Config) cache.Policy {
	t.Helper()
	if name == "stub-bypass" {
		return &stubBypass{ways: cfg.Ways}
	}
	p, ok := policy.New(name, cfg.Sets, cfg.Ways)
	if !ok {
		t.Fatalf("unknown policy %q", name)
	}
	return p
}

// replayBoth drives a Cache and a Reference, each with its own instance of
// the named policy, through events in lockstep. It fails at the first
// difference in an AccessResult, the Stats, the lines a Victim call sees, a
// Lookup or the Occupancy, and at the end compares the two caches' observer
// snapshots. It returns how many Victim calls the replay made.
func replayBoth(t testing.TB, name string, cfg cache.Config, events []llcEvent) int {
	t.Helper()
	gotPol := &victimLog{Policy: newWallPolicy(t, name, cfg)}
	wantPol := &victimLog{Policy: newWallPolicy(t, name, cfg)}
	got, err := cache.New(cfg, gotPol)
	if err != nil {
		t.Fatal(err)
	}
	want := cache.NewReference(cfg, wantPol)
	gotReg, wantReg := obs.NewRegistry(), obs.NewRegistry()
	got.AttachObserver(cache.NewObserver(gotReg, cfg))
	want.AttachObserver(cache.NewObserver(wantReg, cfg))

	for i, e := range events {
		if e.flush {
			got.Flush()
			want.Flush()
		} else if g, w := got.Access(e.pc, e.block, e.core, e.kind), want.Access(e.pc, e.block, e.core, e.kind); g != w {
			t.Fatalf("%s: event %d (%+v): result %+v, reference %+v", name, i, e, g, w)
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("%s: event %d: stats %+v, reference %+v", name, i, g, w)
		}
		if gotPol.calls != wantPol.calls || !slices.Equal(gotPol.lines, wantPol.lines) {
			t.Fatalf("%s: event %d: Victim call %d saw %+v, reference call %d saw %+v",
				name, i, gotPol.calls, gotPol.lines, wantPol.calls, wantPol.lines)
		}
		for _, b := range []uint64{e.block, events[i/2].block, e.block + 1} {
			if got.Lookup(b) != want.Lookup(b) {
				t.Fatalf("%s: event %d: Lookup(%d) = %v, reference %v", name, i, b, got.Lookup(b), want.Lookup(b))
			}
		}
		if e.flush || i%1024 == 0 || i == len(events)-1 {
			if g, w := got.Occupancy(), want.Occupancy(); g != w {
				t.Fatalf("%s: event %d: occupancy %v, reference %v", name, i, g, w)
			}
		}
	}
	if !reflect.DeepEqual(gotReg.Snapshot(), wantReg.Snapshot()) {
		t.Fatalf("%s: observer snapshots differ", name)
	}
	return gotPol.calls
}

// captureEvents returns the LLC events of a capture of the named workload:
// every Access RunFunctional makes on the LLC, demand accesses and
// writebacks, in order.
func captureEvents(t testing.TB, name string, accesses, cores int) []llcEvent {
	t.Helper()
	spec, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*trace.Trace, cores)
	for i := range parts {
		parts[i] = spec.Generate(accesses, cpu.CoreSeed(42, i))
	}
	tr := parts[0]
	if cores > 1 {
		tr = trace.Interleave(name+"-mix", parts...)
	}
	ctx := context.Background()
	c, err := cpu.NewCapture(ctx, tr, cores)
	if err != nil {
		t.Fatal(err)
	}
	rec := &updateLog{Policy: policy.NewLRU(cache.LLCConfig.Sets, cache.LLCConfig.Ways)}
	if _, err := c.RunFunctional(ctx, cache.MustNew(cache.LLCConfig, rec), 0, false); err != nil {
		t.Fatal(err)
	}
	return rec.events
}

// randomEvents is a stream over 3× the capacity of cfg, with a Flush about
// every 500 events.
func randomEvents(r *rand.Rand, cfg cache.Config, n int) []llcEvent {
	events := make([]llcEvent, n)
	for i := range events {
		if r.Intn(500) == 0 {
			events[i].flush = true
			continue
		}
		events[i] = llcEvent{
			pc:    uint64(0x400000 + r.Intn(32)*4),
			block: uint64(r.Intn(3 * cfg.Lines())),
			core:  uint8(r.Intn(4)),
			kind:  trace.Kind(r.Intn(3)),
		}
	}
	return events
}

// TestCacheMatchesReference is the reference wall for the packed tag store:
// every registered policy and a bypassing stub run on Cache and on the
// reference cache (reference_test.go) over real LLC streams (mcf alone and
// a four-core interleave, on the Table 1 LLC and a 64-set LLC that keeps
// evicting) and over random streams with Flushes on small geometries.
func TestCacheMatchesReference(t *testing.T) {
	t.Parallel()
	type run struct {
		cfg    cache.Config
		events []llcEvent
	}
	solo := captureEvents(t, "mcf", 60_000, 1)
	small := cache.Config{Name: "LLC", Sets: 64, Ways: 16, LatencyCycles: 26}
	runs := []run{{cache.LLCConfig, solo}, {small, solo}, {small, captureEvents(t, "omnetpp", 15_000, 4)}}
	r := rand.New(rand.NewSource(7))
	for _, g := range []cache.Config{{Name: "LLC", Sets: 16, Ways: 4}, {Name: "LLC", Sets: 8, Ways: 16}} {
		runs = append(runs, run{g, randomEvents(r, g, 20_000)})
	}
	for _, name := range wallPolicies() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, run := range runs {
				if replayBoth(t, name, run.cfg, run.events) == 0 {
					t.Errorf("%d sets: no Victim call in %d events", run.cfg.Sets, len(run.events))
				}
			}
		})
	}
}

// FuzzCacheMatchesReference drives one policy on Cache and on the reference
// cache through an arbitrary stream. Byte 0 picks the policy (every
// registered one and the bypassing stub), byte 1 the geometry (4 to 32
// sets, 2 to 16 ways); then each 4-byte record is one access (PC selector,
// two block bytes, and a byte holding the kind and core) or, when that last
// byte is 0xf0 or above, a Flush.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 0, 3, 4, 0, 1, 1, 2, 0, 2, 5, 6, 0, 0xf0, 1, 2, 0, 1})
	f.Add([]byte{9, 0x0f, 7, 1, 0, 5, 7, 2, 0, 6, 7, 3, 0, 4, 7, 4, 0, 5})
	r := rand.New(rand.NewSource(3))
	seed := make([]byte, 2+4*2000)
	r.Read(seed)
	for i := range len(policy.Names()) + 1 {
		seed[0] = byte(i)
		f.Add(slices.Clone(seed))
	}
	names := wallPolicies()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		name := names[int(data[0])%len(names)]
		cfg := cache.Config{Name: "fuzz", Sets: 4 << (data[1] & 3), Ways: 2 << (data[1] >> 2 & 3)}
		const maxEvents = 4096
		var events []llcEvent
		for i := 2; i+4 <= len(data) && len(events) < maxEvents; i += 4 {
			op := data[i+3]
			events = append(events, llcEvent{
				pc:    uint64(data[i] & 0x1f),
				block: uint64(data[i+1]) | uint64(data[i+2]&1)<<8,
				core:  op >> 2 & 3,
				kind:  trace.Kind(op % 3),
				flush: op >= 0xf0,
			})
		}
		if len(events) == 0 {
			return
		}
		replayBoth(t, name, cfg, events)
	})
}
