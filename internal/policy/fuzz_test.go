package policy

// Fuzz targets for the reuse-distance policy family: arbitrary access
// streams must never panic, never evict an invalid way (cache.Access panics
// on one), and produce bit-identical results when replayed on a fresh
// instance — the determinism property the byte-identity differential suites
// rest on. FuzzResetMatchesFresh holds every registered policy to the same
// property across a reset. Seed corpora live in testdata/fuzz and replay
// under plain `go test`; `make fuzz-smoke` gives the targets a mutation
// budget.

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// fuzzAccess is one decoded fuzz record.
type fuzzAccess struct {
	pc, block uint64
	kind      trace.Kind
}

// decodeFuzzStream turns raw bytes into a bounded access stream. 4 bytes
// per access: PC selector, two block bytes, kind selector. Small domains on
// purpose — collisions in sets, blocks, and PCs are where replacement
// logic actually runs.
func decodeFuzzStream(data []byte) []fuzzAccess {
	const maxAccesses = 4096
	var out []fuzzAccess
	for i := 0; i+4 <= len(data) && len(out) < maxAccesses; i += 4 {
		out = append(out, fuzzAccess{
			pc:    uint64(data[i] & 0x1f),
			block: uint64(data[i+1]) | uint64(data[i+2])<<8,
			kind:  trace.Kind(data[i+3] % 3),
		})
	}
	return out
}

// runFuzzStream drives a fresh cache+policy over the stream and returns the
// per-access results.
func runFuzzStream(p cache.Policy, accs []fuzzAccess, sets, ways int) []cache.AccessResult {
	c, err := cache.New(cache.Config{Name: "fuzz", Sets: sets, Ways: ways}, p)
	if err != nil {
		panic(err)
	}
	out := make([]cache.AccessResult, len(accs))
	for i, a := range accs {
		out[i] = c.Access(a.pc, a.block, 0, a.kind)
	}
	return out
}

// fuzzVictimDirect calls Victim directly against partially-valid line
// arrays — states the cache never presents (it fills invalid ways itself)
// but the contract still covers.
func fuzzVictimDirect(t *testing.T, p cache.Policy, accs []fuzzAccess, sets, ways int) {
	t.Helper()
	lines := make([]cache.Line, ways)
	for i, a := range accs {
		for w := range lines {
			lines[w] = cache.Line{Valid: (i+w)%3 != 0, Tag: a.block + uint64(w), PC: a.pc}
		}
		set := int(a.block) & (sets - 1)
		if v := p.Victim(set, a.pc, a.block, 0, lines); v != cache.Bypass && (v < 0 || v >= ways) {
			t.Fatalf("%s: Victim returned invalid way %d (ways=%d)", p.Name(), v, ways)
		}
	}
}

func FuzzFRDAccess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 0, 1, 2, 0, 0, 3, 4, 1, 1})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 512; i++ {
			b = append(b, byte(i%7), byte(i), byte(i>>3), byte(i%5))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		const sets, ways = 16, 4
		accs := decodeFuzzStream(data)
		a := runFuzzStream(NewFRD(sets, ways), accs, sets, ways)
		b := runFuzzStream(NewFRD(sets, ways), accs, sets, ways)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("FRD nondeterministic at access %d: %+v vs %+v", i, a[i], b[i])
			}
		}
		fuzzVictimDirect(t, NewFRD(sets, ways), accs, sets, ways)
	})
}

func FuzzMSAAccess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 2, 0, 0, 1, 2, 0, 0, 3, 4, 1, 1})
	f.Add(func() []byte {
		b := []byte{2}
		for i := 0; i < 512; i++ {
			b = append(b, byte(i%7), byte(i), byte(i>>3), byte(i%5))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		const sets, ways = 16, 4
		k := 1
		if len(data) > 0 {
			k = int(data[0]%reuseMaxSteps) + 1
			data = data[1:]
		}
		accs := decodeFuzzStream(data)
		a := runFuzzStream(NewMSAK(sets, ways, k), accs, sets, ways)
		b := runFuzzStream(NewMSAK(sets, ways, k), accs, sets, ways)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("MSA(k=%d) nondeterministic at access %d: %+v vs %+v", k, i, a[i], b[i])
			}
		}
		fuzzVictimDirect(t, NewMSAK(sets, ways, k), accs, sets, ways)
	})
}

// replayFuzzStream drives c over the stream and returns the per-access
// results.
func replayFuzzStream(c *cache.Cache, accs []fuzzAccess) []cache.AccessResult {
	out := make([]cache.AccessResult, len(accs))
	for i, a := range accs {
		out[i] = c.Access(a.pc, a.block, 0, a.kind)
	}
	return out
}

// FuzzResetMatchesFresh: a reset LLC must behave exactly as a new one. The
// first byte picks a registered policy, the second the geometry (1 to 16
// sets, 1 to 8 ways), and the third how many records of the stream that
// follows form stream A; the rest is stream B. One LLC replays A, is reset
// and replays B. Every access result, the statistics and, for a predictor,
// its final answer for every PC the streams can hold must equal those of a
// new LLC replaying B.
func FuzzResetMatchesFresh(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0x12, 2, 1, 2, 0, 0, 1, 2, 0, 0, 3, 4, 1, 1})
	f.Add(func() []byte {
		b := []byte{10, 0x31, 128}
		for i := 0; i < 256; i++ {
			b = append(b, byte(i%7), byte(i*5), byte(i>>4), byte(i%5))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		names := Names()
		name := names[int(data[0])%len(names)]
		cfg := cache.Config{Name: "fuzz", Sets: 1 << (data[1] % 5), Ways: 1 + int(data[1]>>4)%8}
		accs := decodeFuzzStream(data[3:])
		split := min(int(data[2]), len(accs))
		build := func() *cache.Cache {
			p, _ := New(name, cfg.Sets, cfg.Ways)
			c, err := cache.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		fresh, reused := build(), build()
		want := replayFuzzStream(fresh, accs[split:])
		replayFuzzStream(reused, accs[:split])
		reused.Reset()
		got := replayFuzzStream(reused, accs[split:])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s on %d×%d: access %d of stream B after a reset: %+v, fresh %+v", name, cfg.Sets, cfg.Ways, i, got[i], want[i])
			}
		}
		if got, want := reused.Stats(), fresh.Stats(); got != want {
			t.Fatalf("%s on %d×%d: stats after a reset %+v, fresh %+v", name, cfg.Sets, cfg.Ways, got, want)
		}
		if fp, ok := fresh.Policy().(friendlyPredictor); ok {
			rp := reused.Policy().(friendlyPredictor)
			for pc := uint64(0); pc < 32; pc++ {
				if rp.PredictFriendly(pc, 0) != fp.PredictFriendly(pc, 0) {
					t.Fatalf("%s on %d×%d: PC %d predicted differently after a reset", name, cfg.Sets, cfg.Ways, pc)
				}
			}
		}
	})
}
