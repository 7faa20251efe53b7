package policy

// Unit tests for the reuse-distance family's building blocks: bucket
// arithmetic, the lexicographic MSA rank comparison and the k = 1 victim
// scan that stands in for it, writeback handling, predictor capability, obs
// wiring, and model introspection.

import (
	"strings"
	"testing"

	"glider/internal/cache"
	"glider/internal/obs"
	"glider/internal/trace"
)

func TestReuseBucketRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []struct {
		d uint64
		b int
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {64, 7}, {65, 7}, {1 << 20, 21},
	}
	for _, c := range cases {
		if got := reuseBucket(c.d); got != c.b {
			t.Errorf("reuseBucket(%d) = %d, want %d", c.d, got, c.b)
		}
		// The representative distance of a bucket must cover the distances
		// that map into it.
		if rep := bucketDist(reuseBucket(c.d)); rep < c.d {
			t.Errorf("bucketDist(reuseBucket(%d)) = %d < %d", c.d, rep, c.d)
		}
	}
	if reuseBucket(ReuseNever) != reuseMaxBucket {
		t.Error("ReuseNever must map to the max bucket")
	}
	if bucketDist(reuseMaxBucket) != ReuseNever {
		t.Error("max bucket must map back to ReuseNever")
	}
	if satAdd(^uint64(0)>>2, ReuseNever) <= ^uint64(0)>>2 {
		t.Error("satAdd must not wrap")
	}
}

func TestMSARankGreater(t *testing.T) {
	t.Parallel()
	const clock = 100
	cases := []struct {
		name string
		a, b []uint64
		want bool
	}{
		{"first element decides", []uint64{300, 310}, []uint64{200, 400}, true},
		{"first element decides (reverse)", []uint64{200, 400}, []uint64{300, 310}, false},
		{"tie broken by second", []uint64{200, 400}, []uint64{200, 300}, true},
		{"equal is not greater", []uint64{200, 300}, []uint64{200, 300}, false},
		{"expired prefix skipped", []uint64{50, 300}, []uint64{200, 400}, true},
		{"fully expired is maximal", []uint64{50, 60}, []uint64{200, 400}, true},
		{"nothing beats fully expired", []uint64{200, 400}, []uint64{50, 60}, false},
		{"both expired tie", []uint64{50, 60}, []uint64{70, 80}, false},
		{"shorter suffix ranks higher on tie", []uint64{90, 200}, []uint64{200, 300}, true},
	}
	for _, c := range cases {
		if got := msaRankGreater(c.a, c.b, clock); got != c.want {
			t.Errorf("%s: msaRankGreater(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

// fixedReuse is a ReusePredictor answering one distance for every step.
type fixedReuse struct{ d uint64 }

func (f *fixedReuse) PredictReuse(pc, block uint64, dst []uint64) {
	for j := range dst {
		dst[j] = f.d
	}
}

// TestLearnedPolicyReuseK1ScanMatchesRank checks Victim's one-compare scan
// at k = 1 against the lexicographic rank it stands in for. With the clock
// and the resident stamps set directly, Victim must pick the way a
// first-wins msaRankGreater argmax over (incoming, residents) picks, and
// bypass when the incoming schedule wins.
func TestLearnedPolicyReuseK1ScanMatchesRank(t *testing.T) {
	t.Parallel()
	const ways = 4
	model := &fixedReuse{}
	p := NewReuseWithPredictor(1, ways, 1, model)
	lines := make([]cache.Line, ways)
	check := func(label string, clock, d uint64, stamps [ways]uint64) {
		t.Helper()
		p.clock, model.d = clock, d
		copy(p.rank, stamps[:])
		want := cache.Bypass
		best := []uint64{satAdd(clock, d)}
		for w := range stamps {
			if msaRankGreater(stamps[w:w+1], best, clock) {
				best, want = stamps[w:w+1], w
			}
		}
		if got := p.Victim(0, 0xA, 0xB, 0, lines); got != want {
			t.Fatalf("%s: clock %d, incoming distance %d, stamps %v: Victim %d, rank argmax %d", label, clock, d, stamps, got, want)
		}
	}
	const clock = 1000
	never := satAdd(clock, ReuseNever)
	cases := []struct {
		name   string
		d      uint64
		stamps [ways]uint64
	}{
		{"furthest live resident", 100, [ways]uint64{1100, 1500, 1200, 1050}},
		{"incoming furthest bypasses", 900, [ways]uint64{1100, 1500, 1200, 1050}},
		{"expired resident first", 100, [ways]uint64{1100, 999, 1500, 1000}},
		{"all expired: first way", 100, [ways]uint64{5, 999, 1000, 0}},
		{"tie with incoming bypasses", 200, [ways]uint64{1100, 1200, 1200, 1150}},
		{"tie between residents keeps the first", 100, [ways]uint64{1150, 1300, 1300, 1200}},
		{"never-reused incoming ties a never-reused resident", ReuseNever, [ways]uint64{1100, never, 1200, never}},
		{"expired incoming beats live residents", 0, [ways]uint64{1100, 1200, 1300, 1400}},
		{"expired incoming beats expired residents", 0, [ways]uint64{10, 1200, 20, 1400}},
	}
	for _, c := range cases {
		check(c.name, clock, c.d, c.stamps)
	}
	// Random sets over a narrow band around the clock, so expiries and
	// ties are common; a zero incoming distance is already expired.
	rng := newXorshift(7)
	for i := 0; i < 20_000; i++ {
		clock := uint64(rng.intn(64))
		var stamps [ways]uint64
		for w := range stamps {
			stamps[w] = uint64(rng.intn(int(clock) + 16))
		}
		check("random", clock, uint64(rng.intn(16)), stamps)
	}
}

// TestLearnedPolicyColdPredictBucket: the predict.bucket histogram records
// the bucket the model predicted, so one cold access records the init
// bucket, not the bucket of that bucket's distance.
func TestLearnedPolicyColdPredictBucket(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"frd", "msa"} {
		reg := obs.NewRegistry()
		p, _ := New(name, 16, 4)
		p.(obs.Attacher).AttachObs(reg, nil)
		c, err := cache.New(cache.Config{Name: "cold", Sets: 16, Ways: 4}, p)
		if err != nil {
			t.Fatal(err)
		}
		c.Access(0xA, 10, 0, trace.Load)
		var found bool
		for _, h := range reg.Snapshot().Hists {
			if h.Name != name+".predict.bucket" {
				continue
			}
			found = true
			if h.Count != 1 || h.Sum != reuseInitBucket {
				t.Errorf("%s: %d observations summing to %v, want one of bucket %d", name, h.Count, h.Sum, reuseInitBucket)
			}
		}
		if !found {
			t.Errorf("%s: no %s.predict.bucket histogram", name, name)
		}
	}
}

// TestWritebackFillsAreEvictFirst: a writeback-filled line carries no reuse
// prediction, so the next demand miss in the set must evict it rather than
// a predicted-live line.
func TestWritebackFillsAreEvictFirst(t *testing.T) {
	t.Parallel()
	for _, build := range []func() cache.Policy{
		func() cache.Policy { return NewFRD(1, 2) },
		func() cache.Policy { return NewMSA(1, 2) },
	} {
		p := build()
		c, err := cache.New(cache.Config{Name: "wb", Sets: 1, Ways: 2}, p)
		if err != nil {
			t.Fatal(err)
		}
		c.Access(0xA, 10, 0, trace.Load)      // demand line
		c.Access(0xB, 20, 0, trace.Writeback) // writeback fill: expired stamp
		r := c.Access(0xA, 30, 0, trace.Load) // must evict the writeback line
		if r.Way == cache.Bypass {
			t.Fatalf("%s: demand miss bypassed instead of evicting the writeback line", p.Name())
		}
		if !r.Evicted || r.EvictedLine.Tag != 20 {
			t.Fatalf("%s: evicted %+v, want the writeback-filled line (tag 20)", p.Name(), r)
		}
	}
}

func TestLearnedPoliciesPredictFriendly(t *testing.T) {
	t.Parallel()
	// Near-immediate reuse → friendly; a PC trained to "never reuse" →
	// averse. Drive the learned models with crafted streams long enough to
	// trained state.
	const sets, ways = 16, 4
	for _, name := range []string{"frd", "msa"} {
		p, _ := New(name, sets, ways)
		c, err := cache.New(cache.Config{Name: "pf", Sets: sets, Ways: ways}, p)
		if err != nil {
			t.Fatal(err)
		}
		// PC 0xA re-touches a tiny working set (distance 8); PC 0xB scans.
		next := uint64(1 << 30)
		for it := 0; it < 3000; it++ {
			c.Access(0xA, uint64(it%8), 0, trace.Load)
			c.Access(0xB, next, 0, trace.Load)
			next++
		}
		fp, ok := p.(interface {
			PredictFriendly(pc uint64, core uint8) bool
		})
		if !ok {
			t.Fatalf("%s does not implement PredictFriendly", name)
		}
		if !fp.PredictFriendly(0xA, 0) {
			t.Errorf("%s: hot PC 0xA classified averse", name)
		}
		if fp.PredictFriendly(0xB, 0) {
			t.Errorf("%s: scan PC 0xB classified friendly", name)
		}
	}
}

func TestLearnedPolicyObsAndIntrospection(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"frd", "msa"} {
		reg := obs.NewRegistry()
		sink := obs.NewRingSink(256)
		p, _ := New(name, 16, 4)
		p.(obs.Attacher).AttachObs(reg, sink)
		c, err := cache.New(cache.Config{Name: "obs", Sets: 16, Ways: 4}, p)
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 2000; it++ {
			c.Access(uint64(it%5), uint64(it%96), 0, trace.Load)
		}
		p.(obs.Flusher).FlushObs()
		snap := reg.Snapshot()
		var sawTrain bool
		for _, counter := range snap.Counters {
			if strings.HasPrefix(counter.Name, name+".train") && counter.Value > 0 {
				sawTrain = true
			}
		}
		if !sawTrain {
			t.Errorf("%s: no training counters in snapshot", name)
		}
		events := sink.Events()
		if len(events) == 0 {
			t.Fatalf("%s: FlushObs emitted nothing", name)
		}
		var sawSummary, sawRow bool
		for _, e := range events {
			if e.Component == name && e.Event == "summary" {
				sawSummary = true
			}
			if e.Component == name && e.Event == "pc_error" {
				sawRow = true
			}
		}
		if !sawSummary || !sawRow {
			t.Errorf("%s: missing flush events (summary=%v, pc_error=%v)", name, sawSummary, sawRow)
		}
		mi := p.(ModelIntrospector)
		rows := mi.TopModelRows(3)
		if len(rows) == 0 || len(rows) > 3 {
			t.Fatalf("%s: TopModelRows(3) returned %d rows", name, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Samples > rows[i-1].Samples {
				t.Errorf("%s: rows not ordered by samples: %d after %d", name, rows[i].Samples, rows[i-1].Samples)
			}
		}
	}
}

func TestMSAStepsClamped(t *testing.T) {
	t.Parallel()
	if got := NewMSAK(4, 4, 0).Steps(); got != 1 {
		t.Errorf("k=0 clamped to %d, want 1", got)
	}
	if got := NewMSAK(4, 4, 100).Steps(); got != reuseMaxSteps {
		t.Errorf("k=100 clamped to %d, want %d", got, reuseMaxSteps)
	}
	if got := NewMSA(4, 4).Steps(); got != msaDefaultSteps {
		t.Errorf("default k = %d, want %d", got, msaDefaultSteps)
	}
}
