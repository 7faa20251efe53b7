package policy

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

func TestSHiPWritebackInsertsDistant(t *testing.T) {
	t.Parallel()
	p := NewSHiPPP(4, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2}, p)
	c.Access(1, 0, 0, trace.Writeback)
	c.Access(2, 4, 0, trace.Load)
	c.Access(3, 8, 0, trace.Load) // set 0 full → must evict the writeback
	if c.Lookup(0) {
		t.Fatal("writeback line survived demand pressure")
	}
}

func TestSHiPStagedPromotion(t *testing.T) {
	t.Parallel()
	p := NewSHiPPP(1, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4}, p)
	c.Access(1, 0, 0, trace.Load)
	c.Access(1, 0, 0, trace.Load) // first re-touch → RRPV 1
	if p.state.rrpv[0][0] != 1 {
		t.Fatalf("first re-touch RRPV = %d, want 1", p.state.rrpv[0][0])
	}
	c.Access(1, 0, 0, trace.Load) // second re-touch → RRPV 0
	if p.state.rrpv[0][0] != 0 {
		t.Fatalf("second re-touch RRPV = %d, want 0", p.state.rrpv[0][0])
	}
}

func TestGliderAverseHitDemotes(t *testing.T) {
	t.Parallel()
	// When the predictor classifies a hit access as averse, the line is
	// demoted to distant RRPV (the paper's hit-priority rule).
	g := NewGlider(4, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2}, g)
	// Make PC 9 confidently averse by direct training.
	hist := g.Predictor().History(0)
	for i := 0; i < 200; i++ {
		g.Predictor().Train(9, []uint64{1, 2, 3}, false)
	}
	_ = hist
	// Insert with a different PC, then hit with the averse PC after its
	// feature context matches.
	c.Access(1, 0, 0, trace.Load)
	g.Predictor().Observe(0, 1)
	g.Predictor().Observe(0, 2)
	g.Predictor().Observe(0, 3)
	c.Access(9, 0, 0, trace.Load) // hit, predicted averse
	if g.state.rrpv[0][0] != maxRRPV {
		t.Fatalf("averse hit left RRPV = %d, want %d", g.state.rrpv[0][0], maxRRPV)
	}
}

func TestHawkeyeDetrainToggle(t *testing.T) {
	t.Parallel()
	p := NewHawkeye(1, 2)
	p.state.rrpv[0][0], p.state.rrpv[0][1] = 3, 5 // both friendly: a forced eviction
	lines := []cache.Line{{Valid: true, Tag: 1, PC: 5}, {Valid: true, Tag: 2, PC: 5}}
	p.detrainOnEvict = false
	p.Victim(0, 9, 3, 0, lines)
	if p.Debug().TrainNeg != 0 {
		t.Fatal("detraining fired while disabled")
	}
	p.detrainOnEvict = true
	p.Victim(0, 9, 3, 0, lines)
	if p.Debug().TrainNeg != 1 {
		t.Fatal("a forced friendly eviction did not detrain")
	}
}

func TestDRRIPLeaderSets(t *testing.T) {
	t.Parallel()
	// DRRIP and DIP duel on one selector: sets ≡ 0 (mod 64) lead policy A
	// (SRRIP, LRU insertion), sets ≡ 1 lead policy B (BRRIP, BIP).
	for name, d := range map[string]*setDuel{"drrip": &NewDRRIP(128, 4, 1).duel, "dip": &NewDIP(128, 4, 1).duel} {
		if d.leader(0) != 0 || d.leader(64) != 0 {
			t.Fatalf("%s: sets ≡ 0 (mod 64) must lead policy A", name)
		}
		if d.leader(1) != 1 || d.leader(65) != 1 {
			t.Fatalf("%s: sets ≡ 1 (mod 64) must lead policy B", name)
		}
		if d.leader(2) != -1 {
			t.Fatalf("%s: other sets must be followers", name)
		}
		// A leader's miss votes against its own policy; followers use B
		// only while PSEL sits above its midpoint, and PSEL saturates.
		if d.missUsesB(0) || d.psel != 513 {
			t.Fatalf("%s: A leader's miss: psel %d, want 513 and policy A", name, d.psel)
		}
		if !d.missUsesB(65) || d.psel != 512 {
			t.Fatalf("%s: B leader's miss: psel %d, want 512 and policy B", name, d.psel)
		}
		if d.psel = pselMax / 2; d.missUsesB(2) {
			t.Fatalf("%s: a follower at psel %d chose policy B", name, d.psel)
		}
		if d.psel = pselMax; d.missUsesB(64) || d.psel != pselMax || !d.missUsesB(3) {
			t.Fatalf("%s: psel %d past its maximum, or a follower ignored it", name, d.psel)
		}
	}
}

func TestRRPVVictimAges(t *testing.T) {
	t.Parallel()
	s := newRRPVState(1, 2)
	s.rrpv[0][0] = 3
	s.rrpv[0][1] = 5
	w := s.victim(0)
	// Aging must raise the max to 7 and pick that way.
	if w != 1 {
		t.Fatalf("victim = %d, want 1 (higher RRPV)", w)
	}
	if s.rrpv[0][0] != 5 {
		t.Fatalf("other way aged to %d, want 5", s.rrpv[0][0])
	}
}

func TestGliderVictimPrefersAverse(t *testing.T) {
	t.Parallel()
	g := NewGlider(1, 2)
	lines := []cache.Line{{Valid: true, Tag: 1}, {Valid: true, Tag: 2}}
	g.state.rrpv[0][0] = maxRRPV
	g.state.rrpv[0][1] = 0
	if got := g.Victim(0, 1, 3, 0, lines); got != 0 {
		t.Fatalf("victim = %d, want the averse way 0", got)
	}
}

func TestPerceptronWritebackPath(t *testing.T) {
	t.Parallel()
	p := NewPerceptron(4, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2}, p)
	c.Access(1, 0, 0, trace.Writeback)
	c.Access(2, 4, 0, trace.Load)
	c.Access(3, 8, 0, trace.Load)
	if c.Lookup(0) {
		t.Fatal("perceptron writeback line survived demand pressure")
	}
}

func TestMPPPBPhaseFeatureChanges(t *testing.T) {
	t.Parallel()
	p := NewMPPPB(1, 4)
	var f1, f2 [mpppbFeatures]uint16
	p.features(f1[:], 1, 100, 0)
	p.fills = 1 << 15 // advance coarse time
	p.features(f2[:], 1, 100, 0)
	if f1[7] == f2[7] {
		t.Fatal("coarse-time feature did not change across phases")
	}
}
