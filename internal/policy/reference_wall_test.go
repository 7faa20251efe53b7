package policy_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/experiments"
	gl "glider/internal/glider"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// victimLog records every victim its policy chooses.
type victimLog struct {
	cache.Policy
	victims []int32
}

func (v *victimLog) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := v.Policy.Victim(set, pc, block, core, lines)
	v.victims = append(v.victims, int32(w))
	return w
}

func (v *victimLog) PredictFriendly(pc uint64, core uint8) bool {
	return v.Policy.(policy.FriendlyPredictor).PredictFriendly(pc, core)
}

// eventLog is an obs.Sink keeping every event.
type eventLog struct{ events []string }

func (e *eventLog) Emit(component, event string, fields map[string]any) {
	e.events = append(e.events, fmt.Sprintf("%s/%s %v", component, event, fields))
}

func (e *eventLog) Close() error { return nil }

// learnedRun is everything the wall compares about one replay.
type learnedRun struct {
	victims     []int32
	result      cpu.FunctionalResult
	debug       any
	rows        any
	snapshot    obs.Snapshot
	events      []string
	expiries    uint64
	expiredSeen uint64
}

// replayLearned replays the capture on a fresh LLC running p, with obs
// attached, and collects what the wall compares.
func replayLearned(t *testing.T, c *cpu.Capture, cfg cache.Config, warmup int, p cache.Policy) learnedRun {
	t.Helper()
	reg, sink := obs.NewRegistry(), &eventLog{}
	p.(obs.Attacher).AttachObs(reg, sink)
	log := &victimLog{Policy: p}
	llc, err := cache.New(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunFunctional(context.Background(), llc, warmup, true)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := p.(obs.Flusher); ok {
		f.FlushObs()
	}
	run := learnedRun{victims: log.victims, result: res, snapshot: reg.Snapshot(), events: sink.events}
	switch p := p.(type) {
	case interface{ Debug() policy.TrainDebug }:
		run.debug = p.Debug()
	case interface{ Debug() policy.ReuseDebug }:
		run.debug = p.Debug()
		run.expiries = p.Debug().Expiries
	case interface{ Predictor() *gl.Predictor }:
		s, pos, neg, skipped := p.Predictor().DebugCounts()
		run.debug = [4]uint64{s, pos, neg, skipped}
		run.rows = p.Predictor().TopRows(64)
	}
	if m, ok := p.(policy.ModelIntrospector); ok {
		run.rows = m.TopModelRows(-1)
	}
	for _, v := range run.snapshot.Vecs {
		if v.Name == p.Name()+".optgen.verdict" {
			run.expiredSeen = v.Cells[3] // opt.VerdictExpired
		}
	}
	return run
}

// diffRuns reports the first difference between a policy's run and its
// reference's.
func diffRuns(got, want learnedRun) string {
	for i := range min(len(got.victims), len(want.victims)) {
		if got.victims[i] != want.victims[i] {
			return fmt.Sprintf("victim %d: way %d, reference way %d", i, got.victims[i], want.victims[i])
		}
	}
	switch {
	case len(got.victims) != len(want.victims):
		return fmt.Sprintf("%d victims, reference %d", len(got.victims), len(want.victims))
	case !reflect.DeepEqual(got.result, want.result):
		return fmt.Sprintf("stats or predictions differ: %+v vs %+v", got.result.LLC, want.result.LLC)
	case !reflect.DeepEqual(got.debug, want.debug):
		return fmt.Sprintf("debug counters %+v, reference %+v", got.debug, want.debug)
	case !reflect.DeepEqual(got.rows, want.rows):
		return "model rows differ"
	case !reflect.DeepEqual(got.snapshot, want.snapshot):
		return fmt.Sprintf("obs snapshots differ:\n%+v\n%+v", got.snapshot, want.snapshot)
	case !reflect.DeepEqual(got.events, want.events):
		return "flushed obs events differ"
	}
	return ""
}

// TestLearnedPoliciesMatchMapReference is the reference wall for the flat
// samplers: every benchmark-sweep trace's LLC stream replays through
// hawkeye, glider, frd and msa and through their map-based references
// (reference_test.go), on the Table 1 LLC, the 4-core shared LLC (four
// traces interleaved) and a 64-set LLC long enough for FRD/MSA expiries and
// OPTgen's garbage collector. Victims, stats, predictions, debug counters,
// model rows, obs snapshots and flushed events must all be identical.
func TestLearnedPoliciesMatchMapReference(t *testing.T) {
	t.Parallel()
	geometries := []struct {
		name            string
		cfg             cache.Config
		cores, accesses int // accesses per core
	}{
		{"table1", cache.LLCConfig, 1, 60_000},
		{"shared4", cache.SharedLLCConfig4, 4, 25_000},
		{"64x16", cache.Config{Name: "LLC", Sets: 64, Ways: 16, LatencyCycles: 26}, 1, 200_000},
	}
	names := experiments.BenchSweepWorkloads()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, err := workload.Resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	learned := []string{"hawkeye", "glider", "frd", "msa"}

	var mu sync.Mutex
	expiries := map[string]uint64{}
	expiredSeen := map[string]uint64{}
	collected := map[string]int{}
	t.Run("replays", func(t *testing.T) {
		for _, g := range geometries {
			t.Run(g.name, func(t *testing.T) {
				t.Parallel()
				for i, spec := range specs {
					tr, err := spec.GenerateE(g.accesses, 42)
					if err != nil {
						t.Fatal(err)
					}
					if g.cores > 1 {
						parts := []*trace.Trace{tr}
						for j := 1; j < g.cores; j++ {
							p, err := specs[(i+j)%len(specs)].GenerateE(g.accesses, 42+int64(j))
							if err != nil {
								t.Fatal(err)
							}
							parts = append(parts, p)
						}
						tr = trace.Interleave(spec.Name+"-mix", parts...)
					}
					c, err := cpu.NewCapture(context.Background(), tr, g.cores)
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range learned {
						p, _ := policy.New(name, g.cfg.Sets, g.cfg.Ways)
						ref, _ := policy.NewReference(name, g.cfg.Sets, g.cfg.Ways)
						got := replayLearned(t, c, g.cfg, tr.Len()/5, p)
						want := replayLearned(t, c, g.cfg, tr.Len()/5, ref)
						if d := diffRuns(got, want); d != "" {
							t.Errorf("%s on %s: %s", name, spec.Name, d)
						}
						mu.Lock()
						expiries[name] += want.expiries
						expiredSeen[name] += want.expiredSeen
						collected[name] += policy.ReferenceOPTgenCollected(ref)
						mu.Unlock()
					}
				}
			})
		}
	})
	// The wall must have exercised the paths that differ most between the
	// two implementations.
	for _, name := range []string{"frd", "msa"} {
		if expiries[name] == 0 {
			t.Errorf("%s: no sampler expiries in the whole wall", name)
		}
	}
	for _, name := range []string{"hawkeye", "glider"} {
		if expiredSeen[name] == 0 || collected[name] == 0 {
			t.Errorf("%s: %d expired verdicts and %d OPTgen entries collected, want both > 0", name, expiredSeen[name], collected[name])
		}
	}
	t.Logf("expiries %v, expired verdicts %v, OPTgen entries collected %v", expiries, expiredSeen, collected)
}

// lrfuTee runs lrfu and its reference (reference_test.go) side by side as
// one policy. It fails at the first victim that differs and at the first
// CRF value or stamp an Update leaves different, bit for bit.
type lrfuTee struct {
	t         *testing.T
	got, want cache.Policy
	pastTable int // ways whose age at a Victim call is beyond the decay table
}

func (l *lrfuTee) Name() string { return "lrfu" }

func (l *lrfuTee) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	_, stamp, clock := policy.LRFUState(l.want)
	for _, s := range stamp[set] {
		if clock-s >= policy.LRFUDecayAges {
			l.pastTable++
		}
	}
	got, want := l.got.Victim(set, pc, block, core, lines), l.want.Victim(set, pc, block, core, lines)
	if got != want {
		l.t.Fatalf("set %d at clock %d: victim way %d, reference way %d", set, clock, got, want)
	}
	return got
}

func (l *lrfuTee) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	l.got.Update(set, way, pc, block, core, hit, kind)
	l.want.Update(set, way, pc, block, core, hit, kind)
	if way < 0 {
		return
	}
	gotCRF, gotStamp, clock := policy.LRFUState(l.got)
	wantCRF, wantStamp, _ := policy.LRFUState(l.want)
	if g, w := gotCRF[set][way], wantCRF[set][way]; math.Float64bits(g) != math.Float64bits(w) || gotStamp[set][way] != wantStamp[set][way] {
		l.t.Fatalf("set %d way %d at clock %d: CRF %v stamp %d, reference %v stamp %d",
			set, way, clock, g, gotStamp[set][way], w, wantStamp[set][way])
	}
}

// TestLRFUMatchesReference replays a real LLC stream through lrfu and
// through lrfu as it was before its decay table, which called math.Pow for
// every value, in lockstep. The stream is long enough that some victims are
// chosen among lines older than the table covers, so both the table and its
// math.Pow fallback are compared. Victims, every CRF value and stamp, and
// the statistics must be identical.
func TestLRFUMatchesReference(t *testing.T) {
	t.Parallel()
	spec, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Generate(200_000, 42)
	ctx := context.Background()
	c, err := cpu.NewCapture(ctx, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.LLCConfig
	got, _ := policy.New("lrfu", cfg.Sets, cfg.Ways)
	want, _ := policy.NewReference("lrfu", cfg.Sets, cfg.Ways)
	tee := &lrfuTee{t: t, got: got, want: want}
	llc, err := cache.New(cfg, tee)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFunctional(ctx, llc, tr.Len()/5, false); err != nil {
		t.Fatal(err)
	}
	gotCRF, _, clock := policy.LRFUState(got)
	wantCRF, _, _ := policy.LRFUState(want)
	for s := range gotCRF {
		for w := range gotCRF[s] {
			if math.Float64bits(gotCRF[s][w]) != math.Float64bits(wantCRF[s][w]) {
				t.Fatalf("set %d way %d: final CRF %v, reference %v", s, w, gotCRF[s][w], wantCRF[s][w])
			}
		}
	}
	if clock <= policy.LRFUDecayAges || tee.pastTable == 0 {
		t.Fatalf("%d LLC events and %d victim candidates older than the %d-age table: the fallback went untested",
			clock, tee.pastTable, policy.LRFUDecayAges)
	}
	t.Logf("%d LLC events, %d victim candidates older than the decay table", clock, tee.pastTable)
}
