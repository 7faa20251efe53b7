package policy_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	gl "glider/internal/glider"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// resetLog records every victim its policy chooses. Its Reset resets the
// policy and forgets the victims, so an LLC running it can be reset.
type resetLog struct {
	cache.Resetter
	victims []int32
}

func (l *resetLog) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := l.Resetter.Victim(set, pc, block, core, lines)
	l.victims = append(l.victims, int32(w))
	return w
}

func (l *resetLog) Reset() {
	l.Resetter.Reset()
	l.victims = l.victims[:0]
}

// predictLog is a resetLog around a friendly/averse predictor, so a replay
// collects its per-access predictions.
type predictLog struct{ *resetLog }

func (l predictLog) PredictFriendly(pc uint64, core uint8) bool {
	return l.Resetter.(policy.FriendlyPredictor).PredictFriendly(pc, core)
}

// goldenGeometry is the element type of goldenGeometries.
type goldenGeometry = struct {
	name      string
	cfg       cache.Config
	cores     int
	accesses  int
	workloads []string
}

// resetStream is one captured stream and its warm-up.
type resetStream struct {
	c      *cpu.Capture
	warmup int
}

// newResetStream captures, for geometry g, the trace of its workload wi
// seeded seed; a multi-core geometry interleaves all its workloads, core i
// seeded seed+i, as TestPolicyVictimDigests does.
func newResetStream(t *testing.T, g goldenGeometry, wi int, seed int64) resetStream {
	t.Helper()
	names := g.workloads[wi : wi+1]
	if g.cores > 1 {
		names = g.workloads
	}
	var traces []*trace.Trace
	for i, name := range names {
		spec, err := workload.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := spec.GenerateE(g.accesses, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	tr := traces[0]
	if g.cores > 1 {
		tr = trace.Interleave(g.name, traces...)
	}
	c, err := cpu.NewCapture(context.Background(), tr, g.cores)
	if err != nil {
		t.Fatal(err)
	}
	return resetStream{c, tr.Len() / 5}
}

// resetRun is everything the reset wall compares about one replay.
type resetRun struct {
	victims []int32
	// result holds the post-warmup statistics, the LLC stream and, for a
	// predictor, its prediction at every streamed access.
	result cpu.FunctionalResult
	final  cache.Stats
	debug  any
	rows   any
	// friendly is the predictor's end-of-run answer for every (PC, core)
	// of the stream, in order of first appearance.
	friendly []bool
}

// replayReset replays b on a new cfg LLC running the named policy. When a
// is non-nil, the LLC first replays a and is then reset.
func replayReset(t *testing.T, cfg cache.Config, name string, a *resetStream, b resetStream) resetRun {
	t.Helper()
	ctx := context.Background()
	p, _ := policy.New(name, cfg.Sets, cfg.Ways)
	log := &resetLog{Resetter: p.(cache.Resetter)}
	var wrapped cache.Policy = log
	if _, ok := p.(policy.FriendlyPredictor); ok {
		wrapped = predictLog{log}
	}
	llc, err := cache.New(cfg, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if a != nil {
		if _, err := a.c.RunFunctional(ctx, llc, a.warmup, false); err != nil {
			t.Fatal(err)
		}
		llc.Reset()
	}
	res, err := b.c.RunFunctional(ctx, llc, b.warmup, true)
	if err != nil {
		t.Fatal(err)
	}
	run := resetRun{victims: log.victims, result: res, final: llc.Stats()}
	switch p := p.(type) {
	case interface{ Debug() policy.TrainDebug }:
		run.debug = p.Debug()
	case interface{ Debug() policy.ReuseDebug }:
		run.debug = p.Debug()
	case interface{ Predictor() *gl.Predictor }:
		s, pos, neg, skipped := p.Predictor().DebugCounts()
		run.debug = [4]uint64{s, pos, neg, skipped}
		run.rows = p.Predictor().TopRows(p.Predictor().Config().TableSize)
	}
	if m, ok := p.(policy.ModelIntrospector); ok {
		run.rows = m.TopModelRows(-1)
	}
	if fp, ok := p.(policy.FriendlyPredictor); ok {
		type pcCore struct {
			pc   uint64
			core uint8
		}
		seen := make(map[pcCore]bool)
		for _, acc := range res.LLCStream.Accesses {
			if k := (pcCore{acc.PC, acc.Core}); !seen[k] {
				seen[k] = true
				run.friendly = append(run.friendly, fp.PredictFriendly(acc.PC, acc.Core))
			}
		}
	}
	return run
}

// diffResetRuns reports the first difference between a reset LLC's run and
// a fresh one's.
func diffResetRuns(got, want resetRun) string {
	for i := range min(len(got.victims), len(want.victims)) {
		if got.victims[i] != want.victims[i] {
			return fmt.Sprintf("victim %d: way %d, fresh way %d", i, got.victims[i], want.victims[i])
		}
	}
	switch {
	case len(got.victims) != len(want.victims):
		return fmt.Sprintf("%d victims, fresh %d", len(got.victims), len(want.victims))
	case got.final != want.final:
		return fmt.Sprintf("stats %+v, fresh %+v", got.final, want.final)
	case !reflect.DeepEqual(got.result, want.result):
		return fmt.Sprintf("post-warmup stats, stream or predictions differ: %+v vs %+v", got.result.LLC, want.result.LLC)
	case !reflect.DeepEqual(got.debug, want.debug):
		return fmt.Sprintf("debug counters %+v, fresh %+v", got.debug, want.debug)
	case !reflect.DeepEqual(got.rows, want.rows):
		return "model rows differ"
	case !reflect.DeepEqual(got.friendly, want.friendly):
		return "end-of-run friendly/averse answers differ"
	}
	return ""
}

// TestResetMatchesFresh is the reset wall: on each geometry of
// TestPolicyVictimDigests, every registered policy replays a stream A,
// cache.Cache.Reset resets the LLC and its policy, and the LLC replays a
// different stream B. Victims, statistics, debug counters, per-access and
// end-of-run predictions and model rows must equal those of a new LLC
// replaying B. A grid's cells reuse pooled LLCs this way (cpu.LLCPool), so
// this is what keeps a cell's numbers independent of which LLC it got.
func TestResetMatchesFresh(t *testing.T) {
	t.Parallel()
	for _, g := range goldenGeometries {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			a := newResetStream(t, g, 0, 42)
			b := newResetStream(t, g, len(g.workloads)-1, 1042)
			for _, name := range policy.Names() {
				fresh := replayReset(t, g.cfg, name, nil, b)
				reset := replayReset(t, g.cfg, name, &a, b)
				if d := diffResetRuns(reset, fresh); d != "" {
					t.Errorf("%s: after a reset, %s", name, d)
				}
			}
		})
	}
}
