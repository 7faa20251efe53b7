package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/ledger"
	"glider/internal/policy"
	"glider/internal/server"
	"glider/internal/trace"
	"glider/internal/workload"
)

// The simulation-layer probes of a traced run. They replay a workload's own
// traces through one layer at a time, serially, so time and allocation
// counts belong to that layer alone:
//
//   - the private L1+L2 filter (cache.NewUpperLRU), which turns the trace
//     into the LLC event stream: demand misses plus the writebacks that
//     reach the LLC, in order;
//   - each registered policy on an LLC built with cache.New, fed only that
//     event stream;
//   - the timing and DRAM model, as cpu.Run minus cpu.RunFunctional.
//
// The replay is checked against cpu.RunFunctional for every trace and
// policy: the LLC statistics must be identical, which is what makes the
// per-policy numbers the cost of the policy inside a real cell.

// llcEvent is one access that reaches the LLC.
type llcEvent struct {
	pc, block uint64
	core      uint8
	kind      trace.Kind
}

// probeTrace is one trace a probe replays.
type probeTrace struct {
	name string
	t    *trace.Trace
}

// upperFilter replays t through a fresh L1+L2 exactly as
// cache.Hierarchy.Access drives them and returns how many LLC events the
// trace produces and how many of those come from the first warmup
// accesses. When events is non-nil the stream is appended to it.
func upperFilter(t *trace.Trace, warmup int, events *[]llcEvent) (total, beforeWarmup int, err error) {
	l1, err := cache.NewUpperLRU(cache.L1DConfig)
	if err != nil {
		return 0, 0, err
	}
	l2, err := cache.NewUpperLRU(cache.L2Config)
	if err != nil {
		return 0, 0, err
	}
	emit := func(e llcEvent) {
		total++
		if events != nil {
			*events = append(*events, e)
		}
	}
	writeback := func(l cache.Line) { emit(llcEvent{l.PC, l.Tag, l.Core, trace.Writeback}) }
	for i, a := range t.Accesses {
		if i == warmup {
			beforeWarmup = total
		}
		a.Core = 0 // a single-core hierarchy, as cpu.RunFunctional folds it
		block := a.Block()
		r1 := l1.Access(a.PC, block, a.Core, a.Kind)
		if r1.WritebackNeeded {
			l := r1.EvictedLine
			if r := l2.Access(l.PC, l.Tag, l.Core, trace.Writeback); r.WritebackNeeded {
				writeback(r.EvictedLine)
			}
		}
		if r1.Hit {
			continue
		}
		r2 := l2.Access(a.PC, block, a.Core, a.Kind)
		if r2.WritebackNeeded {
			writeback(r2.EvictedLine)
		}
		if r2.Hit {
			continue
		}
		emit(llcEvent{a.PC, block, a.Core, a.Kind})
	}
	return total, beforeWarmup, nil
}

// replayLLC feeds the event stream to a fresh LLC running the named policy,
// zeroing its statistics where cpu.RunFunctional would (before the first
// event of a post-warmup access). It returns the post-warmup statistics and
// the replay's time and allocations, construction excluded.
func replayLLC(events []llcEvent, beforeWarmup int, name string) (cache.Stats, time.Duration, uint64, error) {
	p, ok := policy.New(name, cache.LLCConfig.Sets, cache.LLCConfig.Ways)
	if !ok {
		return cache.Stats{}, 0, 0, fmt.Errorf("unknown policy %q", name)
	}
	llc, err := cache.New(cache.LLCConfig, p)
	if err != nil {
		return cache.Stats{}, 0, 0, err
	}
	a0 := allocs()
	start := time.Now()
	for i, e := range events {
		if i == beforeWarmup {
			llc.ResetStats()
		}
		llc.Access(e.pc, e.block, e.core, e.kind)
	}
	if beforeWarmup == len(events) {
		llc.ResetStats()
	}
	d := time.Since(start)
	return llc.Stats(), d, allocs() - a0, nil
}

// functionalLLC is the reference: cpu.RunFunctional's post-warmup LLC
// statistics for the trace under the named policy, and its time.
func functionalLLC(t *trace.Trace, name string) (cache.Stats, time.Duration, error) {
	h, err := cpu.BuildHierarchy(1, name)
	if err != nil {
		return cache.Stats{}, 0, err
	}
	start := time.Now()
	res, err := cpu.RunFunctional(context.Background(), t, h, t.Len()/5, false)
	return res.LLC, time.Since(start), err
}

// timedRun is cpu.Run on a fresh hierarchy and DRAM model, as
// cpu.SingleCore builds them.
func timedRun(t *trace.Trace, name string) (time.Duration, error) {
	h, err := cpu.BuildHierarchy(1, name)
	if err != nil {
		return 0, err
	}
	d := dram.New(dram.SingleCoreConfig())
	start := time.Now()
	_, err = cpu.Run(context.Background(), t, h, d, cpu.DefaultCoreConfig(), t.Len()/5)
	return time.Since(start), err
}

// metricName spells a policy name as a metric name segment ("ship++" →
// "ship_pp").
func metricName(policyName string) string {
	return strings.ReplaceAll(policyName, "++", "_pp")
}

// timingReps is how many cpu.Run / cpu.RunFunctional pairs the timing probe
// runs per trace; it keeps the fastest of each, since the difference of two
// noisy times is noisier than either.
const timingReps = 3

// timingPolicy is the policy the timing probe runs: the cheapest one, so
// the timing model is the largest share of the difference.
const timingPolicy = "lru"

// probeSimulation runs the simulation-layer probes over traces and adds
// their metrics to o. Every (trace, policy) replay is an operation; one
// whose statistics differ from cpu.RunFunctional's fails.
func probeSimulation(o *outcome, tr *tracer, traces []probeTrace) error {
	pols := policy.Names()
	var accesses, events int
	var upperTime time.Duration
	var upperAllocs uint64
	polTime := make(map[string]time.Duration)
	polAllocs := make(map[string]uint64)
	var runTime, funcTime time.Duration
	for ti, pt := range traces {
		op := int64(ti + 1)
		t := pt.t
		warmup := t.Len() / 5

		// Timed pass: the filter alone, counting events.
		id := tr.begin("cache.upper", 0, op)
		a0 := allocs()
		start := time.Now()
		n, _, err := upperFilter(t, warmup, nil)
		upperTime += time.Since(start)
		upperAllocs += allocs() - a0
		tr.end(id)
		if err != nil {
			return err
		}
		// Collecting pass, untimed.
		stream := make([]llcEvent, 0, n)
		_, beforeWarmup, err := upperFilter(t, warmup, &stream)
		if err != nil {
			return err
		}
		accesses += t.Len()
		events += len(stream)

		for _, name := range pols {
			o.attempted++
			id := tr.begin("policy."+name, 0, op)
			got, d, al, err := replayLLC(stream, beforeWarmup, name)
			tr.end(id)
			if err != nil {
				return err
			}
			polTime[name] += d
			polAllocs[name] += al
			id = tr.begin("cpu.RunFunctional", 0, op)
			want, _, err := functionalLLC(t, name)
			tr.end(id)
			if err != nil {
				return err
			}
			if got != want {
				o.fail(1, "%s/%s: L1/L2+LLC replay gives %d accesses, %d hits, %d misses; cpu.RunFunctional gives %d, %d, %d",
					pt.name, name, got.Accesses, got.Hits, got.Misses, want.Accesses, want.Hits, want.Misses)
			}
		}

		bestRun, bestFunc := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < timingReps; r++ {
			id := tr.begin("cpu.RunFunctional", 0, op)
			_, fd, err := functionalLLC(t, timingPolicy)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("cpu.Run", 0, op)
			rd, err := timedRun(t, timingPolicy)
			tr.end(id)
			if err != nil {
				return err
			}
			bestRun, bestFunc = min(bestRun, rd), min(bestFunc, fd)
		}
		runTime += bestRun
		funcTime += bestFunc
	}

	acc, ev := float64(accesses), float64(events)
	o.add("cache.upper_ns_per_access", ratio(float64(upperTime), acc), "ns/access")
	o.add("cache.upper_allocs_per_access", ratio(float64(upperAllocs), acc), "allocs/access")
	o.add("cache.llc_events_per_access", ratio(ev, acc), "events/access")
	for _, name := range pols {
		o.add("policy."+metricName(name)+".ns_per_llc_event", ratio(float64(polTime[name]), ev), "ns/event")
		o.add("policy."+metricName(name)+".allocs_per_llc_event", ratio(float64(polAllocs[name]), ev), "allocs/event")
	}
	o.add("cpu.timing_ns_per_access", ratio(float64(runTime-funcTime), acc), "ns/access")
	return nil
}

// probeGenerate times Spec.GenerateE on every (spec, seed) of a
// workload's trace pool, outside the store.
func probeGenerate(o *outcome, tr *tracer, specs []workload.Spec, n int, seeds []int64) error {
	var d time.Duration
	var accesses int
	for si, spec := range specs {
		for _, seed := range seeds {
			id := tr.begin("workload.GenerateE", 0, int64(si+1))
			start := time.Now()
			t, err := spec.GenerateE(n, seed)
			d += time.Since(start)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("generating %s: %w", spec.Name, err)
			}
			accesses += t.Len()
		}
	}
	o.add("workload.gen_ns_per_access", ratio(float64(d), float64(accesses)), "ns/access")
	return nil
}

// ledgerRecord is one result the ledger probe appends.
type ledgerRecord struct {
	kind    string
	payload json.RawMessage
}

// ledgerBatch is how many appends the ledger probe anchors per Flush.
const ledgerBatch = 64

// probeLedger appends the workload's result bytes to a fresh disk ledger,
// anchoring every ledgerBatch appends, and reports the mean Append and
// Flush (which fsyncs) times.
func probeLedger(o *outcome, tr *tracer, dir string, records []ledgerRecord) error {
	path := filepath.Join(dir, fmt.Sprintf("probe-%d.ledger", os.Getpid()))
	defer os.Remove(path)
	backend, err := ledger.OpenDisk(path)
	if err != nil {
		return err
	}
	l, err := ledger.New(backend, ledger.Options{})
	if err != nil {
		backend.Close()
		return err
	}
	var appendTime, flushTime time.Duration
	flushes := 0
	for i, r := range records {
		id := tr.begin("ledger.Append", 0, int64(i+1))
		start := time.Now()
		_, err := l.Append(r.kind, r.payload)
		appendTime += time.Since(start)
		tr.end(id)
		if err != nil {
			l.Close()
			return fmt.Errorf("ledger append: %w", err)
		}
		if (i+1)%ledgerBatch == 0 || i == len(records)-1 {
			id := tr.begin("ledger.Flush", 0, int64(i+1))
			start := time.Now()
			_, err := l.Flush()
			flushTime += time.Since(start)
			flushes++
			tr.end(id)
			if err != nil {
				l.Close()
				return fmt.Errorf("ledger flush: %w", err)
			}
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	o.add("ledger.append_us", ratio(float64(appendTime)/1e3, float64(len(records))), "us")
	o.add("ledger.flush_ms", ratio(float64(flushTime)/1e6, float64(flushes)), "ms")
	return nil
}

// validateMinTime is how long the validate probe repeats each class.
const validateMinTime = 50 * time.Millisecond

// probeValidate times JobSpec.Validate plus Hash, the request front's
// per-request work before any cache lookup, on the workload's own request
// specs, split into sim jobs on registry names, sim jobs on spec strings,
// and predict jobs.
func probeValidate(o *outcome, tr *tracer, jobs []server.JobSpec) error {
	classes := map[string][]server.JobSpec{}
	for _, j := range jobs {
		class := "predict"
		if j.Kind == server.KindSim {
			class = "sim"
			if _, err := workload.Lookup(j.Workload); err != nil {
				class = "spec"
			}
		}
		classes[class] = append(classes[class], j)
	}
	lim := server.DefaultLimits()
	for ci, class := range []string{"sim", "spec", "predict"} {
		specs := classes[class]
		calls := 0
		var d time.Duration
		id := tr.begin("server.Validate."+class, 0, int64(ci+1))
		for len(specs) > 0 && d < validateMinTime {
			start := time.Now()
			for _, j := range specs {
				if err := j.Validate(lim); err != nil {
					tr.end(id)
					return fmt.Errorf("validating %+v: %w", j, err)
				}
				_ = j.Hash()
			}
			d += time.Since(start)
			calls += len(specs)
		}
		tr.end(id)
		o.add("server.validate_us."+class, ratio(float64(d)/1e3, float64(calls)), "us")
	}
	return nil
}
