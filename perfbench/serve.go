package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"glider/internal/client"
	"glider/internal/experiments"
	"glider/internal/gateway"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/server"
	"glider/internal/workload"
)

// The serving workloads drive an in-process fleet, one gateway in front of
// two gliderd nodes, through loopback HTTP with runtime.NumCPU() closed-loop
// callers, each on its own connection. serve-miss sends every job once, so
// every request is simulated; serve-hit re-requests a hot set the set-up
// already ran, so the gateway's cache answers every request. serve-miss is
// run by hand only: on a shared 2-CPU host ten runs of it spread by more
// than BENCHMARK.json's largest bound allows, so BENCHMARK.json leaves it
// out (README.md).

// fleetNodes is the number of gliderd nodes behind the gateway.
const fleetNodes = 2

// fleet is a gateway and its nodes, each configured as cmd/gateway and
// cmd/gliderd configure them by default. The nodes record into disk
// ledgers that anchor every 5 s, as gliderd -ledger does.
type fleet struct {
	dir     string
	nodes   []*server.Server
	ledgers []*ledger.Ledger
	gw      *gateway.Gateway
	https   []*http.Server
	serving sync.WaitGroup
	url     string
	closed  bool
}

func startFleet(dir string) (f *fleet, err error) {
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var backends []string
	for i := 0; i < fleetNodes; i++ {
		reg := obs.NewRegistry()
		backend, err := ledger.OpenDisk(filepath.Join(dir, fmt.Sprintf("node%d.ledger", i)))
		if err != nil {
			return nil, err
		}
		led, err := ledger.New(backend, ledger.Options{FlushEvery: 5 * time.Second, Obs: reg})
		if err != nil {
			backend.Close()
			return nil, err
		}
		f.ledgers = append(f.ledgers, led)
		srv := server.New(server.Config{Obs: reg, Ledger: led})
		f.nodes = append(f.nodes, srv)
		url, err := f.serve(srv.Handler())
		if err != nil {
			return nil, err
		}
		backends = append(backends, url)
	}
	f.gw = gateway.New(gateway.Config{Backends: backends, PollInterval: 500 * time.Millisecond, BackoffSeed: 1})
	f.gw.Poll(context.Background())
	if f.url, err = f.serve(f.gw.Handler()); err != nil {
		return nil, err
	}
	return f, nil
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the gateway and the nodes and waits for every goroutine the
// fleet started; it anchors and closes the ledgers. Later calls do nothing.
func (f *fleet) close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for i := len(f.https) - 1; i >= 0; i-- { // the gateway first
		keep(f.https[i].Shutdown(ctx))
	}
	f.serving.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.nodes {
		keep(s.Drain(ctx))
	}
	for _, l := range f.ledgers {
		keep(l.Close())
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// fleetCounters are the registry values the serving metrics are built
// from; the metrics use their change over a measured phase.
type fleetCounters struct {
	gwHits, gwMisses, retries        float64
	nodeHits, nodeRequests, rejected float64
	waitSum, waitCount               float64
	execSum, execCount, jobSeconds   float64
}

func (f *fleet) counters() fleetCounters {
	g := f.gw.Registry()
	c := fleetCounters{
		gwHits:   float64(g.Counter("gateway.cache.hits").Value()),
		gwMisses: float64(g.Counter("gateway.cache.misses").Value()),
		retries:  float64(g.Counter("gateway.retries").Value()),
	}
	for _, s := range f.nodes {
		r := s.Registry()
		c.nodeHits += float64(r.Counter("server.cache.hits").Value())
		c.nodeRequests += float64(r.Counter("server.http.sim").Value() + r.Counter("server.http.predict").Value())
		c.rejected += float64(r.Counter("server.rejected.queue_full").Value() + r.Counter("server.rejected.draining").Value())
		wait, exec := r.Timer("server.job.wait.seconds").Histogram(), r.Timer("server.job.exec.seconds").Histogram()
		c.waitSum += wait.Sum()
		c.waitCount += float64(wait.Count())
		c.execSum += exec.Sum()
		c.execCount += float64(exec.Count())
		c.jobSeconds += r.Timer("simrunner.job.seconds").Histogram().Sum()
	}
	return c
}

func (c fleetCounters) minus(b fleetCounters) fleetCounters {
	return fleetCounters{
		c.gwHits - b.gwHits, c.gwMisses - b.gwMisses, c.retries - b.retries,
		c.nodeHits - b.nodeHits, c.nodeRequests - b.nodeRequests, c.rejected - b.rejected,
		c.waitSum - b.waitSum, c.waitCount - b.waitCount,
		c.execSum - b.execSum, c.execCount - b.execCount, c.jobSeconds - b.jobSeconds,
	}
}

// fleetMetricNames are the per-layer metrics of the nodes and the gateway,
// in report order. The sweep, which reaches neither, reports them as 0.
var fleetMetricNames = []struct{ name, unit string }{
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"gateway.hop_ms", "ms"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"gateway.retries", "count"},
	{"server.rejected", "count"},
	{"gateway.handler_us", "us"},
	{"gateway.handler_allocs", "allocs/request"},
}

// missMetrics adds the per-layer metrics of a phase c whose requests the
// nodes simulated, with d the fleet's counters over it: the nodes' mean
// queue wait and execution, the rest of the callers' mean latency as the
// gateway hop, and the share of the callers' time the nodes' workers spent
// on jobs.
func missMetrics(o *outcome, d fleetCounters, c calls) {
	wait, exec := ratio(d.waitSum, d.waitCount), ratio(d.execSum, d.execCount)
	o.add("server.queue_wait_ms", 1e3*wait, "ms")
	o.add("server.exec_ms", 1e3*exec, "ms")
	o.add("gateway.hop_ms", 1e3*(meanFinite(c.latency)-wait-exec), "ms")
	o.add("simrunner.busy_share", d.jobSeconds/(c.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
}

// cacheMetrics adds the result caches' hit ratios, the gateway's retries
// and the nodes' refusals over a measured phase, with d the fleet's
// counters over it.
func cacheMetrics(o *outcome, d fleetCounters) {
	o.add("gateway.cache_hit_ratio", ratio(d.gwHits, d.gwHits+d.gwMisses), "ratio")
	o.add("server.cache_hit_ratio", ratio(d.nodeHits, d.nodeRequests), "ratio")
	o.add("gateway.retries", d.retries, "count")
	o.add("server.rejected", d.rejected, "count")
}

// calls is the outcome of one closed-loop phase.
type calls struct {
	latency []float64 // seconds per job; +Inf for a failed request
	// start and end are each request's send and receive times, in seconds
	// from the start of the phase.
	start, end []float64
	failed     int
	errs       []string
	wall       time.Duration
}

// rounds splits the phase into consecutive rounds of size requests. A
// round's wall time runs from its first send to its last receive.
func (c calls) rounds(size int) []round {
	var out []round
	for lo := 0; lo < len(c.latency); lo += size {
		hi := min(lo+size, len(c.latency))
		first, last := c.start[lo], c.end[lo]
		for i := lo; i < hi; i++ {
			first, last = min(first, c.start[i]), max(last, c.end[i])
		}
		out = append(out, round{latency: c.latency[lo:hi], wall: last - first})
	}
	return out
}

// whole is the phase as a single round.
func (c calls) whole() []round {
	return []round{{latency: c.latency, wall: c.wall.Seconds()}}
}

// maxErrs bounds how many failure messages a phase keeps.
const maxErrs = 8

// callAll sends jobs job(0) ... job(n-1) once each, in order, through
// runtime.NumCPU() closed-loop callers, each with its own connection to
// url. check inspects each response; a transport error, a refusal or a
// failed check fails the request. tr, when set, records one span per
// request.
func callAll(url string, n int, job func(i int) server.JobSpec, tr *tracer, check func(i int, env server.Envelope) error) calls {
	out := calls{latency: make([]float64, n), start: make([]float64, n), end: make([]float64, n)}
	var mu sync.Mutex
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		out.latency[i] = math.Inf(1)
		out.failed++
		if len(out.errs) < maxErrs {
			j := job(i)
			out.errs = append(out.errs, fmt.Sprintf("request %d (%s %s/%s): %v", i, j.Kind, j.Workload, j.Policy, err))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl := client.New(url, &http.Client{Transport: transport})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer transport.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				j := job(i)
				id := tr.begin("caller.request", 0, int64(i+1))
				t0 := time.Now()
				env, err := cl.Do(context.Background(), j)
				t1 := time.Now()
				tr.end(id)
				out.start[i], out.end[i] = t0.Sub(start).Seconds(), t1.Sub(start).Seconds()
				if err == nil {
					err = check(i, env)
				}
				if err != nil {
					fail(i, err)
					continue
				}
				out.latency[i] = t1.Sub(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// meanFinite returns the mean of the finite samples.
func meanFinite(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	return ratio(sum, float64(n))
}

// canonicalHashes validates a copy of every job, as the gateway does, and
// returns the canonical hashes a response must carry.
func canonicalHashes(jobs []server.JobSpec) ([]string, error) {
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		if err := j.Validate(server.DefaultLimits()); err != nil {
			return nil, fmt.Errorf("job %+v: %w", jobs[i], err)
		}
		hashes[i] = j.Hash()
	}
	return hashes, nil
}

// directResult computes a job's result bytes the way a node does, without
// the fleet.
func directResult(j server.JobSpec) (json.RawMessage, error) {
	if err := j.Validate(server.DefaultLimits()); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if j.Kind == server.KindPredict {
		res, err := experiments.RunPredictCell(ctx, j.Workload, j.Policy, j.Accesses, j.Seed, j.TopPCs, j.ISVMRows)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	res, err := experiments.RunCell(ctx, j.Workload, j.Policy, j.Accesses, j.Seed)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// servingSetup starts a fleet, with its ledgers under the run's --out
// directory, and runs prepare against it.
func servingSetup(rc runConfig, prepare func(f *fleet) error) (*fleet, error) {
	f, err := startFleet(filepath.Join(rc.outDir, fmt.Sprintf("fleet-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := prepare(f); err != nil {
		f.closeAndRemove()
		return nil, err
	}
	return f, nil
}

// closeAndRemove stops the fleet and removes its ledgers. Runs defer it
// for their error paths and call it before their layer probes.
func (f *fleet) closeAndRemove() error {
	err := f.close()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// servingMetrics adds the end-to-end metrics of a serving phase:
// throughput over thr's rounds and latency over lat's.
func servingMetrics(o *outcome, rss float64, thr, lat []round) {
	throughputMetric(o, "", thr)
	latencyMetrics(o, "", lat, timedPercentiles)
	o.add("peak_rss_mb", rss, "MB")
}

// ------------------------------------------------------------- serve-miss

// missSecondsPerSeed is how long one pool seed's jobs (12 workloads × 23
// jobs) take to serve on a 2-CPU machine; --seconds divided by it, rounded,
// is the number of seeds in the trace pool.
const missSecondsPerSeed = 10

// missRounds is the number of rounds in serve-miss's measured phase.
// Throughput is the median over rounds; latency percentiles are over all
// requests, since a round has too few for a p95 with ten samples beyond it.
const missRounds = 6

// balancedRounds orders jobs, which missJobs lists trace by trace with the
// same job types in the same order, into rounds that each hold every job
// type on an equal, seeded share of the traces, shuffled within the round,
// so every round asks for the same mix of work. It returns the ordered jobs
// and the round size.
func balancedRounds(jobs []server.JobSpec, types, rounds int, rng *rand.Rand) ([]server.JobSpec, int) {
	traces := len(jobs) / types
	byRound := make([][]server.JobSpec, rounds)
	for t := 0; t < types; t++ {
		for k, tr := range rng.Perm(traces) {
			r := k * rounds / traces
			byRound[r] = append(byRound[r], jobs[tr*types+t])
		}
	}
	var out []server.JobSpec
	for _, r := range byRound {
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		out = append(out, r...)
	}
	return out, len(byRound[0])
}

// missJobs is the serve-miss job list, unshuffled: every (spec, seed)
// trace × every policy as a sim job, plus a predict job per
// predictor-capable policy.
func missJobs(specs []workload.Spec, pols []string, n int, seeds []int64) []server.JobSpec {
	var jobs []server.JobSpec
	for _, spec := range specs {
		for _, seed := range seeds {
			for _, pol := range pols {
				jobs = append(jobs, server.JobSpec{Kind: server.KindSim, Workload: spec.Name, Policy: pol, Accesses: n, Seed: seed})
			}
			for _, pol := range policy.PredictorNames() {
				jobs = append(jobs, server.JobSpec{Kind: server.KindPredict, Workload: spec.Name, Policy: pol, Accesses: n, Seed: seed})
			}
		}
	}
	return jobs
}

// missSamples is how many served results a run compares byte for byte with
// a direct computation.
const missSamples = 8

func runServeMiss(rc runConfig) (*outcome, error) {
	specs, err := resolveSpecs(experiments.BenchSweepWorkloads())
	if err != nil {
		return nil, err
	}
	n := experiments.Quick().Accesses
	seeds := passSeeds(rc.seed, rc.seconds, missSecondsPerSeed)
	rng := rand.New(rand.NewSource(rc.seed))
	pols := policy.Names()
	jobs, roundSize := balancedRounds(missJobs(specs, pols, n, seeds), len(pols)+len(policy.PredictorNames()), missRounds, rng)
	hashes, err := canonicalHashes(jobs)
	if err != nil {
		return nil, err
	}
	sampled := make(map[int]bool)
	for _, i := range rng.Perm(len(jobs))[:missSamples] {
		sampled[i] = true
	}

	f, err := servingSetup(rc, func(*fleet) error { return fillStore(specs, n, seeds) })
	if err != nil {
		return nil, err
	}
	defer f.closeAndRemove()
	o := &outcome{attempted: len(jobs)}
	if stop, err := setupDone(rc, o); stop || err != nil {
		return o, err
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	// served keeps the result bytes the checks and the ledger probe need.
	served := make([]json.RawMessage, len(jobs))
	keep := func(i int, env server.Envelope) error {
		if env.Hash != hashes[i] {
			return fmt.Errorf("hash %s, want %s", env.Hash, hashes[i])
		}
		if rc.traced || sampled[i] {
			served[i] = env.Result
		}
		return nil
	}
	storeBefore, before := workload.DefaultStore.Stats(), f.counters()
	c := callAll(f.url, len(jobs), func(i int) server.JobSpec { return jobs[i] }, tr, keep)
	storeAfter, delta := workload.DefaultStore.Stats(), f.counters().minus(before)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	o.failed, o.checkErrs = c.failed, c.errs
	for i := range sampled {
		if served[i] == nil {
			continue // the request failed and is counted
		}
		want, err := directResult(jobs[i])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(served[i], want) {
			o.fail(1, "served %s %s/%s differs from the direct result", jobs[i].Kind, jobs[i].Workload, jobs[i].Policy)
		}
	}

	if !rc.traced {
		if err := f.closeAndRemove(); err != nil {
			return nil, err
		}
		servingMetrics(o, rss, c.rounds(roundSize), c.whole())
		return o, nil
	}
	throughputMetric(o, "traced.", c.rounds(roundSize))
	latencyMetrics(o, "traced.", c.whole(), tracedPercentiles)
	storeMetrics(o, storeBefore, storeAfter)
	missMetrics(o, delta, c)
	cacheMetrics(o, delta)
	if err := probeHandler(o, tr, f.gw, jobs); err != nil {
		return nil, err
	}
	if err := f.closeAndRemove(); err != nil {
		return nil, err
	}

	if err := probeGenerate(o, tr, specs, n, seeds); err != nil {
		return nil, err
	}
	var traces []probeTrace
	for _, spec := range specs {
		t, err := workload.SharedE(spec, n, seeds[0])
		if err != nil {
			return nil, err
		}
		traces = append(traces, probeTrace{spec.Name, t})
	}
	if err := probeSimulation(o, tr, traces); err != nil {
		return nil, err
	}
	var records []ledgerRecord
	for i, res := range served {
		if res != nil {
			records = append(records, ledgerRecord{server.ArtifactKind(jobs[i].Kind), res})
		}
	}
	if err := probeLedger(o, tr, rc.outDir, records); err != nil {
		return nil, err
	}
	if err := probeValidate(o, tr, jobs); err != nil {
		return nil, err
	}
	return o, writeSpans(rc, tr)
}

// -------------------------------------------------------------- serve-hit

// hotAccesses is the trace length of the hot set's jobs: small, because
// serve-hit measures the request front, not simulation.
const hotAccesses = 4000

// hitRequestsPerSecond is the rate serve-hit runs at on a 2-CPU machine;
// --seconds times it, rounded to whole passes over the hot set, is the
// request count.
const hitRequestsPerSecond = 22000

// hitRounds is the number of rounds in serve-hit's measured phase; each is
// the same number of whole passes over the hot set.
const hitRounds = 20

func runServeHit(rc runConfig) (*outcome, error) {
	specs, err := resolveSpecs(experiments.BenchSweepWorkloads())
	if err != nil {
		return nil, err
	}
	// The hot set is serve-miss's job mix on one seed's small traces.
	hot := missJobs(specs, policy.Names(), hotAccesses, []int64{rc.seed})
	hashes, err := canonicalHashes(hot)
	if err != nil {
		return nil, err
	}
	// The measured phase: whole passes over the hot set, each in its own
	// seeded order. The order is kept as compact indices so that the
	// benchmark's own memory stays small beside the fleet's.
	rng := rand.New(rand.NewSource(rc.seed))
	passes := hitRounds * max(1, int(math.Round(float64(rc.seconds*hitRequestsPerSecond)/float64(len(hot)*hitRounds))))
	roundSize := passes / hitRounds * len(hot)
	order := make([]int32, 0, passes*len(hot))
	for p := 0; p < passes; p++ {
		for _, h := range rng.Perm(len(hot)) {
			order = append(order, int32(h))
		}
	}

	// Set-up runs the hot set once and captures every result, and the
	// fleet's counters over it for the traced run's node metrics.
	captured := make([]json.RawMessage, len(hot))
	var setupCalls calls
	var setupDelta fleetCounters
	prepare := func(f *fleet) error {
		before := f.counters()
		c := callAll(f.url, len(hot), func(i int) server.JobSpec { return hot[i] }, nil, func(i int, env server.Envelope) error {
			if env.Hash != hashes[i] {
				return fmt.Errorf("hash %s, want %s", env.Hash, hashes[i])
			}
			captured[i] = env.Result
			return nil
		})
		setupCalls, setupDelta = c, f.counters().minus(before)
		if c.failed > 0 {
			return fmt.Errorf("hot set: %d of %d requests failed: %v", c.failed, len(hot), c.errs)
		}
		return nil
	}
	f, err := servingSetup(rc, prepare)
	if err != nil {
		return nil, err
	}
	defer f.closeAndRemove()
	o := &outcome{attempted: len(order)}
	if stop, err := setupDone(rc, o); stop || err != nil {
		return o, err
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	same := func(i int, env server.Envelope) error {
		h := order[i]
		if env.Hash != hashes[h] || !bytes.Equal(env.Result, captured[h]) {
			return fmt.Errorf("response differs from the one captured in set-up")
		}
		return nil
	}
	storeBefore, before := workload.DefaultStore.Stats(), f.counters()
	c := callAll(f.url, len(order), func(i int) server.JobSpec { return hot[order[i]] }, tr, same)
	storeAfter, delta := workload.DefaultStore.Stats(), f.counters().minus(before)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.failed, o.checkErrs = c.failed, c.errs

	if !rc.traced {
		if err := f.closeAndRemove(); err != nil {
			return nil, err
		}
		servingMetrics(o, rss, c.rounds(roundSize), c.rounds(roundSize))
		return o, nil
	}
	throughputMetric(o, "traced.", c.rounds(roundSize))
	latencyMetrics(o, "traced.", c.rounds(roundSize), tracedPercentiles)
	storeMetrics(o, storeBefore, storeAfter)
	// The measured phase never reaches a node's queue; the set-up's hot
	// set, every request of which the nodes simulated, does.
	missMetrics(o, setupDelta, setupCalls)
	cacheMetrics(o, delta)
	if err := probeHandler(o, tr, f.gw, hot); err != nil {
		return nil, err
	}
	if err := f.closeAndRemove(); err != nil {
		return nil, err
	}

	if err := probeGenerate(o, tr, specs, hotAccesses, []int64{rc.seed}); err != nil {
		return nil, err
	}
	var traces []probeTrace
	for _, spec := range specs {
		t, err := workload.SharedE(spec, hotAccesses, rc.seed)
		if err != nil {
			return nil, err
		}
		traces = append(traces, probeTrace{spec.Name, t})
	}
	if err := probeSimulation(o, tr, traces); err != nil {
		return nil, err
	}
	var records []ledgerRecord
	for i, res := range captured {
		records = append(records, ledgerRecord{server.ArtifactKind(hot[i].Kind), res})
	}
	if err := probeLedger(o, tr, rc.outDir, records); err != nil {
		return nil, err
	}
	if err := probeValidate(o, tr, hot); err != nil {
		return nil, err
	}
	return o, writeSpans(rc, tr)
}

// handlerMinTime is how long the handler probe repeats its requests.
const handlerMinTime = 200 * time.Millisecond

// probeHandler replays requests the callers sent straight into the
// gateway's handler, with no network, and reports the mean time and
// allocations per request. Every request must be a gateway-cache hit.
func probeHandler(o *outcome, tr *tracer, gw *gateway.Gateway, jobs []server.JobSpec) error {
	h := gw.Handler()
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		b, err := json.Marshal(j)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	var d time.Duration
	var allocated uint64
	calls := 0
	id := tr.begin("gateway.Handler", 0, 1)
	defer tr.end(id)
	for d < handlerMinTime {
		reqs := make([]*http.Request, len(jobs))
		recs := make([]*httptest.ResponseRecorder, len(jobs))
		for i, j := range jobs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/"+j.Kind, bytes.NewReader(bodies[i]))
			recs[i] = httptest.NewRecorder()
		}
		a0 := allocs()
		start := time.Now()
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		d += time.Since(start)
		allocated += allocs() - a0
		calls += len(reqs)
		for i, rec := range recs {
			if rec.Code != http.StatusOK || rec.Header().Get(gateway.CacheHeader) != "gateway" {
				return fmt.Errorf("handler probe: %s %s/%s answered %d from %q, want a gateway-cache hit",
					jobs[i].Kind, jobs[i].Workload, jobs[i].Policy, rec.Code, rec.Header().Get(gateway.CacheHeader))
			}
		}
	}
	o.add("gateway.handler_us", float64(d)/1e3/float64(calls), "us")
	o.add("gateway.handler_allocs", float64(allocated)/float64(calls), "allocs/request")
	return nil
}
