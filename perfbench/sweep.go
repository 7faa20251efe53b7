package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/simrunner"
	"glider/internal/trace"
	"glider/internal/workload"
)

// The sweep workload is the batch user's path (cmd/experiments sweep):
// experiments.RunSweepExhaustive over experiments.BenchSweepWorkloads() ×
// every registered policy, at experiments.Quick's trace length, on one
// worker per CPU. One grid takes about 4 s on a 2-CPU machine, too short to
// measure steadily, so a run sweeps the grid once per seed of a short seed
// list. Set-up puts every pass's traces into the trace store, so trace
// generation shows in setup_s and the measured phase is simulation alone.

// pinnedSweepDigest is cellsDigest of the grid at defaultSeed. A change
// that alters any simulated number of any cell changes it.
const pinnedSweepDigest = "21016eb0eb29f9088b7e3dd3e7bb1255225bd9b8caac7665a354f4031b9d90ba"

// sweepSamples is how many cells of each pass a run re-simulates with
// experiments.RunCell.
const sweepSamples = 2

// sweepSecondsPerPass is how long one grid takes on a 2-CPU machine;
// --seconds divided by it, rounded, is the number of passes.
const sweepSecondsPerPass = 4

// passSeeds returns the seeds of a run's passes: seed, seed+1, ...
func passSeeds(seed int64, seconds, secondsPerPass int) []int64 {
	seeds := make([]int64, max(1, int(math.Round(float64(seconds)/float64(secondsPerPass)))))
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return seeds
}

// resolveSpecs resolves workload names (registry names or spec strings).
func resolveSpecs(names []string) ([]workload.Spec, error) {
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, err := workload.Resolve(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// fillStore puts every (spec, seed) trace of n accesses into the
// process-wide trace store.
func fillStore(specs []workload.Spec, n int, seeds []int64) error {
	for _, s := range specs {
		for _, seed := range seeds {
			if _, err := workload.SharedE(s, n, seed); err != nil {
				return fmt.Errorf("generating %s: %w", s.Name, err)
			}
		}
	}
	return nil
}

// cellsDigest is the SHA-256 of the cells' canonical JSON.
func cellsDigest(cells []experiments.SweepCell) (string, error) {
	data, err := ledger.CanonicalJSON(cells)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkCells checks a grid's cells: at defaultSeed their digest must equal
// the pinned one, and at any seed sampled cells must equal a direct
// experiments.RunCell.
func checkCells(o *outcome, cells []experiments.SweepCell, n int, seed int64) error {
	digest, err := cellsDigest(cells)
	if err != nil {
		return err
	}
	fmt.Printf("grid digest %s\n", digest)
	if seed == defaultSeed && digest != pinnedSweepDigest {
		o.fail(len(cells), "grid digest %s differs from the pinned %s", digest, pinnedSweepDigest)
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(cells))[:sweepSamples] {
		c := cells[i]
		direct, err := experiments.RunCell(context.Background(), c.Workload, c.Policy, n, seed)
		switch {
		case err != nil:
			o.fail(1, "RunCell %s/%s: %v", c.Workload, c.Policy, err)
		case direct.IPC != c.IPC || direct.LLCMissRate != c.LLCMissRate:
			o.fail(1, "cell %s/%s: sweep ipc %v miss rate %v, RunCell %v %v",
				c.Workload, c.Policy, c.IPC, c.LLCMissRate, direct.IPC, direct.LLCMissRate)
		}
	}
	return nil
}

// jobDurations is an obs.Sink keeping the durations simrunner reports for
// its jobs: the sweep's per-cell latencies.
type jobDurations struct {
	mu   sync.Mutex
	secs []float64
}

func (j *jobDurations) Emit(component, event string, fields map[string]any) {
	if component != "simrunner" || event != "job" {
		return
	}
	if s, ok := fields["seconds"].(float64); ok {
		j.mu.Lock()
		j.secs = append(j.secs, s)
		j.mu.Unlock()
	}
}

func (j *jobDurations) Close() error { return nil }

// failedRound is the latency of n operations that all failed.
func failedRound(n int) []float64 {
	l := make([]float64, n)
	for i := range l {
		l[i] = math.Inf(1)
	}
	return l
}

func runSweep(rc runConfig) (*outcome, error) {
	names := experiments.BenchSweepWorkloads()
	specs, err := resolveSpecs(names)
	if err != nil {
		return nil, err
	}
	pols := policy.Names()
	n := experiments.Quick().Accesses
	seeds := passSeeds(rc.seed, rc.seconds, sweepSecondsPerPass)

	if err := fillStore(specs, n, seeds); err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(seeds) * len(specs) * len(pols)}
	if stop, err := setupDone(rc, o); stop || err != nil {
		return o, err
	}
	if rc.traced {
		return o, tracedSweep(o, rc, specs, pols, n, seeds)
	}

	grids := make([][]experiments.SweepCell, len(seeds))
	rounds := make([]round, len(seeds))
	for i, seed := range seeds {
		runtime.GC() // every pass starts from the same heap; not timed
		cfg := experiments.Quick()
		cfg.Seed = seed
		cells := &jobDurations{}
		cfg.Sink = cells
		start := time.Now()
		sw, err := experiments.RunSweepExhaustive(cfg, experiments.SweepOptions{Workloads: names, Policies: pols})
		rounds[i] = round{latency: cells.secs, wall: time.Since(start).Seconds()}
		if err != nil {
			o.fail(len(specs)*len(pols), "sweep at seed %d: %v", seed, err)
			rounds[i].latency = failedRound(len(specs) * len(pols))
		}
		grids[i] = sw.Cells
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for i, seed := range seeds {
		if grids[i] != nil {
			if err := checkCells(o, grids[i], n, seed); err != nil {
				return nil, err
			}
		}
	}
	throughputMetric(o, "", rounds)
	latencyMetrics(o, "", rounds, timedPercentiles)
	o.add("peak_rss_mb", rss, "MB")
	return o, nil
}

// tracedSweep runs the same passes with every cell taken apart into its
// public steps on simrunner.Run, spans around each step, and then the
// layer probes over the first pass's traces.
func tracedSweep(o *outcome, rc runConfig, specs []workload.Spec, pols []string, n int, seeds []int64) error {
	tr := newTracer()
	if err := probeGenerate(o, tr, specs, n, seeds); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	before := workload.DefaultStore.Stats()
	var wall time.Duration
	var rounds []round
	var cells []experiments.SweepCell
	for _, seed := range seeds {
		var jobs []simrunner.Job[experiments.SweepCell]
		for _, spec := range specs {
			for _, pol := range pols {
				op := int64(len(cells) + len(jobs) + 1)
				jobs = append(jobs, simrunner.Job[experiments.SweepCell]{
					Key: simrunner.Key("sweep", spec.Name, strconv.Itoa(n), pol),
					Run: func(ctx context.Context) (experiments.SweepCell, error) {
						return tracedCell(ctx, tr, op, spec, pol, n, seed)
					},
				})
			}
		}
		runtime.GC()
		start := time.Now()
		results := simrunner.Run(context.Background(), simrunner.Options{Obs: reg}, jobs)
		r := round{wall: time.Since(start).Seconds()}
		wall += time.Since(start)
		grid := make([]experiments.SweepCell, len(results))
		failed := false
		for i, res := range results {
			grid[i] = res.Value
			d := res.Duration.Seconds()
			if res.Err != nil {
				o.fail(1, "cell %s at seed %d: %v", res.Key, seed, res.Err)
				failed, d = true, math.Inf(1)
			}
			r.latency = append(r.latency, d)
		}
		rounds = append(rounds, r)
		if !failed {
			if err := checkCells(o, grid, n, seed); err != nil {
				return err
			}
		}
		cells = append(cells, grid...)
	}
	after := workload.DefaultStore.Stats()

	workers := min(runtime.GOMAXPROCS(0), len(specs)*len(pols))
	throughputMetric(o, "traced.", rounds)
	latencyMetrics(o, "traced.", rounds, tracedPercentiles)
	o.add("simrunner.busy_share", reg.Timer("simrunner.job.seconds").Histogram().Sum()/(wall.Seconds()*float64(workers)), "ratio")
	storeMetrics(o, before, after)

	var traces []probeTrace
	for _, spec := range specs {
		t, err := workload.SharedE(spec, n, seeds[0])
		if err != nil {
			return err
		}
		traces = append(traces, probeTrace{spec.Name, t})
	}
	if err := probeSimulation(o, tr, traces); err != nil {
		return err
	}
	var records []ledgerRecord
	for _, c := range cells {
		data, err := json.Marshal(c)
		if err != nil {
			return err
		}
		records = append(records, ledgerRecord{experiments.LedgerKindCell, data})
	}
	if err := probeLedger(o, tr, rc.outDir, records); err != nil {
		return err
	}
	if err := probeValidate(o, tr, missJobs(specs, pols, n, seeds[:1])); err != nil {
		return err
	}
	// The sweep never reaches a node or the gateway.
	for _, m := range fleetMetricNames {
		o.add(m.name, 0, m.unit)
	}
	return writeSpans(rc, tr)
}

// tracedCell is cpu.SingleCore taken apart into its public steps, one span
// each, under a root span for the cell.
func tracedCell(ctx context.Context, tr *tracer, op int64, spec workload.Spec, pol string, n int, seed int64) (experiments.SweepCell, error) {
	root := tr.begin("sweep.cell", 0, op)
	defer tr.end(root)
	var t *trace.Trace
	var h *cache.Hierarchy
	var d *dram.DRAM
	var res cpu.Result
	err := tr.do("workload.SharedE", root, op, func() (err error) {
		t, err = workload.SharedE(spec, n, seed)
		return err
	})
	if err == nil {
		err = tr.do("cpu.BuildHierarchy", root, op, func() (err error) {
			h, err = cpu.BuildHierarchy(1, pol)
			return err
		})
	}
	if err == nil {
		tr.do("dram.New", root, op, func() error {
			d = dram.New(dram.SingleCoreConfig())
			return nil
		})
		err = tr.do("cpu.Run", root, op, func() (err error) {
			res, err = cpu.Run(ctx, t, h, d, cpu.DefaultCoreConfig(), n/5)
			return err
		})
	}
	if err != nil {
		return experiments.SweepCell{}, err
	}
	return experiments.SweepCell{
		Workload:    spec.Name,
		Policy:      pol,
		IPC:         res.IPC,
		LLCMissRate: res.LLC.MissRate(),
		Source:      "exact",
	}, nil
}

// storeMetrics adds the trace store's metrics over a measured phase.
func storeMetrics(o *outcome, before, after workload.StoreStats) {
	hits := float64(after.Hits - before.Hits)
	gets := hits + float64(after.Misses-before.Misses)
	o.add("workload.store_hit_ratio", ratio(hits, gets), "ratio")
	o.add("workload.store_mb", float64(workload.DefaultStore.Bytes())/1e6, "MB")
}
