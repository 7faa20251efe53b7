// Command glidersim runs a memory-access trace through the simulated cache
// hierarchy under a chosen replacement policy and reports miss rates and
// (optionally) timing results.
//
// Usage:
//
//	glidersim -bench omnetpp -policy glider -accesses 1000000 [-timing]
//	glidersim -bench omnetpp -policy lru,hawkeye,glider -workers 4
//	glidersim -bench 'champsim(file=trace.gz)' -policy hawkeye -accesses 0
//
// -bench names the trace: a built-in synthetic benchmark or a workload spec
// string, e.g. "zipf(objects=8192,skew=0.9)", or "champsim(file=PATH)" for a
// ChampSim trace such as the ones tracegen writes. -accesses 0 replays a
// ChampSim file whole, without rewinding; on any other workload it gives an
// empty trace, which is an error. Giving -policy a comma-separated list runs
// the policies concurrently over the same trace and prints a side-by-side
// comparison.
//
// The trace always runs on core 0. -cores N > 1 runs it alone on the shared
// 8 MB LLC with the 4-core DRAM model, the setting of cpu.SoloOnShared (the
// IPCsingle baseline of the paper's multi-core study); experiments fig13
// runs the multi-programmed mixes.
//
// Each policy replays one capture of the trace's pass through the private
// L1/L2 caches (cpu.NewCapture) on a fresh LLC of its own. With -metrics, a
// single policy's LLC carries the LLC observer and the policy's telemetry.
//
// glidersim only simulates; the offline command trains the paper's offline
// models, and its -bench takes a ChampSim file as 'champsim(file=PATH)'.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/prof"
	"glider/internal/simrunner"
	"glider/internal/trace"
	"glider/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name or workload spec string, e.g. 'champsim(file=PATH)' (see -list)")
	policyName := flag.String("policy", "glider", "replacement policy, or a comma-separated list to compare")
	accesses := flag.Int("accesses", 1_000_000, "trace length (with champsim(file=...), 0 replays the whole file)")
	seed := flag.Int64("seed", 42, "synthetic trace seed")
	cores := flag.Int("cores", 1, "number of cores; above 1 the trace runs alone on the shared 8 MB LLC with the 4-core DRAM model")
	timing := flag.Bool("timing", false, "run the full timing model and report IPC")
	workers := flag.Int("workers", 0, "concurrent policy runs when comparing (0 = one per CPU)")
	list := flag.Bool("list", false, "list benchmarks and policies, then exit")
	metricsPath := flag.String("metrics", "", "write JSONL telemetry events to this file (report with obsreport)")
	metricsSummary := flag.Bool("metrics-summary", false, "print a metrics summary to stderr when the run finishes")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()

	if stop, err := profiles.Start(); err != nil {
		fatal(err)
	} else {
		stopProfiles = stop
	}
	// Runs on clean shutdown; fatal() flushes explicitly before os.Exit so a
	// partial CPU profile is still usable on error paths.
	defer stopProfiles()

	if *list {
		fmt.Println("benchmarks:", strings.Join(workload.Names(), " "))
		fmt.Println("spec schemes:", strings.Join(workload.Schemes(), " "))
		fmt.Println("policies:", strings.Join(policy.Names(), " "))
		return
	}

	tr, err := loadTrace(*bench, *accesses, *seed)
	if err != nil {
		fatal(err)
	}

	// Observability: a registry plus optional JSONL sink, shared by whichever
	// mode runs below. finishMetrics emits the end-of-run snapshot so the
	// JSONL file is self-contained for obsreport.
	var reg *obs.Registry
	var sink obs.Sink
	var jsonl *obs.JSONLSink
	if *metricsPath != "" || *metricsSummary {
		reg = obs.NewRegistry()
	}
	if *metricsPath != "" {
		if jsonl, err = obs.CreateJSONL(*metricsPath); err != nil {
			fatal(err)
		}
		sink = jsonl
	}
	finishMetrics := func() {
		if sink != nil {
			obs.EmitSnapshot(sink, reg)
		}
		if jsonl != nil {
			if err := jsonl.Close(); err != nil {
				fatal(err)
			}
		}
		if *metricsSummary {
			reg.Snapshot().WriteSummary(os.Stderr)
		}
	}

	// The first fifth of the trace warms the caches, as in every other
	// replay (the paper warms up on 200M of 1B instructions).
	warmup := tr.Len() / 5
	c, err := cpu.NewCapture(context.Background(), tr, *cores)
	if err != nil {
		fatal(err)
	}

	pols := splitPolicies(*policyName)
	if len(pols) > 1 {
		if err := comparePolicies(c, *cores, pols, *timing, warmup, *workers, reg, sink); err != nil {
			fatal(err)
		}
		finishMetrics()
		return
	}

	res, err := simulate(context.Background(), c, *cores, *policyName, *timing, warmup, telemetry{reg, sink})
	if err != nil {
		fatal(err)
	}
	finishMetrics()
	fmt.Printf("trace        %s (%d accesses, %d warmup)\n", tr.Name, tr.Len(), warmup)
	fmt.Printf("policy       %s\n", *policyName)
	if *timing {
		fmt.Printf("IPC          %.3f\n", res.IPC)
		fmt.Printf("LLC          %d accesses, %.1f%% miss\n", res.LLC.Accesses, res.LLC.MissRate()*100)
		fmt.Printf("DRAM         %d reads, %d writes, avg read latency %.0f cycles\n",
			res.DRAM.Reads, res.DRAM.Writes, res.DRAM.AverageReadLatency())
		return
	}
	fmt.Printf("LLC          %d accesses, %d hits, %d misses (%.1f%% miss)\n",
		res.LLC.Accesses, res.LLC.Hits, res.LLC.Misses, res.LLC.MissRate()*100)
	fmt.Printf("evictions    %d (%d writebacks, %d bypasses)\n", res.LLC.Evictions, res.LLC.Writebacks, res.LLC.Bypasses)
}

// loadTrace resolves -bench and generates its trace of -accesses accesses.
// An empty trace is an error: it would simulate nothing.
func loadTrace(bench string, accesses int, seed int64) (*trace.Trace, error) {
	if bench == "" {
		return nil, fmt.Errorf("-bench is required (see -list)")
	}
	spec, err := workload.Resolve(bench)
	if err != nil {
		return nil, err
	}
	tr, err := spec.GenerateE(accesses, seed)
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("%s: -accesses %d gives an empty trace (0 means the whole file only for champsim(file=...))", bench, accesses)
	}
	return tr, nil
}

// splitPolicies parses the -policy flag into a list of policy names.
func splitPolicies(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// telemetry is where a single policy's LLC observer and the policy itself
// publish metrics and events; the zero value publishes nothing.
type telemetry struct {
	reg  *obs.Registry
	sink obs.Sink
}

// simulate replays c on a fresh cores-core LLC running pol, with the timing
// and DRAM model when timing is set, and publishes the LLC's telemetry to
// tm. Without timing only the result's LLC statistics are set.
func simulate(ctx context.Context, c *cpu.Capture, cores int, pol string, timing bool, warmup int, tm telemetry) (cpu.Result, error) {
	llc, err := cpu.BuildLLC(cores, pol)
	if err != nil {
		return cpu.Result{}, err
	}
	if a, ok := llc.Policy().(obs.Attacher); ok && (tm.reg != nil || tm.sink != nil) {
		a.AttachObs(tm.reg, tm.sink)
	}
	llc.AttachObserver(cache.NewObserver(tm.reg, llc.Config()))
	var res cpu.Result
	if timing {
		dcfg := dram.SingleCoreConfig()
		if cores > 1 {
			dcfg = dram.QuadCoreConfig()
		}
		d := dram.New(dcfg)
		d.AttachObs(tm.reg)
		res, err = c.Run(ctx, llc, d, cpu.DefaultCoreConfig(), warmup)
	} else {
		var f cpu.FunctionalResult
		f, err = c.RunFunctional(ctx, llc, warmup, false)
		res.LLC = f.LLC
	}
	if err != nil {
		return cpu.Result{}, fmt.Errorf("%s: %w", pol, err)
	}
	if f, ok := llc.Policy().(obs.Flusher); ok {
		f.FlushObs()
	}
	return res, nil
}

// comparePolicies replays the capture c under each policy concurrently and
// prints a side-by-side table. The trace went through L1/L2 once; each job
// replays that capture on its own LLC and DRAM model, so the numbers match
// len(pols) separate single-policy invocations.
// Observability covers the runner (per-policy job latency); per-LLC
// metrics stay off because concurrent policies would collide on shared
// metric names.
func comparePolicies(c *cpu.Capture, cores int, pols []string, timing bool, warmup, workers int, reg *obs.Registry, sink obs.Sink) error {
	tr := c.Trace()
	jobs := make([]simrunner.Job[cpu.Result], len(pols))
	for i, pol := range pols {
		jobs[i] = simrunner.Job[cpu.Result]{
			Key: simrunner.Key("glidersim", tr.Name, pol),
			Run: func(ctx context.Context) (cpu.Result, error) {
				return simulate(ctx, c, cores, pol, timing, warmup, telemetry{})
			},
		}
	}
	stats, err := simrunner.Values(simrunner.Run(context.Background(), simrunner.Options{Workers: workers, Obs: reg, Sink: sink}, jobs))
	if err != nil {
		return err
	}
	fmt.Printf("trace        %s (%d accesses, %d warmup)\n", tr.Name, tr.Len(), warmup)
	if timing {
		fmt.Printf("%-12s %8s %10s %12s\n", "policy", "IPC", "LLC miss%", "DRAM reads")
		for i, s := range stats {
			fmt.Printf("%-12s %8.3f %10.1f %12d\n", pols[i], s.IPC, s.LLC.MissRate()*100, s.DRAM.Reads)
		}
		return nil
	}
	fmt.Printf("%-12s %10s %10s %10s %8s\n", "policy", "accesses", "misses", "evictions", "miss%")
	for i, s := range stats {
		fmt.Printf("%-12s %10d %10d %10d %8.1f\n", pols[i], s.LLC.Accesses, s.LLC.Misses, s.LLC.Evictions, s.LLC.MissRate()*100)
	}
	return nil
}

// stopProfiles finishes pprof output (see internal/prof); fatal must flush
// it explicitly because os.Exit skips deferred calls.
var stopProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "glidersim:", err)
	stopProfiles()
	os.Exit(1)
}
