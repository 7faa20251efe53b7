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
// -bench names the trace: a built-in synthetic benchmark or an ingest spec
// string, e.g. "zipf(objects=8192,skew=0.9)", or "champsim(file=PATH)" for a
// ChampSim trace such as the ones tracegen writes. -accesses 0 replays a
// ChampSim file whole, without rewinding. Giving -policy a comma-separated
// list runs the policies concurrently over the same trace and prints a
// side-by-side comparison.
//
// glidersim only simulates; the offline command trains the paper's offline
// models, and its -bench takes a ChampSim file as 'champsim(file=PATH)'.
// glidersim's former -offline mode existed only because offline could not
// load ChampSim files.
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
	// Register champsim/zipf/mix spec schemes so -bench accepts spec strings.
	_ "glider/internal/trace/ingest"
	"glider/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name or workload spec string, e.g. 'champsim(file=PATH)' (see -list)")
	policyName := flag.String("policy", "glider", "replacement policy, or a comma-separated list to compare")
	accesses := flag.Int("accesses", 1_000_000, "trace length (with champsim(file=...), 0 replays the whole file)")
	seed := flag.Int64("seed", 42, "synthetic trace seed")
	cores := flag.Int("cores", 1, "number of cores (multi-core shares an 8 MB LLC)")
	timing := flag.Bool("timing", false, "run the full timing model and report IPC")
	warmupFrac := flag.Float64("warmup", 0.2, "fraction of the trace used for warmup")
	workers := flag.Int("workers", 0, "concurrent policy runs when comparing (0 = one per CPU)")
	list := flag.Bool("list", false, "list benchmarks and policies, then exit")
	metricsPath := flag.String("metrics", "", "write JSONL telemetry events to this file (report with obsreport)")
	metricsSummary := flag.Bool("metrics-summary", false, "print a metrics summary to stderr when the run finishes")
	evictSample := flag.Uint64("metrics-evict-every", 0, "with -metrics: emit every Nth LLC eviction as an event (0 = none)")
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

	warmup := int(float64(tr.Len()) * *warmupFrac)

	pols := splitPolicies(*policyName)
	if len(pols) > 1 {
		if err := comparePolicies(tr, pols, *cores, *timing, warmup, *workers, reg, sink); err != nil {
			fatal(err)
		}
		finishMetrics()
		return
	}

	h, err := cpu.BuildHierarchyObs(*cores, *policyName, cpu.ObsOptions{
		Registry: reg, Sink: sink, PerPC: reg != nil, SampleEvery: *evictSample,
	})
	if err != nil {
		fatal(err)
	}

	if *timing {
		dcfg := dram.SingleCoreConfig()
		if *cores > 1 {
			dcfg = dram.QuadCoreConfig()
		}
		d := dram.New(dcfg)
		d.AttachObs(reg)
		res, err := cpu.Run(context.Background(), tr, h, d, cpu.DefaultCoreConfig(), warmup)
		if err != nil {
			fatal(err)
		}
		cpu.FlushHierarchyObs(h)
		defer finishMetrics()
		fmt.Printf("trace        %s (%d accesses, %d warmup)\n", tr.Name, tr.Len(), warmup)
		fmt.Printf("policy       %s\n", *policyName)
		fmt.Printf("IPC          %.3f\n", res.IPC)
		for c, ipc := range res.PerCoreIPC {
			if len(res.PerCoreIPC) > 1 {
				fmt.Printf("  core %d IPC %.3f\n", c, ipc)
			}
		}
		fmt.Printf("LLC          %d accesses, %.1f%% miss\n", res.LLC.Accesses, res.LLC.MissRate()*100)
		fmt.Printf("DRAM         %d reads, %d writes, avg read latency %.0f cycles\n",
			res.DRAM.Reads, res.DRAM.Writes, res.DRAM.AverageReadLatency())
		return
	}

	res, err := cpu.RunFunctional(context.Background(), tr, h, warmup, false)
	if err != nil {
		fatal(err)
	}
	cpu.FlushHierarchyObs(h)
	finishMetrics()
	fmt.Printf("trace        %s (%d accesses, %d warmup)\n", tr.Name, tr.Len(), warmup)
	fmt.Printf("policy       %s\n", *policyName)
	fmt.Printf("LLC          %d accesses, %d hits, %d misses (%.1f%% miss)\n",
		res.LLC.Accesses, res.LLC.Hits, res.LLC.Misses, res.LLC.MissRate()*100)
	fmt.Printf("evictions    %d (%d writebacks, %d bypasses)\n", res.LLC.Evictions, res.LLC.Writebacks, res.LLC.Bypasses)
}

func loadTrace(bench string, accesses int, seed int64) (*trace.Trace, error) {
	if bench == "" {
		return nil, fmt.Errorf("-bench is required (see -list)")
	}
	spec, err := workload.Resolve(bench)
	if err != nil {
		return nil, err
	}
	return spec.GenerateE(accesses, seed)
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

// polStats is one policy's outcome in a comparison run.
type polStats struct {
	ipc  float64
	llc  cache.Stats
	dram dram.Stats
}

// comparePolicies replays the same trace under each policy concurrently and
// prints a side-by-side table. The trace goes through L1/L2 once; each job
// replays that capture on its own LLC and DRAM model, so the numbers match
// len(pols) separate single-policy invocations.
// Observability covers the runner (per-policy job latency); per-hierarchy
// metrics stay off because concurrent policies would collide on shared
// metric names.
func comparePolicies(tr *trace.Trace, pols []string, cores int, timing bool, warmup, workers int, reg *obs.Registry, sink obs.Sink) error {
	c, err := cpu.NewCapture(context.Background(), tr, cores)
	if err != nil {
		return err
	}
	jobs := make([]simrunner.Job[polStats], len(pols))
	for i, pol := range pols {
		jobs[i] = simrunner.Job[polStats]{
			Key: simrunner.Key("glidersim", tr.Name, pol),
			Run: func(ctx context.Context) (polStats, error) {
				llc, err := cpu.BuildLLC(cores, pol)
				if err != nil {
					return polStats{}, err
				}
				if !timing {
					res, err := c.RunFunctional(ctx, llc, warmup, false)
					if err != nil {
						return polStats{}, fmt.Errorf("%s: %w", pol, err)
					}
					return polStats{llc: res.LLC}, nil
				}
				dcfg := dram.SingleCoreConfig()
				if cores > 1 {
					dcfg = dram.QuadCoreConfig()
				}
				res, err := c.Run(ctx, llc, dram.New(dcfg), cpu.DefaultCoreConfig(), warmup)
				if err != nil {
					return polStats{}, fmt.Errorf("%s: %w", pol, err)
				}
				return polStats{ipc: res.IPC, llc: res.LLC, dram: res.DRAM}, nil
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
			fmt.Printf("%-12s %8.3f %10.1f %12d\n", pols[i], s.ipc, s.llc.MissRate()*100, s.dram.Reads)
		}
		return nil
	}
	fmt.Printf("%-12s %10s %10s %10s %8s\n", "policy", "accesses", "misses", "evictions", "miss%")
	for i, s := range stats {
		fmt.Printf("%-12s %10d %10d %10d %8.1f\n", pols[i], s.llc.Accesses, s.llc.Misses, s.llc.Evictions, s.llc.MissRate()*100)
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
