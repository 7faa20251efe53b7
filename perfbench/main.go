// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload (sweep, serve-miss or serve-hit) over a fixed list
// of operations generated from --seed, checks the outputs against direct
// computations, and prints its metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around its calls into each layer, writes them under --out,
// and reports the per-layer metrics instead. README.md explains the
// workloads and the metrics.
//
//	python3 perfbench/run.py --workload sweep --seed 42 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned sweep digest was taken at
// (experiments.Quick's seed).
const defaultSeed = 42

// startEnv names the environment variable holding the Unix time, in
// nanoseconds, at which the process was exec'd; run.py sets it just before
// exec. Set-up is timed from it, so it covers the runtime's and every
// package's initialisation.
const startEnv = "PERFBENCH_START_NS"

// setupProcs is how many set-ups a timed run measures, each in a process
// of its own: the run's and setupProcs-1 started after its measured phase
// with --setup-only. setup_s is their median.
const setupProcs = 5

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	// setupOnly stops the run at its first measured operation; the
	// process prints its set-up time and exits.
	setupOnly bool
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	// setup is the seconds from exec to the first measured operation.
	setup             float64
	attempted, failed int
	// checkErrs describes every failed output check.
	checkErrs []string
	metrics   []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail records a failed check that cost n operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sweep":      runSweep,
	"serve-miss": runServeMiss,
	"serve-hit":  runServeHit,
}

func main() {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload to run: sweep, serve-miss or serve-hit")
	flag.Int64Var(&rc.seed, "seed", defaultSeed, "seed every input of the run is generated from")
	flag.IntVar(&rc.seconds, "seconds", 35, "nominal length of the measured phase; sizes the serving workloads' request lists")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&rc.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch ledgers")
	flag.BoolVar(&rc.setupOnly, "setup-only", false, "stop at the first measured operation and print the set-up time")
	flag.Parse()
	rc.traced = trace == 1

	run, ok := workloads[rc.workload]
	if !ok || (trace != 0 && trace != 1) || rc.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep|serve-miss|serve-hit, --trace 0|1 and --seconds >= 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(rc)
	if err == nil && !rc.traced && !rc.setupOnly {
		var secs []float64
		if secs, err = childSetups(rc); err == nil {
			out.add("setup_s", median(append(secs, out.setup)), "s")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	if rc.setupOnly {
		fmt.Println(strconv.FormatFloat(out.setup, 'g', -1, 64))
		return
	}
	if err := printOutcome(rc, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printOutcome writes a readable table and then the JSON result line.
func printOutcome(rc runConfig, out *outcome) error {
	for _, e := range out.checkErrs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	fmt.Printf("%s seed=%d trace=%v: %d operations, %d failed\n", rc.workload, rc.seed, rc.traced, out.attempted, out.failed)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(out.metrics))
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if _, dup := metrics[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		fmt.Printf("  %-44s %16s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(out.checkErrs) == 0 && out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ------------------------------------------------------------ measurement

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of raw
// samples, which it sorts. Failed operations enter as +Inf, so they miss
// every limit.
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(rank, 0)]
}

// round is one stretch of a measured phase: the raw latency samples of its
// operations (seconds, +Inf for a failed one) and its wall time. A run's
// figures are medians over its rounds, so a burst of machine noise that
// slows a minority of rounds does not move them.
type round struct {
	latency []float64
	wall    float64
}

// throughputMetric adds the median over rounds of completed operations
// per second.
func throughputMetric(o *outcome, prefix string, rounds []round) {
	per := make([]float64, len(rounds))
	for i, r := range rounds {
		done := 0
		for _, l := range r.latency {
			if !math.IsInf(l, 1) {
				done++
			}
		}
		per[i] = float64(done) / r.wall
	}
	o.add(prefix+"throughput_per_s", median(per), "1/s")
}

// percentileMetric names a latency percentile.
type percentileMetric struct {
	name string
	q    float64
}

var (
	// timedPercentiles are the latency percentiles of a timed run's
	// end-to-end metrics.
	timedPercentiles = []percentileMetric{{"latency_p50_ms", 0.50}, {"latency_p95_ms", 0.95}}
	// tracedPercentiles add the p99, which a traced run reports as a
	// per-layer metric: on a shared 2-CPU host, serve-hit's p99 follows how
	// fast the hypervisor wakes an idle virtual CPU, and ten runs of the
	// same code spread by up to a third of their median (README.md).
	tracedPercentiles = []percentileMetric{{"latency_p50_ms", 0.50}, {"latency_p95_ms", 0.95}, {"latency_p99_ms", 0.99}}
)

// latencyMetrics adds the latency percentiles ps, each the median over
// rounds of the round's percentile of its raw samples. A percentile that
// lands on a failed operation reads as the round's wall time: no latency
// the round saw was longer.
func latencyMetrics(o *outcome, prefix string, rounds []round, ps []percentileMetric) {
	for _, p := range ps {
		per := make([]float64, len(rounds))
		for i, r := range rounds {
			per[i] = percentile(append([]float64(nil), r.latency...), p.q)
			if math.IsInf(per[i], 1) {
				per[i] = r.wall
			}
		}
		o.add(prefix+p.name, 1e3*median(per), "ms")
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// sinceExec returns the seconds since the process was exec'd, as startEnv
// records it.
func sinceExec() (float64, error) {
	ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must hold the exec time (run through perfbench/run.py): %w", startEnv, err)
	}
	return time.Since(time.Unix(0, ns)).Seconds(), nil
}

// setupDone ends a run's set-up: it records the set-up time in o and
// reports whether the run is a --setup-only one, which stops here.
// Otherwise it returns the set-up's garbage to the operating system and
// resets the process's peak resident set, so that peak_rss_mb covers the
// measured phase with everything set-up left live. On serve-hit the
// set-up's hot-set simulation would otherwise set the peak, at twice the
// serving phase's and varying by a quarter with the collector's timing.
func setupDone(rc runConfig, o *outcome) (bool, error) {
	if !rc.traced {
		var err error
		if o.setup, err = sinceExec(); err != nil {
			return false, err
		}
	}
	if rc.setupOnly {
		return true, nil
	}
	debug.FreeOSMemory()
	return false, os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// childSetups runs the set-up setupProcs-1 more times, one after another,
// each in a new process of this binary with --setup-only, and returns
// their set-up times. Each is timed from just before its exec.
func childSetups(rc runConfig) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 1; i < setupProcs; i++ {
		cmd := exec.Command(self, "--workload", rc.workload, "--seed", strconv.FormatInt(rc.seed, 10),
			"--seconds", strconv.Itoa(rc.seconds), "--out", rc.outDir, "--setup-only")
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", startEnv, time.Now().UnixNano()))
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return nil, errors.New("set-up process printed nothing")
		}
		s, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		secs = append(secs, s)
	}
	return secs, nil
}

// allocs returns the process's cumulative heap allocation count.
func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (the layer saw no traffic).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// writeSpans stores the traced run's spans and prints their self times.
func writeSpans(rc runConfig, t *tracer) error {
	path := filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(t.spans), path)
	t.printSelfTimes(os.Stdout)
	return nil
}
