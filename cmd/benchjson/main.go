// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark results can be committed (BENCH_train.json)
// and diffed across commits without scraping free-form text. It reads the
// benchmark output on stdin and writes JSON to -o (default stdout):
//
//	go test -run XXX -bench . -benchmem ./... | benchjson -o BENCH_train.json
//
// Every metric pair on a benchmark line is kept, including custom
// b.ReportMetric units such as seqs/s, keyed by its unit string. Under
// `go test -count N` a benchmark prints N lines; they fold into one entry
// holding each unit's median, so one slow or fast sample does not become
// the recorded number.
//
// With -compare the command instead reads two committed reports and writes
// a machine-readable regression report, making BENCH files enforceable
// rather than descriptive:
//
//	benchjson -compare -threshold 15 BENCH_sim.json new.json
//
// exits nonzero when any benchmark's compared metric (default ns/op) grew
// by more than the threshold percentage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"glider/internal/ledger"
	"glider/internal/stats"
)

// Benchmark is one benchmark's result: its parsed line, or the fold of
// its repeated lines.
type Benchmark struct {
	// Name is the benchmark name including sub-benchmark path.
	Name string `json:"name"`
	// Runs is the iteration count the harness settled on (b.N), summed
	// over the folded samples.
	Runs int64 `json:"runs"`
	// Samples is the number of result lines folded into this entry: N under
	// `go test -count N`.
	Samples int `json:"samples"`
	// Metrics maps unit → value for every reported metric pair
	// (ns/op, B/op, allocs/op, and any custom units): the median over the
	// samples (nearest rank, so an even count takes the lower middle).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	// Goos/Goarch/CPU/Pkg echo the benchmark environment header lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Pkgs lists every package that contributed benchmarks.
	Pkgs []string `json:"pkgs,omitempty"`
	// Benchmarks holds one entry per benchmark name, in the order of each
	// name's first result line.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	// Name is the benchmark name shared by both reports.
	Name string `json:"name"`
	// Old and New are the compared metric's values.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// DeltaPct is the relative change in percent; positive means the new
	// run is slower (for /op metrics, larger = worse).
	DeltaPct float64 `json:"delta_pct"`
	// Regression is true when DeltaPct exceeds the report's threshold.
	Regression bool `json:"regression"`
}

// CompareReport is the -compare output document.
type CompareReport struct {
	// Metric is the compared unit (default ns/op).
	Metric string `json:"metric"`
	// ThresholdPct is the failure threshold in percent.
	ThresholdPct float64 `json:"threshold_pct"`
	// Deltas holds one entry per benchmark present in both reports, in new
	// report order.
	Deltas []Delta `json:"deltas"`
	// OnlyOld and OnlyNew list benchmarks present in one report only —
	// disappeared or newly added (informational, never a failure).
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
	// WorstPct is the largest delta across Deltas (0 when empty).
	WorstPct float64 `json:"worst_pct"`
	// Regressions counts entries with Regression set; the command exits
	// nonzero when it is positive.
	Regressions int `json:"regressions"`
}

// compareReports diffs new against old on one metric.
func compareReports(old, new Report, metric string, thresholdPct float64) CompareReport {
	cr := CompareReport{Metric: metric, ThresholdPct: thresholdPct, Deltas: []Delta{}}
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	newNames := make(map[string]bool, len(new.Benchmarks))
	for _, nb := range new.Benchmarks {
		newNames[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			cr.OnlyNew = append(cr.OnlyNew, nb.Name)
			continue
		}
		ov, okO := ob.Metrics[metric]
		nv, okN := nb.Metrics[metric]
		if !okO || !okN || ov == 0 {
			continue
		}
		d := Delta{Name: nb.Name, Old: ov, New: nv, DeltaPct: 100 * (nv - ov) / ov}
		d.Regression = d.DeltaPct > thresholdPct
		if d.Regression {
			cr.Regressions++
		}
		if d.DeltaPct > cr.WorstPct {
			cr.WorstPct = d.DeltaPct
		}
		cr.Deltas = append(cr.Deltas, d)
	}
	for _, b := range old.Benchmarks {
		if !newNames[b.Name] {
			cr.OnlyOld = append(cr.OnlyOld, b.Name)
		}
	}
	return cr
}

func runCompare(oldPath, newPath, metric string, thresholdPct float64, out, ledgerPath string) int {
	load := func(path string) (Report, error) {
		var r Report
		data, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return r, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: compare:", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: compare:", err)
		return 2
	}
	cr := compareReports(oldRep, newRep, metric, thresholdPct)
	enc, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		return 2
	}
	for _, d := range cr.Deltas {
		if d.Regression {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %s %.4g -> %.4g (%+.1f%% > %.1f%%)\n",
				d.Name, cr.Metric, d.Old, d.New, d.DeltaPct, thresholdPct)
		}
	}
	if ledgerPath != "" {
		if err := anchorCompare(ledgerPath, cr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: ledger:", err)
			return 2
		}
	}
	if cr.Regressions > 0 {
		return 1
	}
	return 0
}

// anchorCompare records the comparison verdict as a content-addressed
// "benchcompare" artifact, so a perf claim ("no regression against
// BENCH_sim.json") is later provable with cmd/audit rather than taken on
// faith from a CI log.
func anchorCompare(path string, cr CompareReport) error {
	b, err := ledger.OpenDisk(path)
	if err != nil {
		return err
	}
	l, err := ledger.New(b, ledger.Options{})
	if err != nil {
		return err
	}
	a, err := l.Append("benchcompare", cr)
	if err != nil {
		l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: anchored comparison as artifact %s in %s\n", a.ID, path)
	return nil
}

func main() {
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	compare := flag.Bool("compare", false, "compare two benchjson reports: benchjson -compare old.json new.json")
	metric := flag.String("metric", "ns/op", "metric unit to compare in -compare mode")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -compare mode")
	ledgerPath := flag.String("ledger", "", "in -compare mode, anchor the comparison report into this experiment ledger file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *metric, *threshold, *out, *ledgerPath))
	}

	rep, err := readReport(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// readReport parses `go test -bench` output, echoing every line to echo so
// piping into benchjson does not swallow the live progress output, and
// folds each benchmark's result lines into one entry.
func readReport(r io.Reader, echo io.Writer) (Report, error) {
	var rep Report
	var lines []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			if pkg := strings.TrimPrefix(line, "pkg: "); !slices.Contains(rep.Pkgs, pkg) {
				rep.Pkgs = append(rep.Pkgs, pkg)
			}
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				lines = append(lines, b)
			}
		}
	}
	rep.Benchmarks = fold(lines)
	return rep, sc.Err()
}

// fold merges the result lines that share a benchmark name into one entry
// per name, in first-appearance order: the samples' medians, their summed
// iterations and their count.
func fold(lines []Benchmark) []Benchmark {
	var names []string
	byName := map[string][]Benchmark{}
	for _, b := range lines {
		if _, ok := byName[b.Name]; !ok {
			names = append(names, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		f := Benchmark{Name: name, Samples: len(byName[name]), Metrics: map[string]float64{}}
		samples := map[string][]float64{}
		for _, b := range byName[name] {
			f.Runs += b.Runs
			for unit, v := range b.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		for unit, vs := range samples {
			f.Metrics[unit] = stats.Percentile(vs, 50)
		}
		out = append(out, f)
	}
	return out
}

// parseLine parses one `BenchmarkName-8  123  456 ns/op  7 B/op ...` line.
// The trailing -N GOMAXPROCS suffix is stripped from the name so results
// from machines with different core counts compare under the same key.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
