// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): each experiment is a function that computes a structured
// result plus a Render method that prints the same rows/series the paper
// reports. The cmd/experiments binary and the repository's benchmark suite
// are thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/ml"
	"glider/internal/obs"
	"glider/internal/offline"
	"glider/internal/opt"
	"glider/internal/simrunner"
	"glider/internal/stats"
	"glider/internal/workload"
)

// Config sizes the experiments. Paper-scale runs use Default; tests and
// benchmarks use Quick.
type Config struct {
	// Accesses is the per-benchmark trace length for policy studies.
	Accesses int
	// OfflineAccesses is the trace length for offline-model studies.
	OfflineAccesses int
	// Seed drives all trace generation.
	Seed int64
	// Mixes is the number of 4-core mixes (paper: 100).
	Mixes int
	// MixAccessesPerCore is the per-core trace length in multi-core runs.
	MixAccessesPerCore int
	// LSTM controls offline LSTM training cost.
	LSTM offline.LSTMOptions
	// LinearEpochs is the training epochs for offline linear models.
	LinearEpochs int
	// ConvergenceEpochs is the epoch count for Figure 15.
	ConvergenceEpochs int
	// Workers bounds the number of concurrent simulation jobs in the
	// parallelized experiments (0 = one per available CPU). Results are
	// bit-identical for every worker count; see internal/simrunner.
	Workers int
	// Progress, when non-nil, receives a callback after each parallel
	// simulation job completes (callbacks are serialized).
	Progress func(simrunner.Progress)
	// Obs, when non-nil, receives the parallel runner's job-latency and
	// throughput metrics. Per-hierarchy metrics stay off in experiments:
	// jobs run concurrently and would contend on shared counters.
	Obs *obs.Registry
	// Sink, when non-nil, receives one event per simulation job and batch,
	// keyed so cmd/obsreport can group latencies by policy.
	Sink obs.Sink
}

// runnerOpts translates the config into simulation-runner options.
func (c Config) runnerOpts() simrunner.Options {
	return simrunner.Options{Workers: c.Workers, Progress: c.Progress, Obs: c.Obs, Sink: c.Sink}
}

// Default returns the full-scale configuration used by cmd/experiments.
func Default() Config {
	return Config{
		Accesses:           1_000_000,
		OfflineAccesses:    600_000,
		Seed:               42,
		Mixes:              100,
		MixAccessesPerCore: 250_000,
		LSTM:               offline.DefaultLSTMOptions(),
		LinearEpochs:       3,
		ConvergenceEpochs:  15,
	}
}

// Quick returns a configuration small enough for unit tests and testing.B
// benchmarks while exercising every code path. Mixes run 100k accesses per
// core: below about that the shared LLC never fills, every policy ties with
// LRU, and every Figure 13 speedup is 0.
func Quick() Config {
	lstm := offline.LSTMOptions{
		HistoryLen:        10,
		Epochs:            2,
		MaxTrainSequences: 40,
		MaxEvalSequences:  25,
		Config:            ml.AttentionLSTMConfig{Vocab: 1, Embed: 16, Hidden: 16, LR: 0.005, ClipNorm: 5, Seed: 1},
		Seed:              1,
	}
	return Config{
		Accesses:           60_000,
		OfflineAccesses:    80_000,
		Seed:               42,
		Mixes:              2,
		MixAccessesPerCore: 100_000,
		LSTM:               lstm,
		LinearEpochs:       2,
		ConvergenceEpochs:  4,
	}
}

// policySet is the paper's online comparison set (Figures 11–13).
var policySet = []string{"hawkeye", "mpppb", "ship++", "glider"}

// ---------------------------------------------------------------- Table 1

// Table1 describes the simulated memory hierarchy.
type Table1 struct {
	Rows [][2]string
}

// RunTable1 collects the hierarchy configuration.
func RunTable1() Table1 {
	mk := func(c cache.Config) string {
		return fmt.Sprintf("%d KB, %d-way, %d-cycle latency", c.SizeBytes()/1024, c.Ways, c.LatencyCycles)
	}
	d := dram.SingleCoreConfig()
	return Table1{Rows: [][2]string{
		{"L1 D-Cache", mk(cache.L1DConfig)},
		{"L2 Cache", mk(cache.L2Config)},
		{"LLC per core", mk(cache.LLCConfig)},
		{"LLC shared (4-core)", mk(cache.SharedLLCConfig4)},
		{"DRAM", fmt.Sprintf("tRP=tRCD=tCAS=%d, 800MHz, %.1f GB/s single-core, %.1f GB/s 4-core",
			d.TCAS, d.BytesPerCycle*3.2, dram.QuadCoreConfig().BytesPerCycle*3.2)},
	}}
}

// Render writes the table.
func (t Table1) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1: baseline configuration")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-20s %s\n", r[0], r[1])
	}
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one benchmark's LLC-stream statistics.
type Table2Row struct {
	Name            string
	Accesses        int
	PCs             int
	Addrs           int
	AccessesPerPC   float64
	AccessesPerAddr float64
}

// Table2 is the offline benchmark statistics table.
type Table2 struct {
	Rows []Table2Row
}

// RunTable2 computes LLC-stream statistics for the offline benchmark set.
// Each benchmark's statistics are independent, so they run as parallel jobs.
func RunTable2(cfg Config) (Table2, error) {
	specs := workload.OfflineSet()
	jobs := make([]simrunner.Job[Table2Row], len(specs))
	for i, spec := range specs {
		jobs[i] = simrunner.Job[Table2Row]{
			Key: simrunner.Key("table2", spec.Name),
			Run: func(ctx context.Context) (Table2Row, error) {
				d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
				if err != nil {
					return Table2Row{}, fmt.Errorf("table2 %s: %w", spec.Name, err)
				}
				// Addresses are counted over the labeled LLC stream the
				// accesses and PCs come from, not over the raw trace.
				addrs := make(map[uint64]struct{})
				for _, b := range d.Blocks {
					addrs[b] = struct{}{}
				}
				row := Table2Row{
					Name:     spec.Name,
					Accesses: d.Len(),
					PCs:      len(d.Vocab),
					Addrs:    len(addrs),
				}
				if row.PCs > 0 {
					row.AccessesPerPC = float64(row.Accesses) / float64(row.PCs)
				}
				if row.Addrs > 0 {
					row.AccessesPerAddr = float64(row.Accesses) / float64(row.Addrs)
				}
				return row, nil
			},
		}
	}
	rows, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return Table2{}, err
	}
	return Table2{Rows: rows}, nil
}

// Render writes the table.
func (t Table2) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 2: statistics for benchmarks used in offline analysis (LLC access stream)")
	fmt.Fprintf(w, "  %-10s %10s %6s %9s %12s %12s\n", "program", "accesses", "PCs", "addrs", "acc/PC", "acc/addr")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-10s %10d %6d %9d %12.1f %12.1f\n",
			r.Name, r.Accesses, r.PCs, r.Addrs, r.AccessesPerPC, r.AccessesPerAddr)
	}
}

// ---------------------------------------------------------------- Figure 4

// Fig4 is the attention-weight CDF study.
type Fig4 struct {
	Benchmark string
	Curves    []offline.AttentionCDF
	// Probes are the x-axis points the CDF is evaluated at.
	Probes []float64
	// CDF[i][j] = P(weight ≤ Probes[j]) for curve i.
	CDF [][]float64
}

// RunFig4 trains one LSTM per scaling factor on an omnetpp-class dataset
// and extracts attention-weight distributions. Each scaling factor is an
// independent training run over the shared (read-only after construction)
// dataset, so the factors train as parallel jobs.
func RunFig4(cfg Config) (Fig4, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Fig4{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Fig4{}, err
	}
	scales := []float64{1, 2, 3, 4, 5}
	jobs := make([]simrunner.Job[offline.AttentionCDF], len(scales))
	for i, f := range scales {
		jobs[i] = simrunner.Job[offline.AttentionCDF]{
			Key: simrunner.Key("fig4", spec.Name, fmt.Sprintf("scale=%g", f)),
			Run: func(ctx context.Context) (offline.AttentionCDF, error) {
				curves, err := offline.AttentionWeightStudy(d, []float64{f}, cfg.LSTM)
				if err != nil {
					return offline.AttentionCDF{}, err
				}
				return curves[0], nil
			},
		}
	}
	curves, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return Fig4{}, err
	}
	out := Fig4{Benchmark: spec.Name, Curves: curves}
	for p := 0.0; p <= 1.0001; p += 0.05 {
		out.Probes = append(out.Probes, p)
	}
	for _, c := range curves {
		out.CDF = append(out.CDF, stats.CDF(c.Weights, out.Probes))
	}
	return out, nil
}

// Render writes the CDF curves.
func (f Fig4) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: CDF of attention weights vs scaling factor (%s)\n", f.Benchmark)
	fmt.Fprintf(w, "  %-8s", "weight≤")
	for _, c := range f.Curves {
		fmt.Fprintf(w, "  scale=%.0f(acc=%4.1f%%)", c.Scale, c.Accuracy*100)
	}
	fmt.Fprintln(w)
	for j, p := range f.Probes {
		fmt.Fprintf(w, "  %-8.2f", p)
		for i := range f.Curves {
			fmt.Fprintf(w, "  %19.3f", f.CDF[i][j])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------- Figure 5

// Fig5 holds the attention heatmaps for consecutive accesses.
type Fig5 struct {
	Benchmark string
	Wide      offline.Heatmap // ~many consecutive accesses, long span
	Narrow    offline.Heatmap // 10 consecutive accesses, short span
}

// RunFig5 trains an LSTM and extracts attention heatmaps.
func RunFig5(cfg Config) (Fig5, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Fig5{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Fig5{}, err
	}
	opts := cfg.LSTM
	if cfg2 := opts.Config; cfg2.Vocab == 0 {
		opts.Config = ml.FastConfig(len(d.Vocab))
	}
	opts.Config.Scale = 3 // sharpened attention reveals the structure
	m, _, err := offline.TrainLSTM(d, opts)
	if err != nil {
		return Fig5{}, err
	}
	seqs := d.Sequences(opts.HistoryLen, false)
	if len(seqs) == 0 {
		return Fig5{}, fmt.Errorf("fig5: no test sequences")
	}
	// Inference reuses the model's scratch buffers, so the two
	// heatmap-extraction jobs share the trained model one after the other.
	span := opts.HistoryLen
	jobs := []simrunner.Job[offline.Heatmap]{
		{Key: simrunner.Key("fig5", spec.Name, "wide"), Run: func(ctx context.Context) (offline.Heatmap, error) {
			return offline.AttentionHeatmap(m, seqs[0], opts.HistoryLen, span), nil
		}},
		{Key: simrunner.Key("fig5", spec.Name, "narrow"), Run: func(ctx context.Context) (offline.Heatmap, error) {
			return offline.AttentionHeatmap(m, seqs[0], 10, span), nil
		}},
	}
	serial := cfg.runnerOpts()
	serial.Workers = 1
	maps, err := simrunner.Values(simrunner.Run(context.Background(), serial, jobs))
	if err != nil {
		return Fig5{}, err
	}
	return Fig5{Benchmark: spec.Name, Wide: maps[0], Narrow: maps[1]}, nil
}

// Render draws the heatmaps as text.
func (f Fig5) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: attention weights of consecutive accesses (%s)\n", f.Benchmark)
	draw := func(hm offline.Heatmap, title string) {
		fmt.Fprintf(w, "  (%s) source offset %d..%d, one row per target\n", title, hm.Offsets[0], hm.Offsets[len(hm.Offsets)-1])
		for i, row := range hm.Rows {
			max := stats.Max(row)
			fmt.Fprintf(w, "  %3d |", i)
			for _, v := range row {
				x := 0.0
				if max > 0 {
					x = v / max
				}
				fmt.Fprintf(w, "%c", stats.HeatRune(x))
			}
			fmt.Fprintln(w, "|")
		}
	}
	draw(f.Wide, "a: consecutive targets, full span")
	draw(f.Narrow, "b: 10 consecutive targets")
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one benchmark's ordered-vs-shuffled accuracy.
type Fig6Row struct {
	Name               string
	Original, Shuffled float64
}

// Fig6 is the shuffle study.
type Fig6 struct {
	Rows []Fig6Row
}

// RunFig6 measures the LSTM's sensitivity to source ordering on the offline
// benchmark set, one parallel job per benchmark.
func RunFig6(cfg Config) (Fig6, error) {
	specs := workload.OfflineSet()
	jobs := make([]simrunner.Job[Fig6Row], len(specs))
	for i, spec := range specs {
		jobs[i] = simrunner.Job[Fig6Row]{
			Key: simrunner.Key("fig6", spec.Name),
			Run: func(ctx context.Context) (Fig6Row, error) {
				d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
				if err != nil {
					return Fig6Row{}, err
				}
				m, _, err := offline.TrainLSTM(d, cfg.LSTM)
				if err != nil {
					return Fig6Row{}, err
				}
				res := offline.ShuffleStudy(m, d.Sequences(cfg.LSTM.HistoryLen, false), cfg.LSTM.MaxEvalSequences, cfg.Seed)
				return Fig6Row{Name: spec.Name, Original: res.Original, Shuffled: res.Shuffled}, nil
			},
		}
	}
	rows, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return Fig6{}, err
	}
	out := Fig6{Rows: rows}
	avgO, avgS := 0.0, 0.0
	for _, r := range out.Rows {
		avgO += r.Original
		avgS += r.Shuffled
	}
	n := float64(len(out.Rows))
	out.Rows = append(out.Rows, Fig6Row{Name: "average", Original: avgO / n, Shuffled: avgS / n})
	return out, nil
}

// Render writes the comparison.
func (f Fig6) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: accuracy for original vs randomly shuffled sequences")
	fmt.Fprintf(w, "  %-10s %10s %10s\n", "benchmark", "original", "shuffled")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-10s %9.1f%% %9.1f%%\n", r.Name, r.Original*100, r.Shuffled*100)
	}
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row is one benchmark's offline accuracy across the four models.
type Fig9Row struct {
	Name                            string
	Hawkeye, Perceptron, ISVM, LSTM float64
}

// Fig9 is the offline-model accuracy comparison.
type Fig9 struct {
	Rows []Fig9Row
}

// RunFig9 trains all four offline models per benchmark, one parallel job
// per benchmark (the four trainings share that job's dataset).
func RunFig9(cfg Config) (Fig9, error) {
	specs := workload.OfflineSet()
	jobs := make([]simrunner.Job[Fig9Row], len(specs))
	for i, spec := range specs {
		jobs[i] = simrunner.Job[Fig9Row]{
			Key: simrunner.Key("fig9", spec.Name),
			Run: func(ctx context.Context) (Fig9Row, error) {
				d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
				if err != nil {
					return Fig9Row{}, err
				}
				_, hk := offline.TrainHawkeyeOffline(d, cfg.LinearEpochs)
				_, perc, err := offline.TrainOrderedSVMOffline(d, 3, cfg.LinearEpochs)
				if err != nil {
					return Fig9Row{}, err
				}
				_, isvm, err := offline.TrainISVMOffline(d, 5, cfg.LinearEpochs)
				if err != nil {
					return Fig9Row{}, err
				}
				_, lstm, err := offline.TrainLSTM(d, cfg.LSTM)
				if err != nil {
					return Fig9Row{}, err
				}
				return Fig9Row{
					Name:       spec.Name,
					Hawkeye:    hk.FinalAccuracy(),
					Perceptron: perc.FinalAccuracy(),
					ISVM:       isvm.FinalAccuracy(),
					LSTM:       lstm.FinalAccuracy(),
				}, nil
			},
		}
	}
	rows, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return Fig9{}, err
	}
	out := Fig9{Rows: rows}
	avg := Fig9Row{Name: "average"}
	for _, r := range out.Rows {
		avg.Hawkeye += r.Hawkeye
		avg.Perceptron += r.Perceptron
		avg.ISVM += r.ISVM
		avg.LSTM += r.LSTM
	}
	n := float64(len(out.Rows))
	avg.Hawkeye /= n
	avg.Perceptron /= n
	avg.ISVM /= n
	avg.LSTM /= n
	out.Rows = append(out.Rows, avg)
	return out, nil
}

// Render writes the comparison.
func (f Fig9) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: accuracy comparison of offline predictors")
	fmt.Fprintf(w, "  %-10s %9s %11s %13s %20s\n", "benchmark", "hawkeye", "perceptron", "offline-ISVM", "attention-LSTM")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-10s %8.1f%% %10.1f%% %12.1f%% %19.1f%%\n",
			r.Name, r.Hawkeye*100, r.Perceptron*100, r.ISVM*100, r.LSTM*100)
	}
}

// --------------------------------------------------------------- Figure 10

// Fig10Row is one benchmark's online predictor accuracy.
type Fig10Row struct {
	Name            string
	Hawkeye, Glider float64
}

// Fig10 is the online accuracy comparison.
type Fig10 struct {
	Rows []Fig10Row
}

// onlineAccuracy runs a benchmark with the policy and compares the
// policy-exposed predictions against exact MIN labels of the LLC stream.
func onlineAccuracy(ctx context.Context, spec workload.Spec, policyName string, accesses int, seed int64) (float64, error) {
	c, err := cpu.SharedCapture(ctx, spec, accesses, seed, 1)
	if err != nil {
		return 0, err
	}
	llc, err := cpu.BuildLLC(1, policyName)
	if err != nil {
		return 0, err
	}
	res, err := c.RunFunctional(ctx, llc, accesses/5, true)
	if err != nil {
		return 0, err
	}
	labels := opt.LabelTrace(res.LLCStream, cache.LLCConfig.Sets, cache.LLCConfig.Ways)
	// Skip the truncated tail (see offline.Dataset): labels there are
	// unreliable.
	usable := int(float64(len(labels)) * 0.8)
	correct := 0
	for i := 0; i < usable; i++ {
		if res.Predictions[i] == labels[i] {
			correct++
		}
	}
	if usable == 0 {
		return 0, fmt.Errorf("onlineAccuracy: empty LLC stream for %s", spec.Name)
	}
	return float64(correct) / float64(usable), nil
}

// RunFig10 measures online accuracy over the 23-benchmark set, one parallel
// job per (benchmark, policy) simulation.
func RunFig10(cfg Config) (Fig10, error) {
	specs := workload.OnlineAccuracySet()
	pols := []string{"hawkeye", "glider"}
	jobs := make([]simrunner.Job[float64], 0, len(specs)*len(pols))
	for _, spec := range specs {
		for _, pol := range pols {
			jobs = append(jobs, simrunner.Job[float64]{
				Key: simrunner.Key("fig10", spec.Name, pol),
				Run: func(ctx context.Context) (float64, error) {
					return onlineAccuracy(ctx, spec, pol, cfg.Accesses, cfg.Seed)
				},
			})
		}
	}
	acc, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return Fig10{}, err
	}
	var out Fig10
	for i, spec := range specs {
		out.Rows = append(out.Rows, Fig10Row{Name: spec.Name, Hawkeye: acc[2*i], Glider: acc[2*i+1]})
	}
	avg := Fig10Row{Name: "average"}
	for _, r := range out.Rows {
		avg.Hawkeye += r.Hawkeye
		avg.Glider += r.Glider
	}
	n := float64(len(out.Rows))
	avg.Hawkeye /= n
	avg.Glider /= n
	out.Rows = append(out.Rows, avg)
	return out, nil
}

// Render writes the comparison.
func (f Fig10) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: accuracy comparison of online predictors")
	fmt.Fprintf(w, "  %-14s %9s %9s\n", "benchmark", "hawkeye", "glider")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-14s %8.1f%% %8.1f%%\n", r.Name, r.Hawkeye*100, r.Glider*100)
	}
}

// ---------------------------------------------------- Figures 11 and 12

// Fig11Row is one benchmark's single-core results for every policy.
type Fig11Row struct {
	Name string
	// LRUMissRate and LRUIPC are the baseline.
	LRUMissRate, LRUIPC float64
	// MissReduction[policy] is the % miss reduction over LRU.
	MissReduction map[string]float64
	// Speedup[policy] is the % IPC improvement over LRU.
	Speedup map[string]float64
}

// Fig11 covers both Figure 11 (miss reduction) and Figure 12 (speedup),
// which share the same simulation runs.
type Fig11 struct {
	Policies []string
	Rows     []Fig11Row
	// SuiteAverages holds per-suite and overall averages, keyed by suite
	// name ("SPEC06", "SPEC17", "GAP", "ALL") then policy.
	SuiteAverages map[string]map[string][2]float64 // [missReduction, speedup]
}

// RunFig11 runs every single-core benchmark under LRU plus the comparison
// policies with full timing on the sweep grid (one parallel job per
// (benchmark, policy) cell), then reduces the cells in grid order, so the
// averages do not depend on the worker count.
func RunFig11(cfg Config) (Fig11, error) {
	out := Fig11{Policies: slices.Clone(policySet), SuiteAverages: map[string]map[string][2]float64{}}
	type suiteAcc struct {
		miss, speed map[string]float64
		n           int
	}
	suites := map[string]*suiteAcc{}
	accum := func(key string) *suiteAcc {
		s, ok := suites[key]
		if !ok {
			s = &suiteAcc{miss: map[string]float64{}, speed: map[string]float64{}}
			suites[key] = s
		}
		return s
	}

	specs := workload.SingleCoreSet()
	cells, err := runGrid(cfg, specs, append([]string{"lru"}, policySet...))
	if err != nil {
		return out, err
	}
	k := 0
	for _, spec := range specs {
		base := cells[k]
		k++
		row := Fig11Row{
			Name:          spec.Name,
			LRUMissRate:   base.LLCMissRate,
			LRUIPC:        base.IPC,
			MissReduction: map[string]float64{},
			Speedup:       map[string]float64{},
		}
		for _, pol := range policySet {
			res := cells[k]
			k++
			if base.LLCMissRate > 0 {
				row.MissReduction[pol] = 100 * (base.LLCMissRate - res.LLCMissRate) / base.LLCMissRate
			}
			if base.IPC > 0 {
				row.Speedup[pol] = 100 * (res.IPC - base.IPC) / base.IPC
			}
		}
		out.Rows = append(out.Rows, row)
		for _, key := range []string{string(spec.Suite), "ALL"} {
			s := accum(key)
			s.n++
			for _, pol := range policySet {
				s.miss[pol] += row.MissReduction[pol]
				s.speed[pol] += row.Speedup[pol]
			}
		}
	}
	for key, s := range suites {
		m := map[string][2]float64{}
		for _, pol := range policySet {
			m[pol] = [2]float64{s.miss[pol] / float64(s.n), s.speed[pol] / float64(s.n)}
		}
		out.SuiteAverages[key] = m
	}
	return out, nil
}

// Render writes Figure 11 (miss reductions).
func (f Fig11) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: miss rate reduction over LRU (%), single-core")
	f.renderMetric(w, func(r Fig11Row, pol string) float64 { return r.MissReduction[pol] }, 0)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 12: speedup over LRU (%), single-core")
	f.renderMetric(w, func(r Fig11Row, pol string) float64 { return r.Speedup[pol] }, 1)
}

func (f Fig11) renderMetric(w io.Writer, get func(Fig11Row, string) float64, avgIdx int) {
	fmt.Fprintf(w, "  %-14s", "benchmark")
	for _, pol := range f.Policies {
		fmt.Fprintf(w, " %9s", pol)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-14s", r.Name)
		for _, pol := range f.Policies {
			fmt.Fprintf(w, " %8.1f%%", get(r, pol))
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(f.SuiteAverages))
	for k := range f.SuiteAverages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(w, "  %-14s", "avg:"+key)
		for _, pol := range f.Policies {
			fmt.Fprintf(w, " %8.1f%%", f.SuiteAverages[key][pol][avgIdx])
		}
		fmt.Fprintln(w)
	}
}

// --------------------------------------------------------------- Figure 13

// Fig13 is the 4-core weighted-speedup study.
type Fig13 struct {
	Policies []string
	// Speedups[policy][mix] is the weighted speedup over LRU (%), sorted
	// ascending per policy as the paper's S-curve presents it.
	Speedups map[string][]float64
	// Averages[policy] is the mean improvement.
	Averages map[string]float64
}

// RunFig13 runs the multi-core mixes in two parallel phases: the solo
// baselines first, then the shared-LLC mix runs, which read the completed
// solo table without further synchronization. Core i's solo baseline
// replays the trace seeded cpu.CoreSeed(cfg.Seed, i), which depends on the
// core but not the mix, so solo runs are deduplicated per (benchmark, core,
// policy) across mixes; cpu.Weighted reduces each mix as
// cpu.WeightedSpeedup does.
func RunFig13(cfg Config) (Fig13, error) {
	out := Fig13{Policies: slices.Clone(policySet), Speedups: map[string][]float64{}, Averages: map[string]float64{}}
	mixes := workload.Mixes(cfg.Mixes, 4, cfg.Seed)
	pols := append([]string{"lru"}, policySet...)
	soloKey := func(spec workload.Spec, core int, pol string) string {
		return simrunner.Key("fig13", "solo", spec.Name, "core="+strconv.Itoa(core), pol)
	}

	// Phase 1: solo IPCs, one job per unique (benchmark, core, policy).
	soloIdx := map[string]int{}
	var soloJobs []simrunner.Job[float64]
	for _, mix := range mixes {
		for i, spec := range mix.Members {
			seed := cpu.CoreSeed(cfg.Seed, i)
			for _, pol := range pols {
				key := soloKey(spec, i, pol)
				if _, ok := soloIdx[key]; ok {
					continue
				}
				soloIdx[key] = len(soloJobs)
				soloJobs = append(soloJobs, simrunner.Job[float64]{
					Key: key,
					Run: func(ctx context.Context) (float64, error) {
						res, err := cpu.SoloOnShared(ctx, spec, 4, pol, cfg.MixAccessesPerCore, seed)
						if err != nil {
							return 0, err
						}
						return res.IPC, nil
					},
				})
			}
		}
	}
	soloIPCs, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), soloJobs))
	if err != nil {
		return out, err
	}

	// Phase 2: shared runs, one job per mix, which captures the mix once and
	// replays the capture under LRU and each studied policy in turn. No other
	// job replays it, so it stays in the job, not in the trace store.
	jobs := make([]simrunner.Job[[]float64], len(mixes))
	for m, mix := range mixes {
		jobs[m] = simrunner.Job[[]float64]{
			Key: simrunner.Key("fig13", "mix"+strconv.Itoa(mix.ID)),
			Run: func(ctx context.Context) ([]float64, error) {
				c, err := cpu.MixCapture(ctx, mix, cfg.MixAccessesPerCore, cfg.Seed)
				if err != nil {
					return nil, err
				}
				ws := make([]float64, len(pols))
				for p, pol := range pols {
					shared, err := cpu.MultiCore(ctx, c, pol)
					if err != nil {
						return nil, err
					}
					solo := make([]float64, len(mix.Members))
					for i, spec := range mix.Members {
						solo[i] = soloIPCs[soloIdx[soloKey(spec, i, pol)]]
					}
					if ws[p], err = cpu.Weighted(mix, shared, solo); err != nil {
						return nil, err
					}
				}
				return ws, nil
			},
		}
	}
	weighted, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
	if err != nil {
		return out, err
	}

	for _, ws := range weighted {
		lru := ws[0]
		for p, pol := range policySet {
			out.Speedups[pol] = append(out.Speedups[pol], 100*(ws[p+1]-lru)/lru)
		}
	}
	for _, pol := range policySet {
		sort.Float64s(out.Speedups[pol])
		out.Averages[pol] = stats.Mean(out.Speedups[pol])
	}
	return out, nil
}

// Render writes the S-curve data.
func (f Fig13) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 13: weighted speedup over LRU (%), 4 cores, shared 8 MB LLC")
	fmt.Fprintf(w, "  %-8s", "mix#")
	for _, pol := range f.Policies {
		fmt.Fprintf(w, " %9s", pol)
	}
	fmt.Fprintln(w)
	n := 0
	if len(f.Policies) > 0 {
		n = len(f.Speedups[f.Policies[0]])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  %-8d", i)
		for _, pol := range f.Policies {
			fmt.Fprintf(w, " %8.1f%%", f.Speedups[pol][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-8s", "average")
	for _, pol := range f.Policies {
		fmt.Fprintf(w, " %8.1f%%", f.Averages[pol])
	}
	fmt.Fprintln(w)
}
