package experiments

import (
	"fmt"
	"io"

	gl "glider/internal/glider"
	"glider/internal/ml"
	"glider/internal/offline"
	"glider/internal/workload"
)

// --------------------------------------------------------------- Figure 14

// Fig14 is the history-length sweep.
type Fig14 struct {
	Benchmark string
	Sweep     offline.HistoryLengthSweep
}

// RunFig14 sweeps sequence length for the LSTM and history length / k for
// the linear models on the omnetpp-class benchmark.
func RunFig14(cfg Config, lstmLens, linearKs []int) (Fig14, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Fig14{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Fig14{}, err
	}
	sweep, err := offline.SweepHistoryLength(d, lstmLens, linearKs, cfg.LSTM, cfg.LinearEpochs)
	if err != nil {
		return Fig14{}, err
	}
	return Fig14{Benchmark: spec.Name, Sweep: sweep}, nil
}

// DefaultFig14Lens returns the paper's sweep points: LSTM sequence lengths
// 10–100, linear history lengths 1–10.
func DefaultFig14Lens() (lstm []int, linear []int) {
	for n := 10; n <= 100; n += 10 {
		lstm = append(lstm, n)
	}
	for k := 1; k <= 10; k++ {
		linear = append(linear, k)
	}
	return lstm, linear
}

// Render writes the sweep.
func (f Fig14) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 14: accuracy vs history length (%s)\n", f.Benchmark)
	fmt.Fprintf(w, "  %-28s", "attention-LSTM (seq len N)")
	for i, n := range f.Sweep.LSTMLens {
		fmt.Fprintf(w, "  %d:%4.1f%%", n, f.Sweep.LSTMAcc[i]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-28s", "offline ISVM (unique PCs k)")
	for i, k := range f.Sweep.ISVMKs {
		fmt.Fprintf(w, "  %d:%4.1f%%", k, f.Sweep.ISVMAcc[i]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-28s", "perceptron (ordered len h)")
	for i, h := range f.Sweep.Perceptron {
		fmt.Fprintf(w, "  %d:%4.1f%%", h, f.Sweep.PercAcc[i]*100)
	}
	fmt.Fprintln(w)
}

// --------------------------------------------------------------- Figure 15

// Fig15 is the convergence study: test accuracy per training epoch.
type Fig15 struct {
	Benchmark string
	Epochs    int
	Hawkeye   []float64
	Percep    []float64
	ISVM      []float64
	LSTM      []float64
}

// RunFig15 trains all four models for the configured number of epochs,
// recording per-epoch accuracy.
func RunFig15(cfg Config) (Fig15, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Fig15{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Fig15{}, err
	}
	epochs := cfg.ConvergenceEpochs
	_, hk := offline.TrainHawkeyeOffline(d, epochs)
	_, perc, err := offline.TrainOrderedSVMOffline(d, 3, epochs)
	if err != nil {
		return Fig15{}, err
	}
	_, isvm, err := offline.TrainISVMOffline(d, 5, epochs)
	if err != nil {
		return Fig15{}, err
	}
	lstmOpts := cfg.LSTM
	lstmOpts.Epochs = epochs
	_, lstm, err := offline.TrainLSTM(d, lstmOpts)
	if err != nil {
		return Fig15{}, err
	}
	return Fig15{
		Benchmark: spec.Name,
		Epochs:    epochs,
		Hawkeye:   hk.EpochAccuracy,
		Percep:    perc.EpochAccuracy,
		ISVM:      isvm.EpochAccuracy,
		LSTM:      lstm.EpochAccuracy,
	}, nil
}

// Render writes the convergence curves.
func (f Fig15) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 15: convergence of different models (%s)\n", f.Benchmark)
	fmt.Fprintf(w, "  %-8s %9s %11s %13s %15s\n", "epoch", "hawkeye", "perceptron", "offline-ISVM", "attention-LSTM")
	for e := 0; e < f.Epochs; e++ {
		fmt.Fprintf(w, "  %-8d %8.1f%% %10.1f%% %12.1f%% %14.1f%%\n",
			e+1, f.Hawkeye[e]*100, f.Percep[e]*100, f.ISVM[e]*100, f.LSTM[e]*100)
	}
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one model's size and per-sample cost.
type Table3Row struct {
	Model      string
	SizeKB     float64
	TrainOps   int
	PredictOps int
	Float      bool
}

// Table3 is the model size / computation comparison.
type Table3 struct {
	Rows []Table3Row
}

// RunTable3 computes analytic costs for the configured models.
func RunTable3(cfg Config) (Table3, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Table3{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses/4, cfg.Seed)
	if err != nil {
		return Table3{}, err
	}
	// LSTM: parameters × 4 bytes; per-sample ops dominated by the four
	// gate matmuls: train ≈ 3 × forward (forward + backward + update).
	lcfg := ml.PaperConfig(len(d.Vocab))
	m, err := ml.NewAttentionLSTM(lcfg)
	if err != nil {
		return Table3{}, err
	}
	weights := m.NumWeights()
	fwdOps := 4 * lcfg.Hidden * (lcfg.Embed + lcfg.Hidden)

	// Glider: the hardware predictor of §4.4.
	pred := gl.NewPredictor(gl.DefaultConfig(1))
	cost := pred.Cost()

	rows := []Table3Row{
		{Model: "LSTM (predictor only)", SizeKB: float64(weights) * 4 / 1024, TrainOps: 3 * fwdOps, PredictOps: fwdOps, Float: true},
		{Model: "Glider", SizeKB: float64(cost.SizeBytes) / 1024, TrainOps: cost.TrainOpsPerSample, PredictOps: cost.PredictOpsPerSample},
		{Model: "Perceptron", SizeKB: 29, TrainOps: 9, PredictOps: 9},
		{Model: "Hawkeye", SizeKB: 32, TrainOps: 1, PredictOps: 1},
	}
	return Table3{Rows: rows}, nil
}

// Render writes the table.
func (t Table3) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 3: model size and computation cost per sample")
	fmt.Fprintf(w, "  %-24s %12s %12s %12s %8s\n", "model", "size (KB)", "train ops", "test ops", "arith")
	for _, r := range t.Rows {
		arith := "int"
		if r.Float {
			arith = "float"
		}
		fmt.Fprintf(w, "  %-24s %12.1f %12d %12d %8s\n", r.Model, r.SizeKB, r.TrainOps, r.PredictOps, arith)
	}
}

// ---------------------------------------------------------------- Table 4

// Table4 is the anchor-PC study on the omnetpp-class context pattern.
type Table4 struct {
	Rows []offline.AnchorResult
	// CallerPCs are the ground-truth caller marker PCs of the workload's
	// context component (the candidates for anchors).
	CallerPCs []uint64
}

// RunTable4 trains the LSTM and Hawkeye counters on omnetpp and measures
// per-target-PC accuracy plus anchor attribution.
func RunTable4(cfg Config) (Table4, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Table4{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Table4{}, err
	}
	// omnetpp's context component is component 0: caller PCs 0x400000..2,
	// target PCs 0x400003..6 (see the workload registry).
	targets := []uint64{0x400003, 0x400004, 0x400005, 0x400006}
	callers := []uint64{0x400000, 0x400001, 0x400002}

	opts := cfg.LSTM
	if opts.Config.Vocab == 0 {
		opts.Config = ml.FastConfig(len(d.Vocab))
	}
	opts.Config.Scale = 3
	m, _, err := offline.TrainLSTM(d, opts)
	if err != nil {
		return Table4{}, err
	}
	hk, _ := offline.TrainHawkeyeOffline(d, cfg.LinearEpochs)
	rows := offline.AnchorStudy(d, m, hk, targets, opts.HistoryLen, 4*opts.MaxEvalSequences)
	return Table4{Rows: rows, CallerPCs: callers}, nil
}

// Render writes the table.
func (t Table4) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 4: per-target-PC accuracy and anchor PCs (omnetpp context pattern)")
	fmt.Fprintf(w, "  %-10s %-10s %10s %16s %8s\n", "target PC", "anchor PC", "hawkeye", "attention-LSTM", "samples")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-10x %-10x %9.1f%% %15.1f%% %8d\n",
			r.TargetPC, r.AnchorPC, r.HawkeyeAccuracy*100, r.LSTMAccuracy*100, r.Samples)
	}
	fmt.Fprintf(w, "  caller marker PCs (ground-truth anchors): %x\n", t.CallerPCs)
}
