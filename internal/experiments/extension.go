package experiments

import (
	"fmt"
	"io"

	gl "glider/internal/glider"
	"glider/internal/ml"
	"glider/internal/offline"
	"glider/internal/workload"
)

// Extension: the paper's future-work direction (§2.1) — MPPPB's
// multiperspective features inside a deep model. We compare, offline, the
// per-PC Hawkeye counters, the k-sparse ISVM (Glider's feature), and a
// two-layer MLP over multiperspective features (control flow + addresses).

// ExtensionRow is one benchmark's comparison.
type ExtensionRow struct {
	Name               string
	Hawkeye, ISVM, MLP float64
	MLPWeights         int
}

// Extension is the multiperspective-MLP study.
type Extension struct {
	Rows []ExtensionRow
}

// RunExtensionMLP trains the three models on a context-heavy and a
// mixed-pattern benchmark.
func RunExtensionMLP(cfg Config) (Extension, error) {
	var out Extension
	for _, name := range []string{"omnetpp", "soplex"} {
		spec, err := workload.Lookup(name)
		if err != nil {
			return out, err
		}
		d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
		if err != nil {
			return out, err
		}
		_, hk := offline.TrainHawkeyeOffline(d, cfg.LinearEpochs)
		_, isvm, err := offline.TrainISVMOffline(d, 5, cfg.LinearEpochs)
		if err != nil {
			return out, err
		}
		opts := offline.DefaultMLPOptions()
		opts.Epochs = cfg.LinearEpochs
		m, mlp, err := offline.TrainMLPOffline(d, opts)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, ExtensionRow{
			Name:       name,
			Hawkeye:    hk.FinalAccuracy(),
			ISVM:       isvm.FinalAccuracy(),
			MLP:        mlp.FinalAccuracy(),
			MLPWeights: m.NumWeights(),
		})
	}
	return out, nil
}

// Render writes the comparison.
func (e Extension) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: multiperspective features in a deep model (offline accuracy)")
	fmt.Fprintf(w, "  %-10s %9s %13s %20s\n", "benchmark", "hawkeye", "offline-ISVM", "multiperspective-MLP")
	for _, r := range e.Rows {
		fmt.Fprintf(w, "  %-10s %8.1f%% %12.1f%% %17.1f%% (%d weights)\n",
			r.Name, r.Hawkeye*100, r.ISVM*100, r.MLP*100, r.MLPWeights)
	}
}

// QuantizationRow summarizes the §5.4 compression discussion: post-training
// int8 quantization of the attention LSTM, with the accuracy retained and
// the size reduction achieved — showing that even compressed, the deep
// model dwarfs Glider's 62 KB budget.
type QuantizationRow struct {
	Benchmark        string
	AccuracyFloat    float64
	AccuracyInt8     float64
	CompressionRatio float64
	QuantizedKB      float64
	GliderKB         float64
}

// Quantization is the compression study.
type Quantization struct {
	Rows []QuantizationRow
}

// RunExtensionQuantization trains the LSTM, quantizes it, and compares.
func RunExtensionQuantization(cfg Config) (Quantization, error) {
	var out Quantization
	for _, name := range []string{"omnetpp"} {
		spec, err := workload.Lookup(name)
		if err != nil {
			return out, err
		}
		d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
		if err != nil {
			return out, err
		}
		m, res, err := offline.TrainLSTM(d, cfg.LSTM)
		if err != nil {
			return out, err
		}
		seqs := d.Sequences(cfg.LSTM.HistoryLen, false)
		rep := ml.QuantizeAttentionLSTM(m)
		accQ := offline.EvalLSTM(m, seqs, cfg.LSTM.MaxEvalSequences, cfg.LSTM.Seed)
		pred := gl.NewPredictor(gl.DefaultConfig(1))
		out.Rows = append(out.Rows, QuantizationRow{
			Benchmark:        name,
			AccuracyFloat:    res.FinalAccuracy(),
			AccuracyInt8:     accQ,
			CompressionRatio: rep.CompressionRatio(),
			QuantizedKB:      float64(rep.QuantizedBytes) / 1024,
			GliderKB:         float64(pred.SizeBytes()) / 1024,
		})
	}
	return out, nil
}

// Render writes the study.
func (q Quantization) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: post-training int8 quantization of the attention LSTM (§5.4)")
	fmt.Fprintf(w, "  %-10s %12s %12s %12s %14s %10s\n", "benchmark", "float acc", "int8 acc", "ratio", "quantized KB", "glider KB")
	for _, r := range q.Rows {
		fmt.Fprintf(w, "  %-10s %11.1f%% %11.1f%% %11.1fx %14.1f %10.1f\n",
			r.Benchmark, r.AccuracyFloat*100, r.AccuracyInt8*100, r.CompressionRatio, r.QuantizedKB, r.GliderKB)
	}
}
