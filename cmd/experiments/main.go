// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-accesses N] [-mixes N] [-seed N] [-workers N] <experiment>...
//
// where <experiment> is any of: table1 table2 table3 table4 fig4 fig5 fig6
// fig9 fig10 fig11 fig12 fig13 fig14 fig15 ablations extension lineage zoo
// learned estimate all. The zoo experiment sweeps the scenario zoo (Zipf
// object streams, multi-tenant mixes, ingested ChampSim traces) and accepts
// repeatable -zoo-spec flags to choose scenarios; learned sweeps the
// learned-replacement comparison set (LRU, Hawkeye, Glider, FRD, MSA) over
// the Table 2 benchmarks; estimate trains the surrogate simulator, prints
// its held-out evaluation, and prunes a configuration sweep with it
// (repeatable -sweep-workload flags choose the grid; default is the
// thousand-cell sweep).
//
// fig11 and fig12 share simulation runs and are emitted together.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/prof"
	"glider/internal/simrunner"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced Quick configuration")
	accesses := flag.Int("accesses", 0, "override per-benchmark trace length")
	offlineAccesses := flag.Int("offline-accesses", 0, "override offline trace length")
	mixes := flag.Int("mixes", 0, "override number of 4-core mixes")
	seed := flag.Int64("seed", 0, "override trace seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	lstmN := flag.Int("lstm-n", 0, "override LSTM sequence warmup length N")
	lstmEpochs := flag.Int("lstm-epochs", 0, "override LSTM training epochs")
	lstmSeqs := flag.Int("lstm-seqs", 0, "override LSTM training sequences per epoch")
	batch := flag.Int("batch", 0, "override LSTM minibatch size (1 = serial per-sequence updates)")
	trainWorkers := flag.Int("train-workers", 0, "concurrent LSTM gradient workers per minibatch (0 = one per CPU); results are identical for any value")
	workers := flag.Int("workers", 0, "concurrent simulation jobs (0 = one per CPU); results are identical for any value")
	progress := flag.Bool("progress", false, "report per-job progress on stderr")
	var zooSpecs []string
	flag.Func("zoo-spec", "scenario spec for the zoo experiment (repeatable; default: built-in scenario set)", func(s string) error {
		zooSpecs = append(zooSpecs, s)
		return nil
	})
	var sweepWLs []string
	flag.Func("sweep-workload", "sweep workload for the estimate experiment (repeatable; default: thousand-cell sweep grid)", func(s string) error {
		sweepWLs = append(sweepWLs, s)
		return nil
	})
	ledgerPath := flag.String("ledger", "", "record the zoo and estimate results into this append-only experiment ledger file (audit with cmd/audit)")
	metricsPath := flag.String("metrics", "", "write JSONL telemetry events to this file (report with obsreport)")
	metricsSummary := flag.Bool("metrics-summary", false, "print a metrics summary to stderr when all experiments finish")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()

	stopProf, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// Runs on clean shutdown; error paths below flush explicitly before
	// os.Exit so a partial CPU profile is still usable.
	defer stopProf()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *accesses > 0 {
		cfg.Accesses = *accesses
	}
	if *offlineAccesses > 0 {
		cfg.OfflineAccesses = *offlineAccesses
	}
	if *mixes > 0 {
		cfg.Mixes = *mixes
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *lstmN > 0 {
		cfg.LSTM.HistoryLen = *lstmN
	}
	if *lstmEpochs > 0 {
		cfg.LSTM.Epochs = *lstmEpochs
	}
	if *lstmSeqs > 0 {
		cfg.LSTM.MaxTrainSequences = *lstmSeqs
	}
	if *batch > 0 {
		cfg.LSTM.BatchSize = *batch
	}
	cfg.LSTM.Workers = *trainWorkers
	cfg.Workers = *workers
	if *progress {
		cfg.Progress = func(p simrunner.Progress) {
			status := "ok"
			if p.Err != nil {
				status = p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-40s %s\n", p.Done, p.Total, p.Key, status)
		}
	}

	// Observability: one registry/sink pair spans all requested experiments,
	// so job latencies from every figure land in the same report.
	var jsonl *obs.JSONLSink
	if *metricsPath != "" || *metricsSummary {
		cfg.Obs = obs.NewRegistry()
	}
	if *metricsPath != "" {
		var err error
		if jsonl, err = obs.CreateJSONL(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		cfg.Sink = jsonl
	}
	cfg.LSTM.Obs = cfg.Obs
	cfg.LSTM.Sink = cfg.Sink

	var led *ledger.Ledger
	if *ledgerPath != "" {
		backend, err := ledger.OpenDisk(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: opening ledger:", err)
			os.Exit(1)
		}
		if led, err = ledger.New(backend, ledger.Options{Obs: cfg.Obs}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: ledger failed verification:", err)
			os.Exit(1)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <table1|table2|table3|table4|fig4|fig5|fig6|fig9|fig10|fig11|fig12|fig13|fig14|fig15|ablations|extension|lineage|zoo|learned|estimate|all>...")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15", "table3", "table4", "ablations", "extension", "lineage", "zoo", "learned"}
	}

	for _, name := range args {
		start := time.Now()
		if err := run(name, cfg, zooSpecs, sweepWLs, *asJSON, os.Stdout, led); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			stopProf()
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Printf("  [%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}

	if led != nil {
		if err := led.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: closing ledger:", err)
			os.Exit(1)
		}
		// Reopen read-only to report the durable head the audit CLI will see.
		if b, err := ledger.ReadDisk(*ledgerPath); err == nil {
			rep := ledger.Verify(b)
			fmt.Fprintf(os.Stderr, "experiments: ledger %s anchored: %d artifacts in %d batches, chain %s\n",
				*ledgerPath, rep.State.Artifacts, rep.State.Batches, rep.State.Chain)
			b.Close()
		}
	}
	if cfg.Sink != nil {
		obs.EmitSnapshot(cfg.Sink, cfg.Obs)
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *metricsSummary {
		cfg.Obs.Snapshot().WriteSummary(os.Stderr)
	}
}

// renderer is any experiment result.
type renderer interface{ Render(w io.Writer) }

// emit writes a result to w as text or JSON.
func emit(w io.Writer, name string, r renderer, asJSON bool) error {
	if !asJSON {
		r.Render(w)
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": name, "result": r})
}

// record appends an emitted result to the -ledger file, if one is open. A
// failed append is reported but does not fail the run: the result is
// already written, and the audit of the file shows what it holds.
func record(led *ledger.Ledger, kind string, payload any) {
	if led == nil {
		return
	}
	if _, err := led.Append(kind, payload); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: ledger: %s not recorded: %v\n", kind, err)
	}
}

// run computes one experiment, writes it to w, and records the zoo and the
// estimate study's sweep into led (nil: record nothing).
func run(name string, cfg experiments.Config, zooSpecs, sweepWLs []string, asJSON bool, w io.Writer, led *ledger.Ledger) error {
	switch name {
	case "zoo":
		z, err := experiments.RunZoo(cfg, zooSpecs)
		if err != nil {
			return err
		}
		record(led, experiments.LedgerKindZoo, z)
		return emit(w, name, z, asJSON)
	case "learned":
		l, err := experiments.RunLearned(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, l, asJSON)
	case "estimate":
		e, err := experiments.RunEstimate(cfg, sweepWLs)
		if err != nil {
			return err
		}
		record(led, experiments.LedgerKindSweep, e.Sweep)
		return emit(w, name, e, asJSON)
	case "table1":
		return emit(w, name, experiments.RunTable1(), asJSON)
	case "table2":
		t, err := experiments.RunTable2(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, t, asJSON)
	case "table3":
		t, err := experiments.RunTable3(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, t, asJSON)
	case "table4":
		t, err := experiments.RunTable4(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, t, asJSON)
	case "fig4":
		f, err := experiments.RunFig4(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig5":
		f, err := experiments.RunFig5(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig6":
		f, err := experiments.RunFig6(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig9":
		f, err := experiments.RunFig9(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig10":
		f, err := experiments.RunFig10(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig11", "fig12":
		f, err := experiments.RunFig11(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig13":
		f, err := experiments.RunFig13(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig14":
		lstm, linear := experiments.DefaultFig14Lens()
		f, err := experiments.RunFig14(cfg, lstm, linear)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "fig15":
		f, err := experiments.RunFig15(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, f, asJSON)
	case "extension":
		e, err := experiments.RunExtensionMLP(cfg)
		if err != nil {
			return err
		}
		if err := emit(w, name, e, asJSON); err != nil {
			return err
		}
		q, err := experiments.RunExtensionQuantization(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, q, asJSON)
	case "lineage":
		l, err := experiments.RunLineage(cfg)
		if err != nil {
			return err
		}
		return emit(w, name, l, asJSON)
	case "ablations":
		for _, runA := range []func(experiments.Config) (experiments.Ablation, error){
			experiments.RunAblationOptgenVsBelady,
			experiments.RunAblationOrderedVsUnordered,
			experiments.RunAblationThreshold,
			experiments.RunAblationTableSize,
			experiments.RunAblationHistoryLen,
		} {
			a, err := runA(cfg)
			if err != nil {
				return err
			}
			if err := emit(w, name, a, asJSON); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
