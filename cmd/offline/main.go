// Command offline trains and evaluates the paper's offline models on a
// workload: Hawkeye's counters, the ordered-history Perceptron baseline,
// the offline ISVM, and the attention-based LSTM (§5.2). -bench takes a
// benchmark name or any workload spec string, ChampSim trace files
// included.
//
// Usage:
//
//	offline -bench omnetpp -accesses 600000 -models lstm,isvm
//	offline -bench mcf -models all -epochs 5
//	offline -bench 'champsim(file=mcf.champsim)' -accesses 60000 -models all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"glider/internal/offline"
	"glider/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "omnetpp", "benchmark name or workload spec string, e.g. 'champsim(file=PATH)'")
	accesses := fs.Int("accesses", 600_000, "trace length")
	seed := fs.Int64("seed", 42, "trace seed")
	models := fs.String("models", "all", "comma-separated: hawkeye,perceptron,isvm,lstm,all")
	epochs := fs.Int("epochs", 3, "training epochs for linear models")
	k := fs.Int("k", 5, "unique-PC history length for the ISVM")
	hist := fs.Int("h", 3, "ordered history length for the Perceptron")
	lstmLen := fs.Int("lstm-n", 30, "LSTM sequence warmup length N")
	lstmEpochs := fs.Int("lstm-epochs", 10, "LSTM training epochs")
	batch := fs.Int("batch", 0, "LSTM minibatch size (0 = default; 1 = serial per-sequence updates)")
	trainWorkers := fs.Int("train-workers", 0, "concurrent LSTM gradient workers per minibatch (0 = one per CPU); results are identical for any value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "offline: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"accesses", *accesses}, {"epochs", *epochs}, {"k", *k},
		{"h", *hist}, {"lstm-n", *lstmLen}, {"lstm-epochs", *lstmEpochs},
	} {
		if f.v < 1 {
			return usageErr("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	want := map[string]bool{}
	for _, m := range strings.Split(*models, ",") {
		switch m = strings.TrimSpace(m); m {
		case "all", "hawkeye", "perceptron", "isvm", "lstm":
			want[m] = true
		default:
			return usageErr("unknown model %q in -models", m)
		}
	}
	all := want["all"]

	spec, err := workload.Resolve(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "offline:", err)
		return 1
	}
	fmt.Fprintf(stdout, "building dataset for %s (%d accesses)...\n", spec.Name, *accesses)
	start := time.Now()
	d, err := offline.BuildDataset(spec, *accesses, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "offline:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dataset: %d LLC accesses, %d PCs, %.1f%% cache-friendly (built in %v)\n",
		d.Len(), len(d.Vocab), d.FriendlyFraction()*100, time.Since(start).Round(time.Millisecond))

	if all || want["hawkeye"] {
		_, res := offline.TrainHawkeyeOffline(d, *epochs)
		report(stdout, "hawkeye (per-PC counters)", res)
	}
	if all || want["perceptron"] {
		_, res, err := offline.TrainOrderedSVMOffline(d, *hist, *epochs)
		if err != nil {
			fmt.Fprintln(stderr, "offline:", err)
			return 1
		}
		report(stdout, fmt.Sprintf("perceptron (ordered history h=%d)", *hist), res)
	}
	if all || want["isvm"] {
		_, res, err := offline.TrainISVMOffline(d, *k, *epochs)
		if err != nil {
			fmt.Fprintln(stderr, "offline:", err)
			return 1
		}
		report(stdout, fmt.Sprintf("offline ISVM (unique PCs k=%d)", *k), res)
	}
	if all || want["lstm"] {
		opts := offline.DefaultLSTMOptions()
		opts.HistoryLen = *lstmLen
		opts.Epochs = *lstmEpochs
		if *batch > 0 {
			opts.BatchSize = *batch
		}
		opts.Workers = *trainWorkers
		start = time.Now()
		_, res, err := offline.TrainLSTM(d, opts)
		if err != nil {
			fmt.Fprintln(stderr, "offline:", err)
			return 1
		}
		report(stdout, fmt.Sprintf("attention LSTM (N=%d, %v)", *lstmLen, time.Since(start).Round(time.Second)), res)
	}
	return 0
}

func report(w io.Writer, name string, res offline.TrainResult) {
	fmt.Fprintf(w, "%-45s accuracy %.1f%%  (per epoch:", name, res.FinalAccuracy()*100)
	for _, a := range res.EpochAccuracy {
		fmt.Fprintf(w, " %.1f", a*100)
	}
	fmt.Fprintln(w, ")")
}
