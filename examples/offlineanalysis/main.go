// Offline analysis: the paper's three-step methodology in miniature.
//
//  1. Train the unconstrained attention LSTM on Belady-labeled LLC accesses.
//
//  2. Interpret it: extract attention weights, find the anchor PCs that
//     decide caching outcomes, and show order insensitivity (shuffling).
//
//  3. Validate the insight: an integer SVM over the unordered unique-PC
//     history matches the LSTM at a tiny fraction of the cost.
//
//     go run ./examples/offlineanalysis
package main

import (
	"fmt"
	"os"

	"glider/internal/ml"
	"glider/internal/offline"
	"glider/internal/stats"
	"glider/internal/workload"
)

func main() {
	spec, err := workload.Lookup("omnetpp")
	check(err)

	fmt.Println("step 0: building Belady-labeled dataset (omnetpp-class workload)...")
	d, err := offline.BuildDataset(spec, 400_000, 42)
	check(err)
	fmt.Printf("  %d LLC accesses, %d PCs, %.1f%% optimally cached\n\n",
		d.Len(), len(d.Vocab), d.FriendlyFraction()*100)

	fmt.Println("step 1: training the attention LSTM (offline, multiple epochs)...")
	opts := offline.DefaultLSTMOptions()
	opts.HistoryLen = 20
	opts.Epochs = 6
	opts.Config = ml.FastConfig(len(d.Vocab))
	opts.Config.Scale = 3
	m, lstmRes, err := offline.TrainLSTM(d, opts)
	check(err)
	_, hkRes := offline.TrainHawkeyeOffline(d, 2)
	fmt.Printf("  LSTM accuracy    %.1f%%\n", lstmRes.FinalAccuracy()*100)
	fmt.Printf("  Hawkeye baseline %.1f%%\n\n", hkRes.FinalAccuracy()*100)

	fmt.Println("step 2a: attention sparsity — top weight per prediction")
	seqs := d.Sequences(opts.HistoryLen, false)
	var tops []float64
	for _, s := range seqs[:min(10, len(seqs))] {
		for _, row := range m.AttentionWeights(s.Tokens, s.PredictFrom) {
			tops = append(tops, stats.Max(row))
		}
	}
	fmt.Printf("  median top attention weight: %.2f (uniform would be ~%.2f)\n",
		stats.Percentile(tops, 50), 1.0/float64(opts.HistoryLen))

	fmt.Println("step 2b: order insensitivity — shuffle the source history")
	sh := offline.ShuffleStudy(m, seqs, 40, 7)
	fmt.Printf("  ordered %.1f%%  vs shuffled %.1f%% (small gap ⇒ presence matters, not order)\n\n",
		sh.Original*100, sh.Shuffled*100)

	fmt.Println("step 3: the simple model — integer SVM over unordered unique PCs")
	for _, k := range []int{1, 3, 5, 8} {
		_, res, err := offline.TrainISVMOffline(d, k, 2)
		check(err)
		fmt.Printf("  ISVM k=%d: %.1f%%\n", k, res.FinalAccuracy()*100)
	}
	fmt.Println("\nThe k-sparse ISVM approaches the LSTM — that model, trained online,")
	fmt.Println("is the Glider cache replacement policy (see examples/policycompare).")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
