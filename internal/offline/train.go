package offline

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"glider/internal/ml"
	"glider/internal/obs"
	"glider/internal/simrunner"
)

// TrainResult records one offline training run: the per-epoch test accuracy
// curve (Figure 15) and the final accuracy.
type TrainResult struct {
	// Model names the trained model.
	Model string
	// EpochAccuracy is the test accuracy after each epoch.
	EpochAccuracy []float64
}

// FinalAccuracy returns the last epoch's test accuracy.
func (r TrainResult) FinalAccuracy() float64 {
	if len(r.EpochAccuracy) == 0 {
		return 0
	}
	return r.EpochAccuracy[len(r.EpochAccuracy)-1]
}

// TrainHawkeyeOffline trains Hawkeye's per-PC counters on the train region
// for the given number of epochs, recording test accuracy per epoch.
func TrainHawkeyeOffline(d *Dataset, epochs int) (*ml.HawkeyeCounters, TrainResult) {
	m := ml.NewHawkeyeCounters()
	res := trainLinear(d, "hawkeye", epochs,
		func(i int) { m.Train(d.PCs[i], d.Labels[i]) },
		func(i int) bool { return m.Predict(d.PCs[i]) })
	return m, res
}

// TrainISVMOffline trains the offline ISVM: the hinge SVM over the k
// unique-PC history features. k must be at least 1.
func TrainISVMOffline(d *Dataset, k, epochs int) (*ml.HingeSVM, TrainResult, error) {
	return trainSVM(d, "offline-isvm", k, d.UniqueHistories, epochs)
}

// TrainOrderedSVMOffline trains the Perceptron baseline: the hinge SVM over
// the ordered history of h PCs. h must be at least 1.
func TrainOrderedSVMOffline(d *Dataset, h, epochs int) (*ml.HingeSVM, TrainResult, error) {
	return trainSVM(d, "perceptron", h, d.OrderedHistories, epochs)
}

// trainSVM trains a hinge SVM (Table 5's step size) on Belady labels over
// the per-access features that histories builds from hist past PCs.
func trainSVM(d *Dataset, model string, hist int, histories func(int) [][]ml.Feature, epochs int) (*ml.HingeSVM, TrainResult, error) {
	if err := checkHistoryLen(model, hist); err != nil {
		return nil, TrainResult{}, err
	}
	features := histories(hist)
	m := ml.NewHingeSVM(1000)
	res := trainLinear(d, model, epochs,
		func(i int) { m.Train(d.PCs[i], features[i], d.Labels[i]) },
		func(i int) bool { return m.Predict(d.PCs[i], features[i]) })
	return m, res, nil
}

// checkHistoryLen rejects a history length below 1: every model's features
// look back at least one PC.
func checkHistoryLen(model string, n int) error {
	if n < 1 {
		return fmt.Errorf("offline: %s history length %d, want at least 1", model, n)
	}
	return nil
}

// trainLinear runs epochs passes of train over the train region, in access
// order, and scores predict on the test region after each.
func trainLinear(d *Dataset, model string, epochs int, train func(i int), predict func(i int) bool) TrainResult {
	res := TrainResult{Model: model}
	for e := 0; e < epochs; e++ {
		for i := 0; i < d.TrainEnd; i++ {
			train(i)
		}
		res.EpochAccuracy = append(res.EpochAccuracy, testAccuracy(d, predict))
	}
	return res
}

// testAccuracy is the fraction of test-region accesses whose prediction
// matches the Belady label.
func testAccuracy(d *Dataset, predict func(i int) bool) float64 {
	correct := 0
	for i := d.TrainEnd; i < d.Len(); i++ {
		if predict(i) == d.Labels[i] {
			correct++
		}
	}
	return ratio(correct, d.Len()-d.TrainEnd)
}

// LSTMOptions controls LSTM training cost/quality trade-offs.
type LSTMOptions struct {
	// HistoryLen is N: sequences are 2N long with N warmup (paper: 30).
	HistoryLen int
	// Epochs is the number of passes over the training sequences.
	Epochs int
	// MaxTrainSequences caps the sequences used per epoch (0 = all); the
	// cap keeps pure-Go training tractable and is documented in
	// EXPERIMENTS.md. Data-parallel minibatches (BatchSize/Workers) made a
	// 5× higher cap affordable at the same wall-clock budget.
	MaxTrainSequences int
	// MaxEvalSequences caps the test sequences scored per epoch (0 = all).
	// The evaluated subset is a seed-deterministic sample, not a prefix
	// (see EvalLSTM).
	MaxEvalSequences int
	// BatchSize is the number of sequences per optimizer step. 0 or 1
	// reproduces classic per-sequence updates; larger values enable
	// data-parallel gradient accumulation across Workers. Every size runs
	// through the same sharded loop: a one-sequence batch is one shard.
	BatchSize int
	// Workers bounds the goroutines that accumulate gradients within a
	// minibatch (0 = one per available CPU). Training results are
	// bit-identical for every worker count: each batch is split into a
	// fixed shard layout that depends only on the batch, and shard
	// gradients are reduced in shard order before the single optimizer
	// step.
	Workers int
	// Config is the model configuration; zero value selects
	// ml.FastConfig(vocab).
	Config ml.AttentionLSTMConfig
	// Seed controls sequence subsampling.
	Seed int64
	// Obs, when non-nil, records per-epoch training metrics
	// ("offline.epoch.*"). Purely observational: attaching a registry
	// never changes training results.
	Obs *obs.Registry
	// Sink, when non-nil, receives one "epoch" event per epoch with the
	// dataset's workload, loss, accuracy, and wall time — the producer for
	// cmd/obsreport's training curve.
	Sink obs.Sink
}

// DefaultLSTMOptions returns the settings used by the experiment harness:
// N = 30 as the paper found optimal, with the fast model configuration.
// The per-epoch sequence cap was raised 400 → 2000 when training went
// data-parallel (minibatches of 16 sharded across the CPUs); the old
// serial budget is documented in EXPERIMENTS.md.
func DefaultLSTMOptions() LSTMOptions {
	return LSTMOptions{HistoryLen: 30, Epochs: 10, MaxTrainSequences: 2000, MaxEvalSequences: 200, BatchSize: 16, Seed: 1}
}

// trainShards is the fixed number of gradient shards a minibatch is split
// into. It is a constant — not the worker count — so the floating-point
// reduction tree is identical no matter how many workers run the shards,
// which is what makes training results worker-count-invariant. Eight
// shards keep every machine up to 8 cores fully busy while costing only
// eight parameter-sized gradient buffers.
const trainShards = 8

// TrainLSTM trains the attention LSTM on the dataset and returns the model
// plus its per-epoch accuracy curve. Each minibatch's sequences are sharded
// across a bounded worker pool; gradients accumulate into per-shard shadows
// of the parameters and reduce in fixed shard order before a single
// optimizer step, so the trained weights are bit-identical for any Workers
// value (asserted by TestTrainLSTMWorkerEquivalence). HistoryLen must be at
// least 1.
func TrainLSTM(d *Dataset, opts LSTMOptions) (*ml.AttentionLSTM, TrainResult, error) {
	if err := checkHistoryLen("LSTM", opts.HistoryLen); err != nil {
		return nil, TrainResult{}, err
	}
	cfg := opts.Config
	if cfg.Vocab == 0 {
		cfg = ml.FastConfig(len(d.Vocab))
	}
	cfg.Vocab = len(d.Vocab)
	if cfg.Vocab == 0 {
		cfg.Vocab = 1
	}
	m, err := ml.NewAttentionLSTM(cfg)
	if err != nil {
		return nil, TrainResult{}, err
	}
	trainSeqs := d.Sequences(opts.HistoryLen, true)
	testSeqs := d.Sequences(opts.HistoryLen, false)
	r := rand.New(rand.NewSource(opts.Seed))

	batch := max(opts.BatchSize, 1)
	shadows := make([]*ml.AttentionLSTM, min(batch, trainShards))
	for i := range shadows {
		shadows[i] = m.Shadow()
	}

	// Observability: per-epoch loss/accuracy/time. The nil fast paths make
	// this free when no registry or sink is attached, and the loss sum is
	// computed from values training already produces, so attaching obs never
	// perturbs the trained weights.
	epochTimer := opts.Obs.Timer("offline.epoch.seconds")
	lossHist := opts.Obs.Histogram("offline.epoch.loss", obs.LinearBuckets(0.1, 0.1, 10))
	accHist := opts.Obs.Histogram("offline.epoch.accuracy", obs.LinearBuckets(0.1, 0.1, 10))
	seqsTrained := opts.Obs.Counter("offline.sequences.trained")

	res := TrainResult{Model: "attention-lstm"}
	for e := 0; e < opts.Epochs; e++ {
		epochStart := time.Now()
		seqs := trainSeqs
		if opts.MaxTrainSequences > 0 && len(seqs) > opts.MaxTrainSequences {
			perm := r.Perm(len(trainSeqs))
			seqs = make([]Sequence, opts.MaxTrainSequences)
			for i := range seqs {
				seqs[i] = trainSeqs[perm[i]]
			}
		}
		lossSum, err := trainEpochParallel(m, shadows, seqs, batch, opts.Workers)
		if err != nil {
			return nil, TrainResult{}, err
		}
		acc := EvalLSTM(m, testSeqs, opts.MaxEvalSequences, opts.Seed)
		res.EpochAccuracy = append(res.EpochAccuracy, acc)

		meanLoss := 0.0
		if len(seqs) > 0 {
			meanLoss = lossSum / float64(len(seqs))
		}
		elapsed := time.Since(epochStart)
		epochTimer.Observe(elapsed)
		lossHist.Observe(meanLoss)
		accHist.Observe(acc)
		seqsTrained.Add(uint64(len(seqs)))
		if opts.Sink != nil {
			opts.Sink.Emit("offline", "epoch", map[string]any{
				"workload":  d.Name,
				"model":     res.Model,
				"epoch":     e,
				"loss":      meanLoss,
				"accuracy":  acc,
				"seconds":   elapsed.Seconds(),
				"sequences": len(seqs),
			})
		}
	}
	return m, res, nil
}

// shardResult is one shard's contribution to a minibatch: its summed
// sequence loss plus the number of gradient-contributing positions.
type shardResult struct {
	loss float64
	n    int
}

// trainEpochParallel runs one epoch of minibatch training and returns the
// epoch's total sequence loss. Every batch is partitioned into (at most)
// trainShards contiguous shards — a layout that depends only on the batch
// length — and the shards run as simrunner jobs on a pool of `workers`
// goroutines. Shard s always accumulates into shadow s, in its sequences'
// order, and ReduceGrads folds the shadows back in shard order, so the
// result is bit-identical to any other worker count (including 1). The
// loss is likewise summed in shard order from the index-ordered results,
// keeping the reported value worker-count-invariant too. The weights are
// frozen while a batch is in flight: only StepBatch mutates them, after
// the pool has joined.
func trainEpochParallel(m *ml.AttentionLSTM, shadows []*ml.AttentionLSTM, seqs []Sequence, batch, workers int) (float64, error) {
	ctx := context.Background()
	total := 0.0
	for start := 0; start < len(seqs); start += batch {
		end := start + batch
		if end > len(seqs) {
			end = len(seqs)
		}
		b := seqs[start:end]
		ns := len(shadows)
		if ns > len(b) {
			ns = len(b)
		}
		jobs := make([]simrunner.Job[shardResult], ns)
		for si := 0; si < ns; si++ {
			lo := si * len(b) / ns
			hi := (si + 1) * len(b) / ns
			part := b[lo:hi]
			sh := shadows[si]
			jobs[si] = simrunner.Job[shardResult]{
				Key: simrunner.Key("train-lstm", "shard", strconv.Itoa(si)),
				Run: func(ctx context.Context) (shardResult, error) {
					var res shardResult
					for _, s := range part {
						loss, np := sh.AccumulateSequence(s.Tokens, s.Labels, s.PredictFrom)
						res.loss += loss
						res.n += np
					}
					return res, nil
				},
			}
		}
		vals, err := simrunner.Values(simrunner.Run(ctx, simrunner.Options{Workers: workers}, jobs))
		if err != nil {
			return 0, err
		}
		for _, v := range vals {
			total += v.loss
		}
		m.ReduceGrads(shadows[:ns])
		m.StepBatch(len(b))
	}
	return total, nil
}

// EvalLSTM measures sequence-labeling accuracy over test sequences. When
// maxSeqs caps the evaluation, the scored subset is a deterministic
// seed-derived sample of the whole test set (EvalIndices) rather than the
// first maxSeqs sequences: a prefix would always score the same leading
// region of the test stream and bias the accuracy curve toward whatever
// phase the benchmark starts in.
func EvalLSTM(m *ml.AttentionLSTM, seqs []Sequence, maxSeqs int, seed int64) float64 {
	correct, total := 0, 0
	for _, i := range EvalIndices(len(seqs), maxSeqs, seed) {
		s := seqs[i]
		c, t := m.EvalSequence(s.Tokens, s.Labels, s.PredictFrom)
		correct += c
		total += t
	}
	return ratio(correct, total)
}

// EvalIndices returns the sequence indices EvalLSTM scores: all of
// [0, n) when the cap is off, otherwise a sorted max-element sample drawn
// from a dedicated stream derived from the run seed (so it never aliases
// the training-subsample stream). The selection is pure: same (n, max,
// seed) always yields the same indices.
func EvalIndices(n, max int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if max <= 0 || n <= max {
		return out
	}
	r := rand.New(rand.NewSource(simrunner.SeedFor(seed, "offline/eval")))
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	out = out[:max]
	sort.Ints(out)
	return out
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
