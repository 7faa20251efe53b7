package offline

import (
	"math/rand"
	"sort"

	"glider/internal/ml"
)

// AttentionCDF trains one LSTM per scaling factor and returns, for each
// factor, the pooled attention-weight samples plus the model's accuracy —
// the data behind Figure 4.
type AttentionCDF struct {
	// Scale is the attention scaling factor f.
	Scale float64
	// Weights holds all attention weights observed on the sampled test
	// sequences.
	Weights []float64
	// Accuracy is the model's test accuracy at this scale.
	Accuracy float64
}

// AttentionWeightStudy runs the Figure 4 experiment over the given scales.
func AttentionWeightStudy(d *Dataset, scales []float64, opts LSTMOptions) ([]AttentionCDF, error) {
	out := make([]AttentionCDF, 0, len(scales))
	for _, f := range scales {
		o := opts
		cfg := o.Config
		if cfg.Vocab == 0 {
			cfg = ml.FastConfig(len(d.Vocab))
		}
		cfg.Scale = f
		o.Config = cfg
		m, res, err := TrainLSTM(d, o)
		if err != nil {
			return nil, err
		}
		seqs := d.Sequences(o.HistoryLen, false)
		if len(seqs) > 20 {
			seqs = seqs[:20]
		}
		var ws []float64
		for _, s := range seqs {
			for _, row := range m.AttentionWeights(s.Tokens, s.PredictFrom) {
				ws = append(ws, row...)
			}
		}
		out = append(out, AttentionCDF{Scale: f, Weights: ws, Accuracy: res.FinalAccuracy()})
	}
	return out, nil
}

// Heatmap is an attention-weight matrix for consecutive target accesses:
// rows are targets, columns are source offsets relative to the target
// (Figure 5). Row i, column j holds the weight the (i+1)-th target assigns
// to the source at offset −(cols−j).
type Heatmap struct {
	// Rows[i][j] is the attention weight; rows are normalized per target.
	Rows [][]float64
	// Offsets[j] is the source offset of column j relative to the target.
	Offsets []int
}

// AttentionHeatmap extracts the attention pattern for `targets` consecutive
// predicted accesses, keeping the last `span` source positions.
func AttentionHeatmap(m *ml.AttentionLSTM, seq Sequence, targets, span int) Heatmap {
	weights := m.AttentionWeights(seq.Tokens, seq.PredictFrom)
	if targets > len(weights) {
		targets = len(weights)
	}
	hm := Heatmap{Offsets: make([]int, span)}
	for j := 0; j < span; j++ {
		hm.Offsets[j] = -(span - j)
	}
	for i := 0; i < targets; i++ {
		row := weights[i] // sources 0..predictFrom+i-1
		cols := make([]float64, span)
		for j := 0; j < span; j++ {
			idx := len(row) - span + j
			if idx >= 0 {
				cols[j] = row[idx]
			}
		}
		hm.Rows = append(hm.Rows, cols)
	}
	return hm
}

// ShuffleResult compares accuracy on the original and source-shuffled test
// sequences (Figure 6): for each predicted timestep the warmup/source
// prefix is randomly permuted before prediction.
type ShuffleResult struct {
	// Original and Shuffled are the respective test accuracies.
	Original, Shuffled float64
}

// ShuffleStudy evaluates the order sensitivity of a trained LSTM.
func ShuffleStudy(m *ml.AttentionLSTM, seqs []Sequence, maxSeqs int, seed int64) ShuffleResult {
	if maxSeqs > 0 && len(seqs) > maxSeqs {
		seqs = seqs[:maxSeqs]
	}
	r := rand.New(rand.NewSource(seed))
	var res ShuffleResult
	correctO, correctS, total := 0, 0, 0
	for _, s := range seqs {
		co, t := m.EvalSequence(s.Tokens, s.Labels, s.PredictFrom)
		correctO += co
		total += t

		shuffled := append([]int(nil), s.Tokens...)
		prefix := shuffled[:s.PredictFrom]
		r.Shuffle(len(prefix), func(i, j int) { prefix[i], prefix[j] = prefix[j], prefix[i] })
		cs, _ := m.EvalSequence(shuffled, s.Labels, s.PredictFrom)
		correctS += cs
	}
	res.Original = ratio(correctO, total)
	res.Shuffled = ratio(correctS, total)
	return res
}

// AnchorResult is one row of Table 4: a target PC, its strongest source
// ("anchor") PC, and the accuracy of Hawkeye's per-PC predictor vs the
// attention LSTM on that target's accesses.
type AnchorResult struct {
	TargetPC        uint64
	AnchorPC        uint64
	HawkeyeAccuracy float64
	LSTMAccuracy    float64
	Samples         int
}

// AnchorStudy reproduces Table 4: for each requested target PC it measures
// per-PC accuracy under Hawkeye's counters and under the LSTM, and
// identifies the anchor PC (the source position with the highest average
// attention weight, mapped back to its PC).
func AnchorStudy(d *Dataset, m *ml.AttentionLSTM, hk *ml.HawkeyeCounters, targets []uint64, histLen, maxSeqs int) []AnchorResult {
	type attnAcc struct {
		weight float64
		count  int
	}
	want := make(map[uint64]*AnchorResult, len(targets))
	attnByPC := make(map[uint64]map[uint64]*attnAcc, len(targets))
	lstmCorrect := make(map[uint64]int)
	hkCorrect := make(map[uint64]int)
	samples := make(map[uint64]int)
	for _, t := range targets {
		want[t] = &AnchorResult{TargetPC: t}
		attnByPC[t] = make(map[uint64]*attnAcc)
	}

	seqs := d.Sequences(histLen, false)
	if maxSeqs > 0 && len(seqs) > maxSeqs {
		seqs = seqs[:maxSeqs]
	}
	for _, s := range seqs {
		preds := m.Predict(s.Tokens, s.PredictFrom)
		weights := m.AttentionWeights(s.Tokens, s.PredictFrom)
		for i, pred := range preds {
			t := s.PredictFrom + i
			pc := d.Vocab[s.Tokens[t]]
			if _, ok := want[pc]; !ok {
				continue
			}
			label := s.Labels[t]
			samples[pc]++
			if pred == label {
				lstmCorrect[pc]++
			}
			if hk.Predict(pc) == label {
				hkCorrect[pc]++
			}
			for srcIdx, w := range weights[i] {
				srcPC := d.Vocab[s.Tokens[srcIdx]]
				a := attnByPC[pc][srcPC]
				if a == nil {
					a = &attnAcc{}
					attnByPC[pc][srcPC] = a
				}
				a.weight += w
				a.count++
			}
		}
	}

	out := make([]AnchorResult, 0, len(targets))
	for _, t := range targets {
		r := want[t]
		r.Samples = samples[t]
		r.HawkeyeAccuracy = ratio(hkCorrect[t], samples[t])
		r.LSTMAccuracy = ratio(lstmCorrect[t], samples[t])
		// Anchor: the source PC with the greatest *mean* attention weight
		// per occurrence (cumulative mass would be dominated by whichever
		// PC merely appears most often), excluding the target PC itself
		// and PCs too rare to estimate.
		type kv struct {
			pc uint64
			w  float64
		}
		minCount := samples[t] / 10
		var kvs []kv
		for pc, a := range attnByPC[t] {
			if pc != t && a.count > minCount {
				kvs = append(kvs, kv{pc, a.weight / float64(a.count)})
			}
		}
		sort.Slice(kvs, func(i, j int) bool { return kvs[i].w > kvs[j].w })
		if len(kvs) > 0 {
			r.AnchorPC = kvs[0].pc
		}
		out = append(out, *r)
	}
	return out
}

// HistoryLengthSweep runs the Figure 14 experiment: accuracy as a function
// of history length for the three offline models. lstmLens are sequence
// lengths N; linearKs are unique-PC counts for the ISVM and ordered history
// lengths for the Perceptron.
type HistoryLengthSweep struct {
	LSTMLens   []int
	LSTMAcc    []float64
	ISVMKs     []int
	ISVMAcc    []float64
	Perceptron []int
	PercAcc    []float64
}

// SweepHistoryLength runs the sweep with the given training budgets.
func SweepHistoryLength(d *Dataset, lstmLens, linearKs []int, lstmOpts LSTMOptions, linearEpochs int) (HistoryLengthSweep, error) {
	var out HistoryLengthSweep
	for _, n := range lstmLens {
		o := lstmOpts
		o.HistoryLen = n
		_, res, err := TrainLSTM(d, o)
		if err != nil {
			return out, err
		}
		out.LSTMLens = append(out.LSTMLens, n)
		out.LSTMAcc = append(out.LSTMAcc, res.FinalAccuracy())
	}
	for _, k := range linearKs {
		_, res, err := TrainISVMOffline(d, k, linearEpochs)
		if err != nil {
			return out, err
		}
		out.ISVMKs = append(out.ISVMKs, k)
		out.ISVMAcc = append(out.ISVMAcc, res.FinalAccuracy())

		_, pres, err := TrainOrderedSVMOffline(d, k, linearEpochs)
		if err != nil {
			return out, err
		}
		out.Perceptron = append(out.Perceptron, k)
		out.PercAcc = append(out.PercAcc, pres.FinalAccuracy())
	}
	return out, nil
}
