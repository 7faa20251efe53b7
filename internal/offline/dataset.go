// Package offline implements the paper's offline learning pipeline (§4, §5.2):
// building labeled datasets of LLC accesses from traces (oracle labels from
// Belady's MIN), slicing them into overlapping warmup+predict sequences for
// the attention LSTM, extracting ordered and unordered history features for
// the linear baselines, and the analysis experiments (attention CDFs and
// heatmaps, the shuffle test, convergence and history-length sweeps, and the
// Table 4 anchor-PC study).
package offline

import (
	"context"
	"fmt"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/glider"
	"glider/internal/ml"
	"glider/internal/opt"
	"glider/internal/workload"
)

// Dataset is a labeled LLC access stream: the offline-training artifact the
// paper's §5.1 "Settings for Offline Evaluation" describes — one
// (PC, optimal decision) tuple per LLC access.
type Dataset struct {
	// Name identifies the source benchmark.
	Name string
	// PCs holds the PC of each LLC access.
	PCs []uint64
	// Blocks holds the block address of each access (used by
	// multiperspective features that look beyond control flow).
	Blocks []uint64
	// Tokens holds the vocabulary index of each PC.
	Tokens []int
	// Labels holds the Belady oracle decision for each access: true =
	// cache-friendly.
	Labels []bool
	// Vocab maps token index back to PC.
	Vocab []uint64
	// TrainEnd splits the stream: [0, TrainEnd) trains, [TrainEnd, len)
	// tests (the paper's 75/25 split).
	TrainEnd int
}

// Len returns the number of labeled accesses.
func (d *Dataset) Len() int { return len(d.Tokens) }

// FriendlyFraction returns the fraction of cache-friendly labels — useful
// as the majority-class baseline accuracy.
func (d *Dataset) FriendlyFraction() float64 {
	if len(d.Labels) == 0 {
		return 0
	}
	n := 0
	for _, l := range d.Labels {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(d.Labels))
}

// splitFraction is the paper's train/test split.
const splitFraction = 0.75

// tailDropFraction excludes the final portion of the labeled stream from
// the dataset: Belady labels there are truncated (a block's next use may
// lie beyond the end of the trace, mislabeling it cache-averse). The
// paper's 250M-instruction windows dwarf its reuse distances so the effect
// is negligible there; at simulation scale it is not.
const tailDropFraction = 0.2

// BuildDataset takes the benchmark trace from the shared store, takes the
// LLC access stream from the trace's shared L1/L2 capture (cpu.SharedCapture,
// the same one every simulation of the trace replays), and labels that
// stream with exact Belady MIN decisions for the Table 1 LLC geometry.
func BuildDataset(spec workload.Spec, accesses int, seed int64) (*Dataset, error) {
	c, err := cpu.SharedCapture(context.Background(), spec, accesses, seed, 1)
	if err != nil {
		return nil, err
	}
	name, llcStream := c.Trace().Name, c.LLCStream()
	if llcStream.Len() == 0 {
		return nil, fmt.Errorf("offline: trace %q produced no LLC accesses", name)
	}
	labels := opt.LabelTrace(llcStream, cache.LLCConfig.Sets, cache.LLCConfig.Ways)
	usable := int(float64(llcStream.Len()) * (1 - tailDropFraction))
	llcStream = llcStream.Slice(0, usable)

	d := &Dataset{Name: name}
	index := make(map[uint64]int)
	for i, a := range llcStream.Accesses {
		tok, ok := index[a.PC]
		if !ok {
			tok = len(d.Vocab)
			index[a.PC] = tok
			d.Vocab = append(d.Vocab, a.PC)
		}
		d.PCs = append(d.PCs, a.PC)
		d.Blocks = append(d.Blocks, a.Block())
		d.Tokens = append(d.Tokens, tok)
		d.Labels = append(d.Labels, labels[i])
	}
	d.TrainEnd = int(float64(d.Len()) * splitFraction)
	return d, nil
}

// Sequence is one 2N-length slice for sequence labeling: the first
// PredictFrom steps are warmup context, the rest are predicted (§4.1).
type Sequence struct {
	// Tokens and Labels cover the whole 2N window.
	Tokens []int
	Labels []bool
	// PredictFrom is N, the first predicted index.
	PredictFrom int
	// Start is the dataset index of Tokens[0].
	Start int
}

// Sequences slices the train (train=true) or test region into overlapping
// sequences of length 2n with stride n, as §4.1 prescribes. n must be
// positive.
func (d *Dataset) Sequences(n int, train bool) []Sequence {
	lo, hi := 0, d.TrainEnd
	if !train {
		lo, hi = d.TrainEnd, d.Len()
	}
	var out []Sequence
	for start := lo; start+2*n <= hi; start += n {
		out = append(out, Sequence{
			Tokens:      d.Tokens[start : start+2*n],
			Labels:      d.Labels[start : start+2*n],
			PredictFrom: n,
			Start:       start,
		})
	}
	return out
}

// UniqueHistories computes, for every access, the ISVM's k-sparse
// unordered feature: the last k unique PCs seen before the access, read
// from a glider.PCHR (snapshot, then observe), each at Pos 0. k must be
// positive.
func (d *Dataset) UniqueHistories(k int) [][]ml.Feature {
	out := make([][]ml.Feature, len(d.PCs))
	pchr := glider.NewPCHR(k)
	for i, pc := range d.PCs {
		hist := pchr.Snapshot()
		feats := make([]ml.Feature, len(hist))
		for j, p := range hist {
			feats[j] = ml.Feature{PC: p}
		}
		out[i] = feats
		pchr.Observe(pc)
	}
	return out
}

// OrderedHistories computes, for every access, the Perceptron's ordered
// feature: the last h PCs before the access with repetition, the most
// recent at Pos 0.
func (d *Dataset) OrderedHistories(h int) [][]ml.Feature {
	out := make([][]ml.Feature, len(d.PCs))
	for i := range d.PCs {
		hist := make([]ml.Feature, 0, h)
		for j := i - 1; j >= 0 && len(hist) < h; j-- {
			hist = append(hist, ml.Feature{Pos: len(hist), PC: d.PCs[j]})
		}
		out[i] = hist
	}
	return out
}
