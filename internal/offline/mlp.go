package offline

import (
	"glider/internal/ml"
)

// Multiperspective deep model: the paper's future-work suggestion (§2.1) of
// feeding MPPPB-style features into a neural network rather than a linear
// perceptron. Features combine the current PC, the unordered unique-PC
// history (Glider's feature), the ordered recent history (Perceptron's
// feature), and address-derived perspectives (MPPPB's extra features).

// mlpFeatureSpace is the hashed feature-index space.
const mlpFeatureSpace = 4096

func mlpHash(x uint64, salt uint64) int {
	x ^= salt
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % mlpFeatureSpace)
}

// MultiperspectiveFeatures builds the sparse binary feature set for access
// i of the dataset: current PC, the k-sparse unordered history, the first
// three ordered history positions, and (when addresses are available) the
// block's region and a PC⊕address cross feature.
func (d *Dataset) MultiperspectiveFeatures(k int) [][]int {
	unique := d.UniqueHistories(k)
	ordered := d.OrderedHistories(3)
	out := make([][]int, len(d.PCs))
	for i, pc := range d.PCs {
		var f []int
		f = append(f, mlpHash(pc, 0x01))
		for _, h := range unique[i] {
			f = append(f, mlpHash(h.PC, 0x02))
		}
		for _, h := range ordered[i] {
			f = append(f, mlpHash(h.PC*31+uint64(h.Pos), 0x03))
		}
		if i < len(d.Blocks) {
			b := d.Blocks[i]
			f = append(f, mlpHash(b>>12, 0x04))     // 256 KB region
			f = append(f, mlpHash(pc^(b>>6), 0x05)) // PC ⊕ address
		}
		out[i] = f
	}
	return out
}

// MLPOptions sizes the multiperspective MLP study.
type MLPOptions struct {
	// Hidden is the hidden-layer width.
	Hidden int
	// K is the unordered-history length fed to the feature builder.
	K int
	// Epochs is the number of passes over the training region.
	Epochs int
	// MaxTrainSamples caps samples per epoch (0 = all).
	MaxTrainSamples int
	// LR is the MLP's sparse SGD step size.
	LR float64
	// Seed controls initialization.
	Seed int64
}

// DefaultMLPOptions returns the harness defaults.
func DefaultMLPOptions() MLPOptions {
	return MLPOptions{Hidden: 32, K: 5, Epochs: 3, MaxTrainSamples: 60000, LR: 0.003, Seed: 1}
}

// TrainMLPOffline trains the multiperspective MLP and records per-epoch
// test accuracy. opts.K must be at least 1.
func TrainMLPOffline(d *Dataset, opts MLPOptions) (*ml.MLP, TrainResult, error) {
	if opts.Hidden == 0 {
		opts = DefaultMLPOptions()
	}
	if err := checkHistoryLen("multiperspective-mlp", opts.K); err != nil {
		return nil, TrainResult{}, err
	}
	m, err := ml.NewMLP(mlpFeatureSpace, opts.Hidden, opts.LR, opts.Seed)
	if err != nil {
		return nil, TrainResult{}, err
	}
	features := d.MultiperspectiveFeatures(opts.K)
	res := TrainResult{Model: "multiperspective-mlp"}
	stride := 1
	if opts.MaxTrainSamples > 0 && d.TrainEnd > opts.MaxTrainSamples {
		stride = d.TrainEnd/opts.MaxTrainSamples + 1
	}
	for e := 0; e < opts.Epochs; e++ {
		// Offset the strided pass per epoch so successive epochs see
		// different samples.
		for i := e % stride; i < d.TrainEnd; i += stride {
			m.TrainSample(features[i], d.Labels[i])
		}
		res.EpochAccuracy = append(res.EpochAccuracy, testAccuracy(d, func(i int) bool { return m.Predict(features[i]) }))
	}
	return m, res, nil
}
