package estimate

import (
	"context"
	"sync"

	"glider/internal/policy"
)

// The process-wide default estimator backs /v1/estimate and
// experiments.RunEstimateCell. It trains lazily, once per process, on a
// fixed grid with a fixed seed — and because training is deterministic end
// to end, every process arrives at the bit-identical model. That is what
// makes /v1/estimate responses byte-identical across a direct run, a
// single gliderd node, and the gateway path without shipping model files
// around.

// DefaultTrainConfig is the default estimator's training grid: the paper's
// offline-analysis benchmarks plus two more SPEC workloads for hull width,
// every registered policy, and two trace lengths so the hull spans a range
// of log2_accesses. Sized to train in a few seconds (it simulates
// len(Workloads) × len(AccessesList) × len(policy.Names()) short cells).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Workloads: []string{
			"astar", "lbm", "libquantum", "mcf",
			"milc", "omnetpp", "soplex", "sphinx3",
		},
		Policies:     policy.Names(),
		AccessesList: []int{6_000, 20_000},
		Seed:         9001,
	}
}

var defaultEst = sync.OnceValues(func() (*Estimator, error) {
	est, _, err := Train(context.Background(), DefaultTrainConfig())
	return est, err
})

// Default returns the lazily-trained process-wide estimator. The first call
// pays the training cost (a few seconds of short exact simulations); later
// calls are free. Concurrent callers share one training run. It is a memo of
// a pure function, so sharing it across callers cannot change a result.
func Default() (*Estimator, error) {
	return defaultEst()
}
