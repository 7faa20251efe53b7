package experiments

import (
	"context"
	"fmt"

	"glider/internal/estimate"
	"glider/internal/policy"
	"glider/internal/workload"
)

// EstimateResult is one /v1/estimate answer: either a surrogate prediction
// with explicit error bounds, or an exact simulation the confidence gate
// fell back to. Source says which; a surrogate number is never returned
// without its bound.
type EstimateResult struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Accesses int    `json:"accesses"`
	Seed     int64  `json:"seed"`
	// Source is "surrogate" or "exact-fallback".
	Source string `json:"source"`
	// Reason explains a fallback ("untrained-policy", "novel-features");
	// empty for surrogate answers.
	Reason      string  `json:"reason,omitempty"`
	IPC         float64 `json:"ipc"`
	LLCMissRate float64 `json:"llc_miss_rate"`
	// MissRateBound / IPCBound are the conformal error bounds on surrogate
	// answers (|reported − exact| ≤ bound under calibration); zero on exact
	// fallbacks, which carry no error at all.
	MissRateBound float64 `json:"llc_miss_rate_bound,omitempty"`
	IPCBound      float64 `json:"ipc_bound,omitempty"`
}

// Estimate sources.
const (
	SourceSurrogate     = "surrogate"
	SourceExactFallback = "exact-fallback"
)

// RunEstimateCell answers one estimate query with the process-wide default
// estimator: a surrogate prediction when the confidence gate accepts the
// (workload, policy, accesses) cell, an exact simulation otherwise. The
// first call per process trains the default estimator (a few seconds);
// every later call that stays on the surrogate path costs only trace
// generation plus feature extraction.
func RunEstimateCell(ctx context.Context, workloadName, policyName string, accesses int, seed int64) (EstimateResult, error) {
	est, err := estimate.Default()
	if err != nil {
		return EstimateResult{}, err
	}
	return runEstimateCellWith(ctx, est, workloadName, policyName, accesses, seed)
}

// runEstimateCellWith is RunEstimateCell against a caller-supplied model
// (the sweep pruner trains its own).
func runEstimateCellWith(ctx context.Context, est *estimate.Estimator, workloadName, policyName string, accesses int, seed int64) (EstimateResult, error) {
	spec, err := workload.Resolve(workloadName)
	if err != nil {
		return EstimateResult{}, err
	}
	if _, ok := policy.Registry[policyName]; !ok {
		return EstimateResult{}, fmt.Errorf("experiments: unknown policy %q", policyName)
	}
	t, err := workload.SharedE(spec, accesses, seed)
	if err != nil {
		return EstimateResult{}, err
	}
	pred := est.Predict(policyName, estimate.Features(t))
	if pred.Confident {
		return EstimateResult{
			Workload:      spec.Name,
			Policy:        policyName,
			Accesses:      accesses,
			Seed:          seed,
			Source:        SourceSurrogate,
			IPC:           pred.IPC,
			LLCMissRate:   pred.MissRate,
			MissRateBound: pred.MissBound,
			IPCBound:      pred.IPCBound,
		}, nil
	}
	exact, err := RunCell(ctx, workloadName, policyName, accesses, seed)
	if err != nil {
		return EstimateResult{}, err
	}
	return EstimateResult{
		Workload:    exact.Workload,
		Policy:      exact.Policy,
		Accesses:    exact.Accesses,
		Seed:        exact.Seed,
		Source:      SourceExactFallback,
		Reason:      pred.Reason,
		IPC:         exact.IPC,
		LLCMissRate: exact.LLCMissRate,
	}, nil
}
