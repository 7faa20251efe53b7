package cpu

import (
	"context"
	"fmt"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// BuildHierarchy constructs the Table 1 hierarchy with the named LLC
// replacement policy (upper levels always use LRU). For cores > 1 the LLC
// is the shared 8 MB configuration.
func BuildHierarchy(cores int, policyName string) (*cache.Hierarchy, error) {
	return BuildHierarchyObs(cores, policyName, ObsOptions{})
}

// ObsOptions selects what telemetry an instrumented hierarchy publishes.
// The zero value disables everything, which is exactly BuildHierarchy.
type ObsOptions struct {
	// Registry receives LLC and policy metrics when non-nil.
	Registry *obs.Registry
	// Sink receives per-event telemetry (sampled evictions, end-of-run
	// policy snapshots) when non-nil.
	Sink obs.Sink
	// PerPC enables the LLC observer's per-PC reuse outcome table.
	PerPC bool
	// SampleEvery emits every Nth LLC eviction to Sink (0 = none).
	SampleEvery uint64
}

// BuildHierarchyObs is BuildHierarchy plus observability: it attaches an
// LLC observer and, for policies that implement obs.Attacher (Hawkeye,
// Glider), their predictor telemetry. With a zero ObsOptions the hierarchy
// is indistinguishable from an uninstrumented one.
func BuildHierarchyObs(cores int, policyName string, oo ObsOptions) (*cache.Hierarchy, error) {
	llcCfg, p, err := llcPolicy(cores, policyName)
	if err != nil {
		return nil, err
	}
	if a, ok := p.(obs.Attacher); ok && (oo.Registry != nil || oo.Sink != nil) {
		a.AttachObs(oo.Registry, oo.Sink)
	}
	// nil upper factory selects the specialized fast LRU path for L1/L2 —
	// bit-identical to policy.NewLRU (see cache/fastlru.go and the
	// equivalence suite in equivalence_test.go) without per-access policy
	// dispatch.
	h, err := cache.NewHierarchy(cores, llcCfg, p, nil)
	if err != nil {
		return nil, err
	}
	if o := cache.NewObserver(oo.Registry, oo.Sink, llcCfg, cache.ObserverOptions{PerPC: oo.PerPC, SampleEvery: oo.SampleEvery}); o != nil {
		h.LLC().AttachObserver(o)
	}
	return h, nil
}

// BuildLLC builds the LLC alone, exactly as BuildHierarchy would: the
// single-core 2 MB configuration, or the shared 8 MB one for cores > 1,
// running the named policy. A Capture replays on it.
func BuildLLC(cores int, policyName string) (*cache.Cache, error) {
	cfg, p, err := llcPolicy(cores, policyName)
	if err != nil {
		return nil, err
	}
	return cache.New(cfg, p)
}

// llcPolicy returns the LLC geometry for cores and the named policy sized
// for it.
func llcPolicy(cores int, policyName string) (cache.Config, cache.Policy, error) {
	llcCfg := cache.LLCConfig
	if cores > 1 {
		llcCfg = cache.SharedLLCConfig4
	}
	p, ok := policy.New(policyName, llcCfg.Sets, llcCfg.Ways)
	if !ok {
		return cache.Config{}, nil, fmt.Errorf("cpu: unknown policy %q", policyName)
	}
	return llcCfg, p, nil
}

// captureID names, in a trace's store entry, its capture through the
// private L1/L2 of a cores-core hierarchy.
type captureID struct{ cores int }

// SharedCapture returns the capture of the stored trace for (spec, n, seed)
// through a cores-core hierarchy's L1/L2. The capture is built lazily, once,
// the first time any caller asks, and kept in the trace's entry of
// workload.DefaultStore: it counts toward the store's bound and is dropped
// with the trace. A build cancelled through ctx is not kept.
func SharedCapture(ctx context.Context, spec workload.Spec, n int, seed int64, cores int) (*Capture, error) {
	return storeCapture(ctx, workload.DefaultStore, spec, n, seed, cores)
}

// storeCapture is SharedCapture on an explicit store.
func storeCapture(ctx context.Context, store *workload.Store, spec workload.Spec, n int, seed int64, cores int) (*Capture, error) {
	_, v, err := store.Derive(ctx, spec, n, seed, captureID{cores}, func(ctx context.Context, t *trace.Trace) (workload.Derived, error) {
		c, err := NewCapture(ctx, t, cores)
		if err != nil {
			return nil, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Capture), nil
}

// FlushHierarchyObs emits end-of-run telemetry for policies that buffer it
// (e.g. Glider's ISVM weight snapshot). Call once after the run completes.
func FlushHierarchyObs(h *cache.Hierarchy) {
	if f, ok := h.LLC().Policy().(obs.Flusher); ok {
		f.FlushObs()
	}
}

// SingleCore runs one benchmark with one policy and full timing, warming up
// on the first fifth of the trace (mirroring the paper's 200M-of-1B warmup).
// It replays the trace's shared capture (SharedCapture) on a fresh LLC, so
// the L1/L2 filter runs once per trace however many policies a sweep runs.
// Cancelling ctx aborts the simulation promptly (see Run).
func SingleCore(ctx context.Context, spec workload.Spec, policyName string, accesses int, seed int64) (Result, error) {
	return replayShared(ctx, spec, 1, policyName, accesses, seed, dram.SingleCoreConfig())
}

// replayShared replays the shared capture of (spec, accesses, seed) on a
// fresh cores-core LLC and DRAM model with full timing.
func replayShared(ctx context.Context, spec workload.Spec, cores int, policyName string, accesses int, seed int64, dcfg dram.Config) (Result, error) {
	c, err := SharedCapture(ctx, spec, accesses, seed, cores)
	if err != nil {
		return Result{}, err
	}
	llc, err := BuildLLC(cores, policyName)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, llc, dram.New(dcfg), DefaultCoreConfig(), accesses/5)
}

// CoreSeed is the seed of core's trace in a mix run seeded seed. MultiCore
// runs core i on it, and core i's solo baseline must replay that same trace.
func CoreSeed(seed int64, core int) int64 {
	return seed + int64(core)
}

// MultiCore runs a workload mix on a shared LLC with full timing and
// returns the per-core IPCs.
func MultiCore(ctx context.Context, mix workload.Mix, policyName string, accessesPerCore int, seed int64) (Result, error) {
	cores := len(mix.Members)
	perCore := make([]*trace.Trace, cores)
	for i, spec := range mix.Members {
		t, err := workload.SharedE(spec, accessesPerCore, CoreSeed(seed, i))
		if err != nil {
			return Result{}, err
		}
		perCore[i] = t
	}
	merged := trace.Interleave(fmt.Sprintf("mix%d", mix.ID), perCore...)
	h, err := BuildHierarchy(cores, policyName)
	if err != nil {
		return Result{}, err
	}
	d := dram.New(dram.QuadCoreConfig())
	return Run(ctx, merged, h, d, DefaultCoreConfig(), merged.Len()/5)
}

// SoloOnShared runs one benchmark alone on the multi-core configuration
// (shared LLC geometry and 12.8 GB/s DRAM): the IPCsingle baseline of §5.1,
// which is defined as "executing in isolation on the same cache". Like
// SingleCore it replays the trace's shared capture.
func SoloOnShared(ctx context.Context, spec workload.Spec, cores int, policyName string, accesses int, seed int64) (Result, error) {
	return replayShared(ctx, spec, cores, policyName, accesses, seed, dram.QuadCoreConfig())
}

// WeightedSpeedup computes the §5.1 weighted-IPC metric for a mix under one
// policy: Σ_i IPCshared_i / IPCsingle_i, where IPCsingle_i is benchmark i
// running alone on the same shared cache with the same policy.
func WeightedSpeedup(ctx context.Context, mix workload.Mix, policyName string, accessesPerCore int, seed int64) (float64, error) {
	shared, err := MultiCore(ctx, mix, policyName, accessesPerCore, seed)
	if err != nil {
		return 0, err
	}
	solo := make([]float64, len(mix.Members))
	for i, spec := range mix.Members {
		res, err := SoloOnShared(ctx, spec, len(mix.Members), policyName, accessesPerCore, CoreSeed(seed, i))
		if err != nil {
			return 0, err
		}
		solo[i] = res.IPC
	}
	return Weighted(mix, shared, solo)
}

// Weighted reduces a mix's shared run to the §5.1 metric,
// Σ_i shared.PerCoreIPC[i] / solo[i], where solo[i] is the IPC of core i's
// benchmark alone on the same cache with the same policy, replaying the
// trace seeded CoreSeed(seed, i).
func Weighted(mix workload.Mix, shared Result, solo []float64) (float64, error) {
	sum := 0.0
	for i, spec := range mix.Members {
		if solo[i] <= 0 {
			return 0, fmt.Errorf("cpu: zero single-core IPC for %s", spec.Name)
		}
		sum += shared.PerCoreIPC[i] / solo[i]
	}
	return sum, nil
}
