package cpu

import (
	"context"
	"fmt"
	"sync"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// BuildHierarchy constructs the Table 1 hierarchy with the named LLC
// replacement policy (upper levels always use LRU). For cores > 1 the LLC
// is the shared 8 MB configuration.
func BuildHierarchy(cores int, policyName string) (*cache.Hierarchy, error) {
	llcCfg, p, err := llcPolicy(cores, policyName)
	if err != nil {
		return nil, err
	}
	return cache.NewHierarchy(cores, llcCfg, p)
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

// LLCPool is a free list of LLCs, keyed by core count and policy name, for
// a batch of simulations that replay many traces on each policy, such as a
// policy × workload grid. A simulation takes a free LLC and resets it in
// place, or builds one with BuildLLC when none is free, and gives it back
// when it ends. A reset LLC is in exactly the state BuildLLC builds
// (cache.Cache.Reset), so a result never depends on which LLC a simulation
// got. A pool holds about one LLC per policy per concurrent simulation, and
// it is meant for one batch: dropping it frees them all. The nil pool
// builds a fresh LLC for every simulation. A pool is safe for concurrent
// use.
type LLCPool struct {
	mu   sync.Mutex
	free map[llcKey][]*cache.Cache
}

type llcKey struct {
	cores  int
	policy string
}

// NewLLCPool returns an empty pool.
func NewLLCPool() *LLCPool { return &LLCPool{free: make(map[llcKey][]*cache.Cache)} }

// get returns an LLC as BuildLLC(cores, policyName) would build it.
func (p *LLCPool) get(cores int, policyName string) (*cache.Cache, error) {
	if p == nil {
		return BuildLLC(cores, policyName)
	}
	k := llcKey{cores, policyName}
	p.mu.Lock()
	var llc *cache.Cache
	if n := len(p.free[k]); n > 0 {
		llc = p.free[k][n-1]
		p.free[k] = p.free[k][:n-1]
	}
	p.mu.Unlock()
	if llc == nil {
		return BuildLLC(cores, policyName)
	}
	llc.Reset()
	return llc, nil
}

// put gives back an LLC that get returned for the same cores and
// policyName. The caller must not use it afterwards.
func (p *LLCPool) put(cores int, policyName string, llc *cache.Cache) {
	if p == nil {
		return
	}
	k := llcKey{cores, policyName}
	p.mu.Lock()
	p.free[k] = append(p.free[k], llc)
	p.mu.Unlock()
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

// SingleCore runs one benchmark with one policy and full timing, warming up
// on the first fifth of the trace (mirroring the paper's 200M-of-1B warmup).
// It replays the trace's shared capture (SharedCapture) on a fresh LLC, so
// the L1/L2 filter runs once per trace however many policies a sweep runs.
// Cancelling ctx aborts the simulation promptly (see Run).
func SingleCore(ctx context.Context, spec workload.Spec, policyName string, accesses int, seed int64) (Result, error) {
	return replayShared(ctx, nil, spec, 1, policyName, accesses, seed, dram.SingleCoreConfig())
}

// SingleCore is the package-level SingleCore on an LLC from the pool, given
// back when the run ends. Its result is the package-level one, bit for bit.
func (p *LLCPool) SingleCore(ctx context.Context, spec workload.Spec, policyName string, accesses int, seed int64) (Result, error) {
	return replayShared(ctx, p, spec, 1, policyName, accesses, seed, dram.SingleCoreConfig())
}

// replayShared replays the shared capture of (spec, accesses, seed) on a
// cores-core LLC from pool and a fresh DRAM model with full timing.
func replayShared(ctx context.Context, pool *LLCPool, spec workload.Spec, cores int, policyName string, accesses int, seed int64, dcfg dram.Config) (Result, error) {
	c, err := SharedCapture(ctx, spec, accesses, seed, cores)
	if err != nil {
		return Result{}, err
	}
	return replay(ctx, pool, c, policyName, dcfg, accesses/5)
}

// replay replays c with full timing on an LLC from pool for c's core count,
// running the named policy, and a fresh DRAM model. A run that panics does
// not give its LLC back.
func replay(ctx context.Context, pool *LLCPool, c *Capture, policyName string, dcfg dram.Config, warmup int) (Result, error) {
	llc, err := pool.get(c.cores, policyName)
	if err != nil {
		return Result{}, err
	}
	res, err := c.Run(ctx, llc, dram.New(dcfg), DefaultCoreConfig(), warmup)
	pool.put(c.cores, policyName, llc)
	return res, err
}

// CoreSeed is the seed of core's trace in a mix run seeded seed. Core i of
// a mix runs on it, and core i's solo baseline must replay that same trace.
func CoreSeed(seed int64, core int) int64 {
	return seed + int64(core)
}

// MixCapture interleaves the stored traces of mix's members, core i's
// seeded CoreSeed(seed, i), and captures the merged trace through one
// private L1/L2 pair per member. MultiCore replays it for every policy.
// Unlike SharedCapture, it is not kept in the trace store: the caller holds
// it for as long as its policies replay it.
func MixCapture(ctx context.Context, mix workload.Mix, accessesPerCore int, seed int64) (*Capture, error) {
	perCore := make([]*trace.Trace, len(mix.Members))
	for i, spec := range mix.Members {
		t, err := workload.SharedE(spec, accessesPerCore, CoreSeed(seed, i))
		if err != nil {
			return nil, err
		}
		perCore[i] = t
	}
	return NewCapture(ctx, trace.Interleave(fmt.Sprintf("mix%d", mix.ID), perCore...), len(mix.Members))
}

// MultiCore replays a mix's capture (MixCapture) on a fresh shared LLC
// running the named policy, with the 4-core DRAM model and full timing,
// warming up on the first fifth of the merged trace, and returns the
// per-core IPCs.
func MultiCore(ctx context.Context, c *Capture, policyName string) (Result, error) {
	return replay(ctx, nil, c, policyName, dram.QuadCoreConfig(), c.Trace().Len()/5)
}

// SoloOnShared runs one benchmark alone on the multi-core configuration
// (shared LLC geometry and 12.8 GB/s DRAM): the IPCsingle baseline of §5.1,
// which is defined as "executing in isolation on the same cache". Like
// SingleCore it replays the trace's shared capture.
func SoloOnShared(ctx context.Context, spec workload.Spec, cores int, policyName string, accesses int, seed int64) (Result, error) {
	return replayShared(ctx, nil, spec, cores, policyName, accesses, seed, dram.QuadCoreConfig())
}

// WeightedSpeedup computes the §5.1 weighted-IPC metric for a mix under one
// policy: Σ_i IPCshared_i / IPCsingle_i, where IPCsingle_i is benchmark i
// running alone on the same shared cache with the same policy.
func WeightedSpeedup(ctx context.Context, mix workload.Mix, policyName string, accessesPerCore int, seed int64) (float64, error) {
	c, err := MixCapture(ctx, mix, accessesPerCore, seed)
	if err != nil {
		return 0, err
	}
	shared, err := MultiCore(ctx, c, policyName)
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
