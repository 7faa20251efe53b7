// Package cpu provides the processor timing model used to turn cache
// behaviour into performance numbers: a trace-driven core with a
// ROB-limited memory-level-parallelism window, the Table 1 cache latencies,
// and the dram package's bandwidth model. It also provides the functional
// (timing-free) runner used for miss-rate and predictor-accuracy studies,
// and the weighted-speedup methodology of §5.1 for multi-core runs.
package cpu

import (
	"context"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/trace"
)

// cancelCheckMask gates the simulation loops' context polls: ctx.Err() is
// checked every cancelCheckMask+1 accesses, so cancellation latency is a few
// thousand accesses (microseconds) while the hot path pays one mask-and-test
// per access. The checks never alter the computation, so a run that is not
// cancelled is bit-identical to one executed without a deadline.
const cancelCheckMask = 8191

// CoreConfig parameterizes the core model (§5.1: 4-wide OOO, 8-stage,
// 128-entry ROB).
type CoreConfig struct {
	// Width is the issue width.
	Width int
	// ROBSize is the reorder-buffer capacity in instructions.
	ROBSize int
	// InstrPerAccess is the average number of instructions between memory
	// accesses in the trace (traces record only memory accesses).
	InstrPerAccess float64
	// MSHRs bounds outstanding DRAM misses per core.
	MSHRs int
}

// DefaultCoreConfig matches the paper's simulated core.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{Width: 4, ROBSize: 128, InstrPerAccess: 8, MSHRs: 16}
}

// Result reports one simulation run.
type Result struct {
	// Cycles is the total execution time in CPU cycles.
	Cycles float64
	// Instructions is the modeled instruction count.
	Instructions float64
	// IPC is Instructions / Cycles.
	IPC float64
	// PerCoreIPC is the per-core IPC for multi-core runs.
	PerCoreIPC []float64
	// LLC is the post-warmup LLC statistics.
	LLC cache.Stats
	// DRAM is the post-warmup DRAM statistics.
	DRAM dram.Stats
}

// coreState tracks one core's in-flight accesses.
type coreState struct {
	clock       float64   // next issue cycle
	completions []float64 // ring of recent access completion times (ROB)
	robHead     int
	dramRing    []float64 // ring of recent DRAM completion times (MSHRs)
	dramHead    int
	accesses    float64
	finish      float64
}

func newCoreState(cfg CoreConfig) *coreState {
	robWindow := int(float64(cfg.ROBSize)/cfg.InstrPerAccess + 0.5)
	if robWindow < 1 {
		robWindow = 1
	}
	return &coreState{
		completions: make([]float64, robWindow),
		dramRing:    make([]float64, cfg.MSHRs),
	}
}

// Run executes the trace against the hierarchy with full timing. The first
// warmup accesses train caches and predictors without counting toward the
// reported statistics. The hierarchy must have at least as many cores as
// the trace references. It captures the trace through h's own L1/L2, whose
// statistics end as if every access had gone through h.Access, and replays
// the LLC events on h's LLC; see engine.go. Cancelling ctx aborts the run
// within a few thousand accesses, returning the context's error; an
// uncancelled run is bit-identical for any ctx.
func Run(ctx context.Context, t *trace.Trace, h *cache.Hierarchy, d *dram.DRAM, cfg CoreConfig, warmup int) (Result, error) {
	if err := checkWarmup(t, warmup); err != nil {
		return Result{}, err
	}
	c, err := captureHierarchy(ctx, t, h, warmup)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, h.LLC(), d, cfg, warmup)
}

// FunctionalResult reports a timing-free run.
type FunctionalResult struct {
	// LLC is the post-warmup LLC statistics.
	LLC cache.Stats
	// LLCStream is the post-warmup sequence of accesses that reached the
	// LLC (the stream replacement predictors operate on), when requested.
	LLCStream *trace.Trace
	// Predictions records, for each LLCStream access, the policy's
	// friendly/averse prediction at access time, when the policy exposes
	// one.
	Predictions []bool
}

// RunFunctional executes the trace without timing, optionally collecting
// the LLC access stream and per-access predictions, as capture-then-replay
// over h (see Run). Cancelling ctx aborts the run within a few thousand
// accesses.
func RunFunctional(ctx context.Context, t *trace.Trace, h *cache.Hierarchy, warmup int, collect bool) (FunctionalResult, error) {
	if err := checkWarmup(t, warmup); err != nil {
		return FunctionalResult{}, err
	}
	c, err := captureHierarchy(ctx, t, h, warmup)
	if err != nil {
		return FunctionalResult{}, err
	}
	return c.RunFunctional(ctx, h.LLC(), warmup, collect)
}
