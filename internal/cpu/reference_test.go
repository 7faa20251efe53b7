package cpu

// The fused per-access loops that Run and RunFunctional were before the
// capture/replay split, kept verbatim (renamed) as the reference the engine
// is checked against: one pass through cache.Hierarchy.Access per access,
// L1, L2 and LLC together.

import (
	"context"
	"fmt"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/trace"
)

// refRun executes the trace against the hierarchy with full timing. The first
// warmup accesses train caches and predictors without counting toward the
// reported statistics. The hierarchy must have at least as many cores as
// the trace references. Cancelling ctx aborts the run within a few thousand
// accesses, returning the context's error; an uncancelled run is
// bit-identical for any ctx.
func refRun(ctx context.Context, t *trace.Trace, h *cache.Hierarchy, d *dram.DRAM, cfg CoreConfig, warmup int) (Result, error) {
	if warmup < 0 || warmup > t.Len() {
		return Result{}, fmt.Errorf("cpu: warmup %d out of range for trace of %d accesses", warmup, t.Len())
	}
	cores := make([]*coreState, h.Cores())
	for i := range cores {
		cores[i] = newCoreState(cfg)
	}
	cyclesPerAccess := cfg.InstrPerAccess / float64(cfg.Width)

	measuring := false
	var measureStart []float64
	var measureAccesses []float64

	for i, a := range t.Accesses {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if !measuring && i >= warmup {
			measuring = true
			h.ResetStats()
			measureStart = make([]float64, len(cores))
			measureAccesses = make([]float64, len(cores))
			for c, cs := range cores {
				measureStart[c] = cs.clock
			}
		}
		core := int(a.Core)
		if core >= len(cores) {
			core = 0
			a.Core = 0
		}
		cs := cores[core]

		res := h.Access(a)

		// Issue time: front-end pace plus ROB back-pressure from the access
		// that must retire to free the slot.
		issue := cs.clock
		if old := cs.completions[cs.robHead]; old > issue {
			issue = old
		}

		var done float64
		switch res.HitLevel {
		case cache.LevelL1:
			done = issue + float64(cache.L1DConfig.LatencyCycles)
		case cache.LevelL2:
			done = issue + float64(cache.L1DConfig.LatencyCycles+cache.L2Config.LatencyCycles)
		case cache.LevelLLC:
			done = issue + float64(cache.L1DConfig.LatencyCycles+cache.L2Config.LatencyCycles+h.LLC().Config().LatencyCycles)
		default: // DRAM
			reqStart := issue + float64(cache.L1DConfig.LatencyCycles+cache.L2Config.LatencyCycles+h.LLC().Config().LatencyCycles)
			// MSHR limit: wait for the oldest outstanding DRAM miss.
			if old := cs.dramRing[cs.dramHead]; old > reqStart {
				reqStart = old
			}
			done = d.Access(a.Block(), false, reqStart)
			cs.dramRing[cs.dramHead] = done
			cs.dramHead = (cs.dramHead + 1) % len(cs.dramRing)
		}
		if res.DRAMWriteback {
			d.Access(res.WritebackBlock, true, done)
		}

		cs.completions[cs.robHead] = done
		cs.robHead = (cs.robHead + 1) % len(cs.completions)
		cs.clock = issue + cyclesPerAccess
		if done > cs.finish {
			cs.finish = done
		}
		if measuring {
			measureAccesses[core]++
		}
		cs.accesses++
	}

	var out Result
	out.PerCoreIPC = make([]float64, len(cores))
	var totalInstr, maxCycles float64
	for c, cs := range cores {
		cycles := cs.finish
		if measuring {
			cycles -= measureStart[c]
		}
		if cycles <= 0 {
			cycles = 1
		}
		instr := measureAccesses[c] * cfg.InstrPerAccess
		out.PerCoreIPC[c] = instr / cycles
		totalInstr += instr
		if cycles > maxCycles {
			maxCycles = cycles
		}
	}
	out.Cycles = maxCycles
	out.Instructions = totalInstr
	if maxCycles > 0 {
		out.IPC = totalInstr / maxCycles
	}
	out.LLC = h.LLC().Stats()
	out.DRAM = d.Stats()
	return out, nil
}

// refRunFunctional executes the trace without timing, optionally collecting
// the LLC access stream and per-access predictions. Cancelling ctx aborts
// the run within a few thousand accesses (see Run).
func refRunFunctional(ctx context.Context, t *trace.Trace, h *cache.Hierarchy, warmup int, collect bool) (FunctionalResult, error) {
	if warmup < 0 || warmup > t.Len() {
		return FunctionalResult{}, fmt.Errorf("cpu: warmup %d out of range for trace of %d accesses", warmup, t.Len())
	}
	var out FunctionalResult
	predictor, hasPredictor := h.LLC().Policy().(FriendlyPredictor)
	if collect {
		// No capacity hint: observed LLC-access rates on the registered
		// workloads span 60–100% of the trace, so any fixed guess either
		// wastes half the allocation or forces an immediate regrow; append's
		// geometric growth handles the spread better.
		out.LLCStream = trace.New(t.Name+".llc", 0)
	}
	for i, a := range t.Accesses {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return FunctionalResult{}, err
			}
		}
		if i == warmup {
			h.ResetStats()
		}
		core := int(a.Core)
		if core >= h.Cores() {
			a.Core = 0
		}
		var predicted bool
		if collect && hasPredictor {
			predicted = predictor.PredictFriendly(a.PC, a.Core)
		}
		res := h.Access(a)
		if collect && res.LLCAccessed && i >= warmup {
			out.LLCStream.Append(a)
			if hasPredictor {
				out.Predictions = append(out.Predictions, predicted)
			}
		}
	}
	out.LLC = h.LLC().Stats()
	return out, nil
}
