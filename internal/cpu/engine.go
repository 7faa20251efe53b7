package cpu

// One-pass engine: capture the L1/L2 outcome once, replay LLC events per
// policy.
//
// Nothing flows from the LLC back into the private L1/L2 caches: there is no
// inclusion and no back-invalidation, and writebacks travel strictly
// downward. Where each access hits above the LLC, and which writebacks the
// L2 sends down, is therefore a function of the trace alone. A Capture
// records that outcome once per trace; Run and RunFunctional then replay
// only the LLC events on one policy's LLC and drive the timing model from
// the recorded levels. Within one access the LLC sees, in order:
//
//  1. the L2 victim of an L1 writeback;
//  2. the L2 demand victim;
//  3. the demand access itself.
//
// These are exactly the calls cache.Hierarchy.Access makes, so a replay is
// bit-identical to the fused per-access loop (pinned by the reference suite
// in reference_test.go and FuzzReplayMatchesReference).

import (
	"context"
	"fmt"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/trace"
)

// Capture byte layout, one byte per trace access: bits 0-1 hold where the
// access was satisfied above the LLC, bits 2-3 how many writebacks it sent
// to the LLC ahead of its demand access (at most two: the L2 victims of an
// L1 writeback and of the L2 demand fill).
const (
	upperL1   uint8 = 0 // L1 hit; an L1 hit evicts nothing, so the byte is 0
	upperL2   uint8 = 1 // L2 hit
	upperLLC  uint8 = 2 // missed both: a demand access to the LLC
	levelMask uint8 = 3
	wbShift         = 2
)

// writebackBytes is the in-memory size of one llcWriteback (two uint64 and
// a uint8, padded), used for the store's capacity accounting.
const writebackBytes = 24

// llcWriteback is a dirty L2 victim on its way to the LLC.
type llcWriteback struct {
	pc, block uint64
	core      uint8
}

// Capture is one trace's pass through the private L1/L2 caches of a
// cores-core hierarchy: for every access, whether it hit in L1 or L2 or went
// on to the LLC, plus the writebacks that reach the LLC, in order. It is the
// same whatever policy the LLC runs, so one capture serves every policy. A
// Capture is immutable once built and safe to share between goroutines.
type Capture struct {
	t      *trace.Trace
	cores  int
	levels []uint8
	wbs    []llcWriteback
}

// NewCapture runs t through fresh private L1/L2 caches (the fast LRU path),
// one pair per core, folding accesses of cores beyond cores onto core 0 as
// Run does. Cancelling ctx aborts the capture within a few thousand
// accesses.
func NewCapture(ctx context.Context, t *trace.Trace, cores int) (*Capture, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cpu: cores must be positive, got %d", cores)
	}
	l1 := make([]*cache.Cache, cores)
	l2 := make([]*cache.Cache, cores)
	for i := range l1 {
		l1[i] = cache.MustNewUpperLRU(cache.L1DConfig)
		l2[i] = cache.MustNewUpperLRU(cache.L2Config)
	}
	return capture(ctx, t, l1, l2, -1)
}

// captureHierarchy runs t through h's own L1/L2 caches, zeroing their
// statistics at access warmup as Hierarchy.ResetStats would.
func captureHierarchy(ctx context.Context, t *trace.Trace, h *cache.Hierarchy, warmup int) (*Capture, error) {
	l1 := make([]*cache.Cache, h.Cores())
	l2 := make([]*cache.Cache, h.Cores())
	for i := range l1 {
		l1[i], l2[i] = h.L1(i), h.L2(i)
	}
	return capture(ctx, t, l1, l2, warmup)
}

// capture is the one L1/L2 filter. It drives the caches exactly as
// cache.Hierarchy.Access does, recording instead of performing the LLC side.
func capture(ctx context.Context, t *trace.Trace, l1, l2 []*cache.Cache, warmup int) (*Capture, error) {
	c := &Capture{t: t, cores: len(l1), levels: make([]uint8, len(t.Accesses))}
	for i, a := range t.Accesses {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if i == warmup {
			for k := range l1 {
				l1[k].ResetStats()
				l2[k].ResetStats()
			}
		}
		core := int(a.Core)
		if core >= len(l1) {
			core = 0
			a.Core = 0
		}
		block := a.Block()
		var lv uint8

		r1 := l1[core].Access(a.PC, block, a.Core, a.Kind)
		if r1.WritebackNeeded {
			l := r1.EvictedLine
			if r := l2[core].Access(l.PC, l.Tag, l.Core, trace.Writeback); r.WritebackNeeded {
				c.addWriteback(r.EvictedLine)
				lv += 1 << wbShift
			}
		}
		if r1.Hit {
			continue
		}
		r2 := l2[core].Access(a.PC, block, a.Core, a.Kind)
		if r2.WritebackNeeded {
			c.addWriteback(r2.EvictedLine)
			lv += 1 << wbShift
		}
		if r2.Hit {
			c.levels[i] = lv | upperL2
		} else {
			c.levels[i] = lv | upperLLC
		}
	}
	return c, nil
}

func (c *Capture) addWriteback(l cache.Line) {
	c.wbs = append(c.wbs, llcWriteback{pc: l.PC, block: l.Tag, core: l.Core})
}

// Trace returns the captured trace.
func (c *Capture) Trace() *trace.Trace { return c.t }

// Bytes reports the capture's resident size: one byte per access plus the
// writebacks. It implements workload.Derived, so the trace store counts it.
func (c *Capture) Bytes() int64 {
	return int64(len(c.levels)) + int64(len(c.wbs))*writebackBytes
}

// LLCStream returns the demand accesses that missed both L1 and L2, in
// order, with cores folded as in the capture: the stream replacement
// predictors train on (writebacks excluded).
func (c *Capture) LLCStream() *trace.Trace {
	out := trace.New(c.t.Name+".llc", 0)
	for i, lv := range c.levels {
		if lv&levelMask == upperLLC {
			out.Append(c.access(i))
		}
	}
	return out
}

// access returns trace access i with its core folded.
func (c *Capture) access(i int) trace.Access {
	a := c.t.Accesses[i]
	if int(a.Core) >= c.cores {
		a.Core = 0
	}
	return a
}

// writebacks sends the next n captured writebacks to llc and returns the
// rest. A writeback's own LLC outcome is dropped (see DESIGN.md §5).
func writebacks(llc *cache.Cache, wbs []llcWriteback, n uint8) []llcWriteback {
	for _, w := range wbs[:n] {
		llc.Access(w.pc, w.block, w.core, trace.Writeback)
	}
	return wbs[n:]
}

func checkWarmup(t *trace.Trace, warmup int) error {
	if warmup < 0 || warmup > t.Len() {
		return fmt.Errorf("cpu: warmup %d out of range for trace of %d accesses", warmup, t.Len())
	}
	return nil
}

// Run replays the capture on llc with full timing, as the package-level Run
// does for a hierarchy whose upper levels produced the capture: the first
// warmup accesses train the LLC without counting toward the reported
// statistics, and the DRAM model d serves the LLC misses. llc is normally
// fresh (see BuildLLC) or reset (see LLCPool); its geometry must match the
// capture's core count as in BuildHierarchy. Cancelling ctx aborts the run
// within a few thousand accesses.
func (c *Capture) Run(ctx context.Context, llc *cache.Cache, d *dram.DRAM, cfg CoreConfig, warmup int) (Result, error) {
	t := c.t
	if err := checkWarmup(t, warmup); err != nil {
		return Result{}, err
	}
	cores := make([]*coreState, c.cores)
	for i := range cores {
		cores[i] = newCoreState(cfg)
	}
	cyclesPerAccess := cfg.InstrPerAccess / float64(cfg.Width)
	l2Lat := float64(cache.L1DConfig.LatencyCycles + cache.L2Config.LatencyCycles)
	llcLat := l2Lat + float64(llc.Config().LatencyCycles)

	measuring := false
	var measureStart []float64
	var measureAccesses []float64
	wbs := c.wbs

	for i, lv := range c.levels {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if !measuring && i >= warmup {
			measuring = true
			llc.ResetStats()
			measureStart = make([]float64, len(cores))
			measureAccesses = make([]float64, len(cores))
			for k, cs := range cores {
				measureStart[k] = cs.clock
			}
		}
		a := c.access(i)
		core := int(a.Core)
		cs := cores[core]

		level := cache.LevelL1
		var dramWriteback bool
		var writebackBlock uint64
		if lv != upperL1 {
			wbs = writebacks(llc, wbs, lv>>wbShift)
			level = cache.LevelL2
			if lv&levelMask == upperLLC {
				r := llc.Access(a.PC, a.Block(), a.Core, a.Kind)
				level = cache.LevelDRAM
				if r.Hit {
					level = cache.LevelLLC
				}
				dramWriteback, writebackBlock = r.WritebackNeeded, r.EvictedLine.Tag
			}
		}

		// Issue time: front-end pace plus ROB back-pressure from the access
		// that must retire to free the slot.
		issue := cs.clock
		if old := cs.completions[cs.robHead]; old > issue {
			issue = old
		}

		var done float64
		switch level {
		case cache.LevelL1:
			done = issue + float64(cache.L1DConfig.LatencyCycles)
		case cache.LevelL2:
			done = issue + l2Lat
		case cache.LevelLLC:
			done = issue + llcLat
		default: // DRAM
			reqStart := issue + llcLat
			// MSHR limit: wait for the oldest outstanding DRAM miss.
			if old := cs.dramRing[cs.dramHead]; old > reqStart {
				reqStart = old
			}
			done = d.Access(a.Block(), false, reqStart)
			cs.dramRing[cs.dramHead] = done
			if cs.dramHead++; cs.dramHead == len(cs.dramRing) {
				cs.dramHead = 0
			}
		}
		if dramWriteback {
			d.Access(writebackBlock, true, done)
		}

		cs.completions[cs.robHead] = done
		if cs.robHead++; cs.robHead == len(cs.completions) {
			cs.robHead = 0
		}
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
	for k, cs := range cores {
		cycles := cs.finish
		if measuring {
			cycles -= measureStart[k]
		}
		if cycles <= 0 {
			cycles = 1
		}
		instr := measureAccesses[k] * cfg.InstrPerAccess
		out.PerCoreIPC[k] = instr / cycles
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
	out.LLC = llc.Stats()
	out.DRAM = d.Stats()
	return out, nil
}

// RunFunctional replays the capture on llc without timing, optionally
// collecting the post-warmup LLC demand stream and, when llc's policy is a
// FriendlyPredictor, its prediction for each streamed access, queried before
// that access's writebacks reach the LLC. Cancelling ctx aborts the run
// within a few thousand accesses.
func (c *Capture) RunFunctional(ctx context.Context, llc *cache.Cache, warmup int, collect bool) (FunctionalResult, error) {
	t := c.t
	if err := checkWarmup(t, warmup); err != nil {
		return FunctionalResult{}, err
	}
	var out FunctionalResult
	predictor, hasPredictor := llc.Policy().(FriendlyPredictor)
	if collect {
		// No capacity hint: observed LLC-access rates on the registered
		// workloads span 60–100% of the trace, so any fixed guess either
		// wastes half the allocation or forces an immediate regrow; append's
		// geometric growth handles the spread better.
		out.LLCStream = trace.New(t.Name+".llc", 0)
	}
	wbs := c.wbs
	for i, lv := range c.levels {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return FunctionalResult{}, err
			}
		}
		if i == warmup {
			llc.ResetStats()
		}
		if lv == upperL1 {
			continue
		}
		toLLC := lv&levelMask == upperLLC
		var a trace.Access
		var predicted bool
		if toLLC {
			a = c.access(i)
			if collect && hasPredictor && i >= warmup {
				predicted = predictor.PredictFriendly(a.PC, a.Core)
			}
		}
		wbs = writebacks(llc, wbs, lv>>wbShift)
		if !toLLC {
			continue
		}
		llc.Access(a.PC, a.Block(), a.Core, a.Kind)
		if collect && i >= warmup {
			out.LLCStream.Append(a)
			if hasPredictor {
				out.Predictions = append(out.Predictions, predicted)
			}
		}
	}
	out.LLC = llc.Stats()
	return out, nil
}
