package cpu

import (
	"context"
	"testing"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/trace"
	"glider/internal/workload"
)

func TestBuildHierarchy(t *testing.T) {
	h, err := BuildHierarchy(1, "lru")
	if err != nil {
		t.Fatal(err)
	}
	if h.Cores() != 1 || h.LLC().Config().SizeBytes() != 2<<20 {
		t.Fatal("single-core hierarchy misconfigured")
	}
	h4, err := BuildHierarchy(4, "glider")
	if err != nil {
		t.Fatal(err)
	}
	if h4.Cores() != 4 || h4.LLC().Config().SizeBytes() != 8<<20 {
		t.Fatal("4-core hierarchy misconfigured")
	}
	if _, err := BuildHierarchy(1, "bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func hotTrace(n int) *trace.Trace {
	tr := trace.New("hot", n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Access{PC: 1, Addr: uint64(i%4) << trace.BlockShift, Kind: trace.Load})
	}
	return tr
}

func coldTrace(n int) *trace.Trace {
	tr := trace.New("cold", n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Access{PC: 1, Addr: uint64(i) << trace.BlockShift, Kind: trace.Load})
	}
	return tr
}

func TestRunCacheFriendlyFasterThanStreaming(t *testing.T) {
	run := func(tr *trace.Trace) Result {
		h, err := BuildHierarchy(1, "lru")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), tr, h, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hot := run(hotTrace(20000))
	cold := run(coldTrace(20000))
	if hot.IPC <= cold.IPC {
		t.Fatalf("hot IPC %v should exceed cold IPC %v", hot.IPC, cold.IPC)
	}
	if cold.DRAM.Reads == 0 {
		t.Fatal("cold run generated no DRAM traffic")
	}
	if hot.LLC.Accesses == 0 {
		t.Fatal("no LLC accesses recorded")
	}
}

func TestRunWarmupValidation(t *testing.T) {
	h, _ := BuildHierarchy(1, "lru")
	if _, err := Run(context.Background(), hotTrace(10), h, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), 11); err == nil {
		t.Fatal("warmup beyond trace length accepted")
	}
	if _, err := RunFunctional(context.Background(), hotTrace(10), h, -1, false); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestRunFunctionalCollectsLLCStream(t *testing.T) {
	h, _ := BuildHierarchy(1, "hawkeye")
	res, err := RunFunctional(context.Background(), coldTrace(5000), h, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCStream == nil || res.LLCStream.Len() == 0 {
		t.Fatal("no LLC stream collected")
	}
	if len(res.Predictions) != res.LLCStream.Len() {
		t.Fatalf("predictions (%d) misaligned with stream (%d)", len(res.Predictions), res.LLCStream.Len())
	}
}

func TestRunFunctionalWarmupExcluded(t *testing.T) {
	h, _ := BuildHierarchy(1, "lru")
	res, err := RunFunctional(context.Background(), coldTrace(1000), h, 500, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLC.Accesses >= 1000 {
		t.Fatalf("warmup accesses counted: %d", res.LLC.Accesses)
	}
	if res.LLCStream.Len() > 500 {
		t.Fatalf("warmup accesses collected: %d", res.LLCStream.Len())
	}
}

func TestIPCBounded(t *testing.T) {
	h, _ := BuildHierarchy(1, "lru")
	res, err := Run(context.Background(), hotTrace(10000), h, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.IPC > float64(DefaultCoreConfig().Width) {
		t.Fatalf("IPC %v outside (0, width]", res.IPC)
	}
}

func TestSingleCoreHarness(t *testing.T) {
	spec, err := workload.Lookup("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SingleCore(context.Background(), spec, "lru", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("no IPC")
	}
	if mr := res.LLC.MissRate(); mr <= 0 || mr > 1 {
		t.Fatalf("miss rate %v", mr)
	}
}

func TestMultiCoreRun(t *testing.T) {
	mix := workload.Mixes(1, 2, 5)[0]
	res, err := MultiCore(context.Background(), mix, "lru", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != 2 {
		t.Fatalf("per-core IPC count %d", len(res.PerCoreIPC))
	}
	for i, ipc := range res.PerCoreIPC {
		if ipc <= 0 {
			t.Fatalf("core %d IPC %v", i, ipc)
		}
	}
}

func TestWeightedSpeedupNearCoreCountWhenIsolated(t *testing.T) {
	// Weighted speedup of an n-core mix is at most n and should be close
	// to n when cores barely interfere (tiny footprints).
	mix := workload.Mix{ID: 0, Members: []workload.Spec{
		mustSpec(t, "libquantum"), mustSpec(t, "lbm"),
	}}
	ws, err := WeightedSpeedup(context.Background(), mix, "lru", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0 || ws > 2.2 {
		t.Fatalf("weighted speedup %v outside (0, 2.2]", ws)
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMSHRLimitSlowsBursts(t *testing.T) {
	// With 1 MSHR, independent misses serialize; with 16 they overlap.
	tr := coldTrace(5000)
	run := func(mshrs int) float64 {
		h, _ := BuildHierarchy(1, "lru")
		cfg := DefaultCoreConfig()
		cfg.MSHRs = mshrs
		res, err := Run(context.Background(), tr, h, dram.New(dram.SingleCoreConfig()), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	if narrow, wide := run(1), run(16); narrow >= wide {
		t.Fatalf("1-MSHR IPC %v should be below 16-MSHR IPC %v", narrow, wide)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	tr := coldTrace(5000)
	run := func(rob int) float64 {
		h, _ := BuildHierarchy(1, "lru")
		cfg := DefaultCoreConfig()
		cfg.ROBSize = rob
		res, err := Run(context.Background(), tr, h, dram.New(dram.SingleCoreConfig()), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	if small, big := run(8), run(256); small >= big {
		t.Fatalf("8-entry ROB IPC %v should be below 256-entry IPC %v", small, big)
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	// An L1-resident loop must run faster than an L2-resident one, which
	// must beat an LLC-resident one.
	mk := func(blocks int) *trace.Trace {
		tr := trace.New("t", 30000)
		for i := 0; i < 30000; i++ {
			tr.Append(trace.Access{PC: 1, Addr: uint64(i%blocks) << trace.BlockShift})
		}
		return tr
	}
	run := func(tr *trace.Trace) float64 {
		h, _ := BuildHierarchy(1, "lru")
		res, err := Run(context.Background(), tr, h, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	l1 := run(mk(128))    // fits 32 KB L1
	l2 := run(mk(2048))   // fits 256 KB L2, not L1
	llc := run(mk(16384)) // fits 2 MB LLC, not L2
	if !(l1 > l2 && l2 > llc) {
		t.Fatalf("latency ordering violated: L1 %v, L2 %v, LLC %v", l1, l2, llc)
	}
}

var _ = cache.LLCConfig // keep import if unused in future edits

func TestSoloOnSharedUsesSharedGeometry(t *testing.T) {
	spec := mustSpec(t, "libquantum")
	res, err := SoloOnShared(context.Background(), spec, 4, "lru", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("no IPC from solo-on-shared run")
	}
	// The shared LLC is 4× the private one: a workload that thrashes the
	// private LLC but fits the shared one must do at least as well there.
	private, err := SingleCore(context.Background(), spec, "lru", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLC.MissRate() > private.LLC.MissRate()+0.01 {
		t.Fatalf("solo-on-shared miss rate %.3f worse than private %.3f", res.LLC.MissRate(), private.LLC.MissRate())
	}
}
