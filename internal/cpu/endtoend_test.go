package cpu

import (
	"context"
	"testing"

	"glider/internal/dram"
	"glider/internal/trace"
	"glider/internal/workload"
)

func TestDeterministicMissRates(t *testing.T) {
	t.Parallel()
	spec, err := workload.Lookup("soplex")
	if err != nil {
		t.Fatal(err)
	}
	a, err := SingleCore(context.Background(), spec, "glider", 60000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleCore(context.Background(), spec, "glider", 60000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.LLC.MissRate() != b.LLC.MissRate() {
		t.Fatalf("same seed produced different miss rates: %v vs %v", a.LLC.MissRate(), b.LLC.MissRate())
	}
}

func TestStoreTrafficGeneratesDRAMWrites(t *testing.T) {
	t.Parallel()
	// A store-heavy streaming trace must produce dirty LLC evictions and
	// hence DRAM writebacks.
	tr := trace.New("stores", 60000)
	for i := 0; i < 60000; i++ {
		tr.Append(trace.Access{PC: 1, Addr: uint64(i) << trace.BlockShift, Kind: trace.Store})
	}
	h, err := BuildHierarchy(1, "lru")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tr, h, dram.New(dram.SingleCoreConfig()), DefaultCoreConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM.Writes == 0 {
		t.Fatal("no DRAM writes from a store-only streaming trace")
	}
}

// TestHeadlineResult is the repository's regression guard for the paper's
// central claim: on a context-dependent workload, Glider reduces the LLC
// miss rate below both LRU and Hawkeye.
func TestHeadlineResult(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("headline regression is slow; run without -short")
	}
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400_000
	missRate := func(pol string) float64 {
		res, err := SingleCore(context.Background(), spec, pol, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res.LLC.MissRate()
	}
	lru, hawkeye, glider := missRate("lru"), missRate("hawkeye"), missRate("glider")
	if glider >= lru {
		t.Fatalf("Glider (%.3f) does not beat LRU (%.3f)", glider, lru)
	}
	if glider >= hawkeye {
		t.Fatalf("Glider (%.3f) does not beat Hawkeye (%.3f) on the context workload", glider, hawkeye)
	}
}

func TestMultiCorePerCorePCHR(t *testing.T) {
	t.Parallel()
	// Two cores with interleaved but independent streams: the run must
	// complete and give each core its own IPC; Glider's per-core PCHRs keep
	// the contexts separate (a shared PCHR would interleave PCs from both
	// cores into one history).
	mix := workload.Mixes(1, 2, 11)[0]
	c, err := MixCapture(context.Background(), mix, 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultiCore(context.Background(), c, "glider")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != 2 || res.PerCoreIPC[0] <= 0 || res.PerCoreIPC[1] <= 0 {
		t.Fatalf("per-core IPCs %v", res.PerCoreIPC)
	}
}

func TestWritebackKindDoesNotPolluteLLCPredictions(t *testing.T) {
	t.Parallel()
	// Writebacks must not crash or train predictors (policies early-return
	// on writeback); interleave them explicitly.
	tr := trace.New("wb", 2000)
	for i := 0; i < 1000; i++ {
		tr.Append(trace.Access{PC: 1, Addr: uint64(i) << trace.BlockShift, Kind: trace.Load})
		tr.Append(trace.Access{PC: 2, Addr: uint64(i+1<<20) << trace.BlockShift, Kind: trace.Writeback})
	}
	for _, pol := range []string{"hawkeye", "glider", "ship++", "mpppb", "perceptron"} {
		h, err := BuildHierarchy(1, pol)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunFunctional(context.Background(), tr, h, 0, true); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}
