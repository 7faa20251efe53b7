package cpu

import (
	"context"
	"reflect"
	"testing"

	"glider/internal/cache"
	"glider/internal/dram"
	"glider/internal/policy"
	"glider/internal/trace"
)

// conflictStride is a block-address stride that maps to one set at every
// level, the 8 MB shared LLC included: blocks k*conflictStride all collide.
const conflictStride = 8192

// maxFuzzAccesses bounds a fuzz trace so one input stays fast.
const maxFuzzAccesses = 4096

// conflictTrace decodes data, one byte per access, into a short trace that
// the sweep grid's traces are not: store-heavy and set-conflicting, so L1
// and L2 evict dirty lines all the time and writebacks reach the LLC. Bits
// 0-5 pick one of 64 blocks spread over two sets of every level; bits 6-7
// pick the PC, and any nonzero value makes the access a store. Cores cycle
// through 0..5, so on a 4-core hierarchy cores 4 and 5 fold onto core 0.
func conflictTrace(data []byte) *trace.Trace {
	if len(data) > maxFuzzAccesses {
		data = data[:maxFuzzAccesses]
	}
	tr := trace.New("conflict", len(data))
	for i, b := range data {
		block := uint64(b>>1&31)*conflictStride + uint64(b&1)
		kind := trace.Store
		if b>>6 == 0 {
			kind = trace.Load
		}
		tr.Append(trace.Access{
			PC:   0x400000 + uint64(b>>6)*4,
			Addr: block << trace.BlockShift,
			Core: uint8((i*7 + int(b)) % 6),
			Kind: kind,
		})
	}
	return tr
}

// xorshiftBytes returns n deterministic pseudo-random bytes.
func xorshiftBytes(n int) []byte {
	data := make([]byte, n)
	x := uint32(2463534242)
	for i := range data {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data[i] = byte(x)
	}
	return data
}

// storeHeavyTrace is a deterministic conflictTrace of n accesses.
func storeHeavyTrace(n int) *trace.Trace { return conflictTrace(xorshiftBytes(n)) }

// FuzzReplayMatchesReference: on any store-heavy, set-conflicting trace,
// for any registered policy, single- or multi-core and any warmup, the
// capture/replay engine matches the fused reference loops: deep-equal
// Results, identical functional stats, LLC streams and predictions,
// identical caller L1/L2 stats, and a replay of a separately built capture
// on a fresh LLC gives the same Result. The checked-in corpus under
// testdata/fuzz is replayed by plain `go test`.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add(xorshiftBytes(1500), uint8(0), false, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, polIdx uint8, multi bool, warmupSeed uint16) {
		tr := conflictTrace(data)
		if tr.Len() == 0 {
			return
		}
		names := policy.Names()
		pol := names[int(polIdx)%len(names)]
		cores, dcfg := 1, dram.SingleCoreConfig()
		if multi {
			cores, dcfg = 4, dram.QuadCoreConfig()
		}
		warmup := int(warmupSeed) % tr.Len()
		build := func() *cache.Hierarchy {
			h, err := BuildHierarchy(cores, pol)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		ctx := context.Background()

		href, heng := build(), build()
		want, err := refRun(ctx, tr, href, dram.New(dcfg), DefaultCoreConfig(), warmup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(ctx, tr, heng, dram.New(dcfg), DefaultCoreConfig(), warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d cores: Run diverged:\nengine=%+v\nref   =%+v", pol, cores, got, want)
		}
		for c := 0; c < cores; c++ {
			if heng.L1(c).Stats() != href.L1(c).Stats() || heng.L2(c).Stats() != href.L2(c).Stats() {
				t.Fatalf("%s: core %d L1/L2 stats diverged", pol, c)
			}
		}

		fref, feng := build(), build()
		wantF, err := refRunFunctional(ctx, tr, fref, warmup, true)
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := RunFunctional(ctx, tr, feng, warmup, true)
		if err != nil {
			t.Fatal(err)
		}
		if gotF.LLC != wantF.LLC || !reflect.DeepEqual(gotF.LLCStream, wantF.LLCStream) || !reflect.DeepEqual(gotF.Predictions, wantF.Predictions) {
			t.Fatalf("%s/%d cores: RunFunctional diverged", pol, cores)
		}

		c, err := NewCapture(ctx, tr, cores)
		if err != nil {
			t.Fatal(err)
		}
		llc, err := BuildLLC(cores, pol)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := c.Run(ctx, llc, dram.New(dcfg), DefaultCoreConfig(), warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, want) {
			t.Fatalf("%s/%d cores: replay of a fresh capture diverged", pol, cores)
		}
	})
}
