package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"glider/internal/trace"
)

// TestTable2GeneratorGolden pins the Table 2 synthetic-workload statistics —
// trace length, distinct PCs, and distinct blocks at a fixed (accesses,
// seed) — for every benchmark in the offline set. The generators are pure
// functions of their inputs, so these values must never drift: a change here
// silently re-labels every Table 2 row and invalidates cross-PR comparisons
// of miss rates and offline accuracy. If a generator change is intentional,
// update the goldens in the same commit and say so.
func TestTable2GeneratorGolden(t *testing.T) {
	const accesses = 100_000
	const seed = 42
	golden := []struct {
		name     string
		accesses int
		pcs      int
		blocks   int
	}{
		{"mcf", 100000, 58, 61036},
		{"omnetpp", 100000, 77, 71086},
		{"soplex", 100000, 103, 91097},
		{"sphinx3", 100000, 76, 76125},
		{"astar", 100000, 28, 48372},
		{"lbm", 100000, 32, 100000},
	}

	specs := OfflineSet()
	if len(specs) != len(golden) {
		t.Fatalf("offline set has %d benchmarks, golden table has %d", len(specs), len(golden))
	}
	for i, g := range golden {
		spec := specs[i]
		if spec.Name != g.name {
			t.Fatalf("offline set order changed: slot %d is %q, golden expects %q", i, spec.Name, g.name)
		}
		tr := spec.Generate(accesses, seed)
		pcs := make(map[uint64]struct{})
		blocks := make(map[uint64]struct{})
		for _, a := range tr.Accesses {
			pcs[a.PC] = struct{}{}
			blocks[a.Block()] = struct{}{}
		}
		if tr.Len() != g.accesses {
			t.Errorf("%s: trace length %d, golden %d", g.name, tr.Len(), g.accesses)
		}
		if len(pcs) != g.pcs {
			t.Errorf("%s: %d distinct PCs, golden %d", g.name, len(pcs), g.pcs)
		}
		if len(blocks) != g.blocks {
			t.Errorf("%s: %d distinct blocks, golden %d", g.name, len(blocks), g.blocks)
		}
		// Derived accesses/PC sanity: each PC must appear at least once and
		// the mean must match the pinned ratio.
		if perPC := float64(tr.Len()) / float64(len(pcs)); perPC < 1 {
			t.Errorf("%s: accesses per PC %.2f < 1", g.name, perPC)
		}
	}
}

// TestGeneratorsDeterministic asserts every registered benchmark generator
// is a pure function of (accesses, seed): two generations with equal inputs
// are access-for-access identical, and changing the seed changes the stream.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, spec := range All() {
		a := spec.Generate(5_000, 7)
		b := spec.Generate(5_000, 7)
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", spec.Name, a.Len(), b.Len())
		}
		for i := range a.Accesses {
			if a.Accesses[i] != b.Accesses[i] {
				t.Fatalf("%s: access %d differs between identical generations", spec.Name, i)
			}
		}
		c := spec.Generate(5_000, 8)
		same := true
		for i := range a.Accesses {
			if a.Accesses[i] != c.Accesses[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed 7 and seed 8 produced identical traces", spec.Name)
		}
	}
}

// TestZipfStreamsGolden pins every access (PC, Addr, Core, Kind) of the
// zipf-family specs that BenchSweepWorkloads and DefaultZoo in
// internal/experiments name — plain, scan, churn and both mix modes — at two
// lengths and two seeds, as a SHA-256 over the stream. Sampling and the
// popularity table may be rewritten for speed, never for different bytes:
// every trace-store entry, simulated number and served result depends on
// them.
func TestZipfStreamsGolden(t *testing.T) {
	golden := []struct {
		spec string
		n    int
		seed int64
		sum  string
	}{
		{"zipf(objects=65536,skew=0.9)", 60_000, 42, "bb6d2adc32b47f133b4ab441b6f58f3b6ca5b587166cd5fb8bd2a7b7c5d1059b"},
		{"zipf(objects=65536,skew=0.9)", 60_000, 7, "c654c3c7c2ded86930d2af3959599dfc248f1d8146d754683a95fb024aeb3eb3"},
		{"zipf(objects=65536,skew=0.9)", 100_003, 42, "72d63de5e354822aa618508c31351441d366b9214400a4536b5f468818bec354"},
		{"zipf(objects=65536,skew=0.9)", 100_003, 7, "30363de3abc344a914ddf403f08a1c433ad7fe7e318a53b10a11f5452edac6ad"},
		{"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)", 60_000, 42, "28ea3137715e8e45d393c8aa7b829cbf91e02bd0465525678b8023410cdbe722"},
		{"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)", 60_000, 7, "793e4ebc6730d470fad6bdfd845f8e916dff5f03a751c10355ca8da0315a261b"},
		{"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)", 100_003, 42, "e2674dc2f42a73f77cbc29407d198348b3e9b0a216e480d5736f432650961eb6"},
		{"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)", 100_003, 7, "9bfe3c0ca47d90eecdbbb62c831a8f6232d9fc963b752b18ae1f85693c73c608"},
		{"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)", 60_000, 42, "8184c06d00e075bc98d1eb20c2bbe62c60052104fd69ce41f1298e82bda60c7f"},
		{"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)", 60_000, 7, "19379490cb8088bbbb2a4058caa13d4c766a36492526776069859267b8350f67"},
		{"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)", 100_003, 42, "6b027d7efd8e410adadd6208481ca11d4594db7496e38d4a893548b06084c242"},
		{"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)", 100_003, 7, "05d886fcfd2dc9798d73eb97289be9c09283ffb0bb4f7f492c26c63853006ac2"},
		{"zipf(objects=65536,skew=0.9,scan-every=20000,scan-len=4096)", 60_000, 42, "7ab148d246874e16b81b7e5b1bef132107fe20edaf914f87b6578fcceae55b80"},
		{"zipf(objects=65536,skew=0.9,scan-every=20000,scan-len=4096)", 60_000, 7, "b9c56cd7b980c0e4cf1150d03546ecc909740eefb3f5c8bd480d5ca73e065841"},
		{"zipf(objects=65536,skew=0.9,scan-every=20000,scan-len=4096)", 100_003, 42, "bbcb4bb5b3d4b22f10b92da1375e7a82cfa82f4d1b779ce38f8bc782c83c121c"},
		{"zipf(objects=65536,skew=0.9,scan-every=20000,scan-len=4096)", 100_003, 7, "2a2549463d53c669426586381029c1a2e355e5c36842bdf49e0710d7566028a9"},
		{"zipf(objects=65536,skew=0.7,churn-every=50000)", 60_000, 42, "d6c597b866b800e562d4bf93560c729218b8a10faba1263d7726d352a72b8fb5"},
		{"zipf(objects=65536,skew=0.7,churn-every=50000)", 60_000, 7, "6bb0facdb6b79ad3ad9ac04c1a07642bb3cd8ffac6b4ffa5d9edfad5f89bbd3f"},
		{"zipf(objects=65536,skew=0.7,churn-every=50000)", 100_003, 42, "3df1102f9388af6d5b7f2aa14c5027f49b03495cc35fce22e909f0f958098dcf"},
		{"zipf(objects=65536,skew=0.7,churn-every=50000)", 100_003, 7, "353e0d26df38eb25c40faa056bb4da8e2ac65f8e5b4cfaa4fde62355f5ae5bc2"},
		{"mix(rr,zipf(objects=49152,skew=0.9),mcf)", 60_000, 42, "c55717116978ce549791c180a14be8ba5fedfc3271a4fee2628c60ed80ebfc3c"},
		{"mix(rr,zipf(objects=49152,skew=0.9),mcf)", 60_000, 7, "663e110b2710164821fa93e9b78395726ec0ef4286cc605d7273f82bbda8609c"},
		{"mix(rr,zipf(objects=49152,skew=0.9),mcf)", 100_003, 42, "b57e9174eb2c801991d51d3b2e673957a7118d7fea6d632c5d1fdc3e17151856"},
		{"mix(rr,zipf(objects=49152,skew=0.9),mcf)", 100_003, 7, "b51f13d3b38dbf35af77a40cdef97c785115d3be37045a48e6468b32cb10cf5e"},
		{"mix(poisson,zipf(objects=49152,skew=1.1),libquantum,p=0.7)", 60_000, 42, "31e883e4bd9bbe2254bab42c5786ae5cec2ed5f571874369473473a481579f32"},
		{"mix(poisson,zipf(objects=49152,skew=1.1),libquantum,p=0.7)", 60_000, 7, "18c576b5085dc5716bda05d932287006e0e8ca0825711d85dd02f5d71e0eb482"},
		{"mix(poisson,zipf(objects=49152,skew=1.1),libquantum,p=0.7)", 100_003, 42, "0afea2a3bbe67c3c04df2fd8e81a445d5ff9bb43a27456e441d354a655345947"},
		{"mix(poisson,zipf(objects=49152,skew=1.1),libquantum,p=0.7)", 100_003, 7, "cc842f5346050e43bbc12a091f2dd9d5bd4193be008a6803d7ae7f2934dac4f6"},
	}
	for _, g := range golden {
		spec, err := Resolve(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != g.spec {
			t.Fatalf("%s resolves to %s: write golden specs canonically", g.spec, spec.Name)
		}
		tr, err := spec.GenerateE(g.n, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := accessDigest(tr.Accesses); got != g.sum {
			t.Errorf("%s n=%d seed=%d: digest %s, golden %s", g.spec, g.n, g.seed, got, g.sum)
		}
	}
}

// accessDigest is the hex SHA-256 of every access's PC, Addr, Core and Kind.
func accessDigest(accs []trace.Access) string {
	h := sha256.New()
	var rec [18]byte
	for _, a := range accs {
		binary.LittleEndian.PutUint64(rec[0:], a.PC)
		binary.LittleEndian.PutUint64(rec[8:], a.Addr)
		rec[16], rec[17] = a.Core, byte(a.Kind)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
