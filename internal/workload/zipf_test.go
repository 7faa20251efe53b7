package workload

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"glider/internal/trace"
)

func TestZipfDeterminism(t *testing.T) {
	c := zipfConfig{Objects: 512, Skew: 0.9, ScanEvery: 1000, ScanLen: 64, ChurnEvery: 5000}
	a := c.generator("z")(20_000, 7)
	b := c.generator("z")(20_000, 7)
	sameAccesses(t, a.Accesses, b.Accesses)

	diff := c.generator("z")(20_000, 8)
	same := true
	for i := range a.Accesses {
		if a.Accesses[i] != diff.Accesses[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	// The name participates in the stream seed (two specs with different
	// canonical names must not alias).
	other := c.generator("z2")(20_000, 7)
	same = true
	for i := range a.Accesses {
		if a.Accesses[i] != other.Accesses[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different names produced identical streams")
	}
}

func TestZipfLength(t *testing.T) {
	c := zipfConfig{Objects: 64, Skew: 1.0}
	for _, n := range []int{0, 1, 100, 12345} {
		if got := c.generator("z")(n, 1).Accesses; len(got) != n {
			t.Fatalf("n=%d: got %d accesses", n, len(got))
		}
	}
}

// TestZipfRankFrequencySlope checks the statistical contract: the empirical
// rank-frequency curve follows a power law with exponent ≈ -skew. A least-
// squares fit of log(freq) against log(rank) over the top ranks must land
// within tolerance of the configured skew.
func TestZipfRankFrequencySlope(t *testing.T) {
	for _, skew := range []float64{0.7, 1.0, 1.3} {
		c := zipfConfig{Objects: 2048, Skew: skew}
		tr := c.generator("z")(400_000, 11)

		counts := make(map[uint64]int)
		for _, a := range tr.Accesses {
			counts[a.Block()]++
		}
		freqs := make([]float64, 0, len(counts))
		for _, n := range counts {
			freqs = append(freqs, float64(n))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))

		top := 50
		if top > len(freqs) {
			t.Fatalf("skew=%.1f: only %d distinct blocks", skew, len(freqs))
		}
		var sx, sy, sxx, sxy float64
		for i := 0; i < top; i++ {
			x := math.Log(float64(i + 1))
			y := math.Log(freqs[i])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(top)
		slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
		if math.Abs(slope+skew) > 0.15 {
			t.Fatalf("skew=%.1f: fitted slope %.3f, want %.3f ± 0.15", skew, slope, -skew)
		}
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	c := zipfConfig{Objects: 256, Skew: 0}
	tr := c.generator("z")(256_000, 3)
	counts := make(map[uint64]int)
	for _, a := range tr.Accesses {
		counts[a.Block()]++
	}
	mean := float64(len(tr.Accesses)) / float64(c.Objects)
	for b, n := range counts {
		if math.Abs(float64(n)-mean) > mean/2 {
			t.Fatalf("block %#x: count %d, uniform mean %.0f", b, n, mean)
		}
	}
}

func TestZipfScanPhases(t *testing.T) {
	c := zipfConfig{Objects: 128, Skew: 1.0, ScanEvery: 1000, ScanLen: 100}
	tr := c.generator("z")(10_000, 5)

	var scanBlocks []uint64
	for i, a := range tr.Accesses {
		if a.PC == zipfScanPC {
			// Scan accesses appear only inside scheduled windows.
			phase := i % c.ScanEvery
			if phase >= c.ScanLen {
				t.Fatalf("scan access at offset %d (phase %d)", i, phase)
			}
			scanBlocks = append(scanBlocks, a.Block())
			if a.Kind != trace.Load {
				t.Fatalf("scan access %d is a %v", i, a.Kind)
			}
		} else if a.Block() >= zipfScanBase {
			t.Fatalf("non-scan access %d in the scan region", i)
		}
	}
	// 9 windows × 100 accesses (no scan at i=0).
	if len(scanBlocks) != 900 {
		t.Fatalf("got %d scan accesses, want 900", len(scanBlocks))
	}
	// Scans are sequential and resume across windows: consecutive blocks.
	for i := 1; i < len(scanBlocks); i++ {
		if scanBlocks[i] != scanBlocks[i-1]+1 {
			t.Fatalf("scan block %d jumps %#x → %#x", i, scanBlocks[i-1], scanBlocks[i])
		}
	}
}

func TestZipfChurnRotatesPopularity(t *testing.T) {
	base := zipfConfig{Objects: 512, Skew: 1.2}
	churned := base
	churned.ChurnEvery = 10_000
	n := 40_000

	hottest := func(accs []trace.Access) uint64 {
		counts := make(map[uint64]int)
		for _, a := range accs {
			counts[a.Block()]++
		}
		var best uint64
		bestN := -1
		for b, c := range counts {
			if c > bestN || (c == bestN && b < best) {
				best, bestN = b, c
			}
		}
		return best
	}

	tr := churned.generator("z")(n, 9)
	first := hottest(tr.Accesses[:10_000])
	last := hottest(tr.Accesses[30_000:])
	if first == last {
		t.Fatalf("hottest block %#x unchanged across churn rotations", first)
	}

	// Without churn the hot set is stable.
	tr = base.generator("z")(n, 9)
	if a, b := hottest(tr.Accesses[:10_000]), hottest(tr.Accesses[30_000:]); a != b {
		t.Fatalf("hottest block moved %#x → %#x without churn", a, b)
	}
}

func TestZipfSpanAndPCs(t *testing.T) {
	c := zipfConfig{Objects: 32, Skew: 0.5, Span: 4, PCs: 8}
	tr := c.generator("z")(50_000, 13)
	blocksPerPC := make(map[uint64]map[uint64]bool)
	for _, a := range tr.Accesses {
		if a.PC < zipfPCBase || a.PC >= zipfPCBase+uint64(c.PCs)*16 {
			t.Fatalf("PC %#x outside the %d-site range", a.PC, c.PCs)
		}
		if m := blocksPerPC[a.PC]; m == nil {
			blocksPerPC[a.PC] = map[uint64]bool{a.Block(): true}
		} else {
			m[a.Block()] = true
		}
	}
	if len(blocksPerPC) != c.PCs {
		t.Fatalf("saw %d PCs, want %d", len(blocksPerPC), c.PCs)
	}
	// Span > 1: each object contributes multiple blocks, so some PC must
	// touch more blocks than objects mapped to it would with span 1.
	maxBlocks := 0
	for _, m := range blocksPerPC {
		if len(m) > maxBlocks {
			maxBlocks = len(m)
		}
	}
	if maxBlocks <= c.Objects/c.PCs {
		t.Fatalf("max %d blocks per PC; span=%d should exceed %d", maxBlocks, c.Span, c.Objects/c.PCs)
	}
}

// checkZipfRank fails unless the guide search of tab returns the rank that
// sort.SearchFloat64s finds in the whole cumulative table.
func checkZipfRank(t *testing.T, tab *zipfTable, x float64) {
	t.Helper()
	if got, want := tab.rank(x), sort.SearchFloat64s(tab.cum, x); got != want {
		t.Fatalf("%d objects: rank(%v) = %d, sort.SearchFloat64s = %d (bucket %d, guide %d..%d)",
			len(tab.cum), x, got, want, tab.bucket(x), tab.guide[tab.bucket(x)], tab.guide[tab.bucket(x)+1])
	}
}

// TestZipfGuideMatchesSearch holds the guide search to a search of the whole
// table at every cumulative weight, every bucket edge and their float
// neighbours, for the sweep's and the zoo's table sizes, both sides of the
// bucket cap, a uniform table and one whose tail weights vanish.
func TestZipfGuideMatchesSearch(t *testing.T) {
	for _, c := range []struct {
		objects int
		skew    float64
	}{
		{1, 0}, {3, 8}, {100, 1.2}, {4096, 0}, {4096, 8}, {49152, 1.1},
		{zipfBuckets, 0.9}, {zipfBuckets + 1, 0.7}, {131072, 0.8},
	} {
		tab := newZipfTable(c.objects, c.skew)
		edges := make([]float64, 0, len(tab.cum)+len(tab.guide))
		edges = append(edges, tab.cum...)
		for b := range tab.guide {
			edges = append(edges, float64(b)/tab.scale)
		}
		for _, v := range edges {
			for _, x := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1))} {
				if x >= 0 && x <= tab.total() {
					checkZipfRank(t, tab, x)
				}
			}
		}
	}
}

// FuzzZipfSearch checks the guide search against sort.SearchFloat64s for
// any table size, skew and draw. A draw outside [0, total] folds into it,
// so the fuzzer's arbitrary floats land on real draws while the seeds'
// exact weights stay exact.
func FuzzZipfSearch(f *testing.F) {
	for _, c := range []struct {
		objects int
		skew    float64
	}{{1, 0}, {2, 0}, {3, 0}, {1, 8}, {2, 8}, {3, 8}, {3, 0.9}} {
		tab := newZipfTable(c.objects, c.skew)
		f.Add(c.objects, c.skew, 0.0)
		f.Add(c.objects, c.skew, math.Nextafter(tab.total(), 0))
		for _, v := range tab.cum {
			f.Add(c.objects, c.skew, math.Nextafter(v, 0))
			f.Add(c.objects, c.skew, v)
			f.Add(c.objects, c.skew, math.Nextafter(v, math.Inf(1)))
		}
	}
	f.Add(zipfBuckets+1, 0.7, 0.0)
	f.Add(131072, 0.8, 1e-300)
	f.Fuzz(func(t *testing.T, objects int, skew, draw float64) {
		if objects < 1 || objects > 2*zipfBuckets || !(skew >= 0 && skew <= zipfMaxSkew) ||
			math.IsNaN(draw) || math.IsInf(draw, 0) {
			return
		}
		tab := newZipfTable(objects, skew)
		x := math.Abs(draw)
		if x > tab.total() {
			x = math.Mod(x, tab.total())
		}
		checkZipfRank(t, tab, x)
	})
}

// TestZipfSpecBuildsItsTableOnce checks that a resolved spec keeps its
// popularity table: a second generation allocates its trace, not another
// 8 MB table for a million objects.
func TestZipfSpecBuildsItsTableOnce(t *testing.T) {
	spec, err := Resolve("zipf(objects=1048576,skew=0.9)")
	if err != nil {
		t.Fatal(err)
	}
	spec.Generate(1000, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spec.Generate(1000, 2)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("second generation allocated %d bytes: the table was rebuilt", alloc)
	}
}

// TestZipfSpecConcurrentGenerations generates from one resolved spec on
// several goroutines at once, the first generation included, and requires
// each trace to equal a generation from a spec of its own.
func TestZipfSpecConcurrentGenerations(t *testing.T) {
	const name = "zipf(objects=4096,skew=0.9,churn-every=700)"
	shared, err := Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]trace.Access, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = shared.Generate(2000, int64(i)).Accesses
		}(i)
	}
	wg.Wait()
	for i := range got {
		own, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		sameAccesses(t, got[i], own.Generate(2000, int64(i)).Accesses)
	}
}
