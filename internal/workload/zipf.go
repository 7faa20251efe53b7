package workload

import (
	"math"
	"math/rand"
	"sync"

	"glider/internal/trace"
)

// Zipf web/CDN object streams.
//
// Web and CDN request streams are famously Zipf-distributed (Breslau et al.
// 1999): the i-th most popular object receives a share of requests
// proportional to 1/i^s. The generator models the three behaviors that
// stress a replacement policy in that setting: the skewed steady state, the
// periodic full scans that evict it (crawlers, backups), and popularity
// churn (new content displacing old). Everything is a pure function of
// (config, n, seed), so Store can cache the result under the
// spec's canonical string.

// zipfConfig parameterizes one object-stream workload. The zero value of
// every optional field selects the documented default.
type zipfConfig struct {
	// Objects is the working-set size: the number of distinct objects.
	Objects int
	// Skew is the Zipf exponent s ≥ 0: P(rank i) ∝ 1/i^s. 0 is uniform.
	Skew float64
	// Span is the object size in cache blocks; each access touches one
	// uniformly-chosen block of the object (default 1).
	Span int
	// PCs is the number of distinct request-site PCs; an object's requests
	// always issue from the same PC (default 16).
	PCs int
	// ScanEvery injects a sequential scan phase every ScanEvery accesses
	// (0 = never). Scans walk a cold address region one block at a time,
	// resuming where the previous scan stopped.
	ScanEvery int
	// ScanLen is the number of accesses per scan phase (default 512 when
	// scanning is enabled).
	ScanLen int
	// ChurnEvery rotates object popularity every ChurnEvery accesses
	// (0 = never): the address space shifts under the rank distribution,
	// so yesterday's hot objects go cold — the CDN content-churn pattern.
	ChurnEvery int
}

// Defaults and bounds for zipfConfig fields (bounds are enforced by the
// spec-string parser so a hostile spec cannot demand unbounded memory).
const (
	zipfDefaultSpan    = 1
	zipfDefaultPCs     = 16
	zipfDefaultScanLen = 512
	zipfMaxObjects     = 1 << 22
	zipfMaxSkew        = 8.0
	zipfMaxSpan        = 256
	zipfMaxPCs         = 4096
	zipfMaxScanLen     = 1 << 20
)

// zipfAddrBase places objects away from the synthetic benchmarks' regions;
// zipfScanBase is a disjoint region for scan traffic.
const (
	zipfAddrBase uint64 = 1 << 40
	zipfScanBase uint64 = 1 << 44
	zipfPCBase   uint64 = 0x5a0000
	zipfScanPC   uint64 = 0x5aff00
)

// normalized fills defaults.
func (c zipfConfig) normalized() zipfConfig {
	if c.Span <= 0 {
		c.Span = zipfDefaultSpan
	}
	if c.PCs <= 0 {
		c.PCs = zipfDefaultPCs
	}
	if c.ScanEvery > 0 && c.ScanLen <= 0 {
		c.ScanLen = zipfDefaultScanLen
	}
	return c
}

// zipfBuckets caps a popularity table's guide: M = min(objects,
// zipfBuckets) buckets, so a guide holds at most 256 KB.
const zipfBuckets = 1 << 16

// zipfTable is one spec's popularity distribution. A rank is sampled by
// drawing x uniformly in [0, total) and taking the first rank whose
// cumulative weight is ≥ x (the explicit table, rather than rand.Zipf,
// supports any skew ≥ 0 and exposes the distribution to tests). The guide
// narrows that search to the ranks of x's bucket: with
// bucket(v) = min(int(v·scale), M) and scale = M/total, guide[b] is the
// first rank whose cumulative weight maps to a bucket ≥ b (the last rank if
// none does). bucket is monotone, so every rank below guide[bucket(x)] has
// weight < x and the weight at guide[bucket(x)+1] is ≥ x: the answer lies
// in that range, and searching it returns exactly the rank a search of the
// whole table would.
type zipfTable struct {
	cum   []float64 // cum[i] = Σ_{j≤i} 1/(j+1)^s; the last entry is the total
	guide []int32   // M+2 entries
	scale float64   // M / total
}

func newZipfTable(objects int, skew float64) *zipfTable {
	cum := make([]float64, objects)
	sum := 0.0
	for i := range cum {
		sum += math.Pow(float64(i+1), -skew)
		cum[i] = sum
	}
	m := min(objects, zipfBuckets)
	t := &zipfTable{cum: cum, guide: make([]int32, m+2), scale: float64(m) / sum}
	b := 0
	for r, v := range cum {
		for k := t.bucket(v); b <= k; b++ {
			t.guide[b] = int32(r)
		}
	}
	for ; b < len(t.guide); b++ {
		t.guide[b] = int32(objects - 1)
	}
	return t
}

func (t *zipfTable) total() float64 { return t.cum[len(t.cum)-1] }

func (t *zipfTable) bucket(v float64) int { return min(int(v*t.scale), len(t.guide)-2) }

// rank returns the first rank whose cumulative weight is ≥ x, for
// 0 ≤ x ≤ total.
func (t *zipfTable) rank(x float64) int {
	b := t.bucket(x)
	lo, hi := int(t.guide[b]), int(t.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// generator returns the generator of one resolved spec named name. The
// popularity table is built by the first generation and shared by every
// later one, concurrent ones included, for as long as the generator is held.
func (c zipfConfig) generator(name string) func(n int, seed int64) *trace.Trace {
	c = c.normalized()
	table := sync.OnceValue(func() *zipfTable { return newZipfTable(c.Objects, c.Skew) })
	return func(n int, seed int64) *trace.Trace { return c.generate(name, n, seed, table()) }
}

// generate produces the deterministic object stream: n accesses named name,
// fully determined by (c, n, seed), with ranks drawn from c's table tab.
func (c zipfConfig) generate(name string, n int, seed int64, tab *zipfTable) *trace.Trace {
	r := rand.New(rand.NewSource(seed ^ int64(hashName(name))))
	total := tab.total()

	t := trace.New(name, n)
	churn := 0
	scanNext := zipfScanBase
	scanLeft := 0
	for i := 0; i < n; i++ {
		if c.ChurnEvery > 0 && i > 0 && i%c.ChurnEvery == 0 {
			// Rotate a prime-ish step so successive churns spread across the
			// working set instead of shifting by one.
			churn = (churn + 1 + c.Objects/16) % c.Objects
		}
		if c.ScanEvery > 0 && i > 0 && i%c.ScanEvery == 0 {
			scanLeft = c.ScanLen
		}
		if scanLeft > 0 {
			scanLeft--
			t.Append(trace.Access{PC: zipfScanPC, Addr: scanNext << trace.BlockShift, Kind: trace.Load})
			scanNext++
			continue
		}
		rank := tab.rank(r.Float64() * total)
		obj := (rank + churn) % c.Objects
		block := zipfAddrBase>>trace.BlockShift + uint64(obj*c.Span)
		if c.Span > 1 {
			block += uint64(r.Intn(c.Span))
		}
		kind := trace.Load
		if r.Intn(16) == 0 {
			kind = trace.Store // ~6% writes: cache fills and invalidations
		}
		t.Append(trace.Access{
			PC:   zipfPCBase + uint64(obj%c.PCs)*16,
			Addr: block << trace.BlockShift,
			Kind: kind,
		})
	}
	return t
}
