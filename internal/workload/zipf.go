package workload

import (
	"math"
	"math/rand"
	"sort"

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

// Generate produces the deterministic object stream: n accesses named name,
// fully determined by (c, n, seed).
func (c zipfConfig) Generate(name string, n int, seed int64) *trace.Trace {
	c = c.normalized()
	r := rand.New(rand.NewSource(seed ^ int64(hashName(name))))
	// Cumulative rank weights; sampling is a binary search over them. The
	// explicit table (rather than rand.Zipf) supports any skew ≥ 0 and makes
	// the distribution available to tests.
	cum := zipfCumWeights(c.Objects, c.Skew)
	total := cum[len(cum)-1]

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
		rank := sort.SearchFloat64s(cum, r.Float64()*total)
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

// zipfCumWeights returns the cumulative weights w_i = Σ_{j≤i} 1/(j+1)^s.
func zipfCumWeights(objects int, skew float64) []float64 {
	cum := make([]float64, objects)
	sum := 0.0
	for i := 0; i < objects; i++ {
		sum += math.Pow(float64(i+1), -skew)
		cum[i] = sum
	}
	return cum
}
