package opt

import "glider/internal/obs"

// OPTgen is the online occupancy-vector algorithm from the Hawkeye paper:
// it reconstructs, for a single cache set, the decisions Belady's MIN would
// have made over a sliding window of recent accesses. Hawkeye and Glider
// both attach one OPTgen instance to each sampled set and use its verdicts
// as supervised training signal.
//
// The algorithm maintains an occupancy count for each time quantum in the
// window (one quantum per set access). When block X is accessed at time t2
// and was previously accessed at time t1 within the window, MIN would have
// hit iff every quantum in [t1, t2) still has spare capacity; in that case
// the quanta are incremented to reserve X's residency.
type OPTgen struct {
	ways      int
	window    int
	occupancy []uint8
	clock     uint64          // absolute per-set access count
	last      Table[struct{}] // block → time of its last access

	// Observability (nil when disabled; see AttachObs).
	obsVerdicts *obs.Vec
	obsOcc      *obs.Histogram
}

// VerdictLabels names the Verdict values in order, for obs vectors.
var VerdictLabels = []string{"miss", "hit", "cold", "expired"}

// AttachObs publishes this instance's verdict counts and occupancy-vector
// utilization into shared metrics (typically one pair shared by every
// sampled set of a policy). Nil arguments leave observability disabled.
func (g *OPTgen) AttachObs(verdicts *obs.Vec, occupancy *obs.Histogram) {
	g.obsVerdicts = verdicts
	g.obsOcc = occupancy
}

// utilization returns the mean occupancy over the history window as a
// fraction of associativity — how full MIN's reconstructed cache is. Only
// computed when observability is attached.
func (g *OPTgen) utilization() float64 {
	total := 0
	for _, o := range g.occupancy {
		total += int(o)
	}
	return float64(total) / float64(len(g.occupancy)*g.ways)
}

// DefaultWindowFactor is the history length multiplier used by Hawkeye
// (window = 8 × associativity).
const DefaultWindowFactor = 8

// NewOPTgen creates an OPTgen instance for a set with the given
// associativity and history window (in set accesses). A window of 0 selects
// the Hawkeye default of 8× associativity.
func NewOPTgen(ways, window int) *OPTgen {
	return &NewOPTgens(1, ways, window)[0]
}

// NewOPTgens creates n OPTgen instances, one per sampled set, as NewOPTgen
// would. Their occupancy vectors and block tables are carved from shared
// slabs, so a cache's worth of instances costs a handful of allocations.
func NewOPTgens(n, ways, window int) []OPTgen {
	if window <= 0 {
		window = DefaultWindowFactor * ways
	}
	occupancy := make([]uint8, n*window)
	// Room for half a window of distinct blocks per set; sets that hold
	// more (up to the garbage collector's 4× window) grow on their own.
	last := NewTables[struct{}](n, window/2)
	gens := make([]OPTgen, n)
	for i := range gens {
		gens[i] = OPTgen{
			ways:      ways,
			window:    window,
			occupancy: occupancy[i*window : (i+1)*window : (i+1)*window],
			last:      last[i],
		}
	}
	return gens
}

// Reset returns the instance to the state NewOPTgens builds: no accesses
// seen and an empty occupancy vector. Attached metrics stay attached.
func (g *OPTgen) Reset() {
	clear(g.occupancy)
	g.clock = 0
	g.last.Reset()
}

// Verdict is OPTgen's decision for one access.
type Verdict int

// Verdict values.
const (
	// VerdictMiss means MIN would have missed (the line was not worth
	// caching): negative training signal for the previous toucher's PC.
	VerdictMiss Verdict = iota
	// VerdictHit means MIN would have hit: positive training signal.
	VerdictHit
	// VerdictCold means the block has never been seen before, so no
	// training signal is generated.
	VerdictCold
	// VerdictExpired means the block's previous access fell outside the
	// history window without being reused — the hardware analog of a
	// sampler entry evicted un-reused, which Hawkeye detrains (negative
	// signal for the previous toucher's PC).
	VerdictExpired
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictMiss:
		return "miss"
	case VerdictHit:
		return "hit"
	case VerdictCold:
		return "cold"
	case VerdictExpired:
		return "expired"
	default:
		return "verdict(?)"
	}
}

// Access records one access to the set and returns MIN's reconstructed
// outcome for it.
func (g *OPTgen) Access(block uint64) Verdict {
	t2 := g.clock
	verdict := VerdictCold
	if t1, _, ok := g.last.Touch(block, t2); ok {
		if t2-t1 >= uint64(g.window) {
			verdict = VerdictExpired
		} else {
			// Check capacity over [t1, t2).
			fits := true
			for t := t1; t < t2; t++ {
				if g.occupancy[t%uint64(g.window)] >= uint8(g.ways) {
					fits = false
					break
				}
			}
			if fits {
				for t := t1; t < t2; t++ {
					g.occupancy[t%uint64(g.window)]++
				}
				verdict = VerdictHit
			} else {
				verdict = VerdictMiss
			}
		}
	}
	if g.obsVerdicts != nil || g.obsOcc != nil {
		g.obsVerdicts.Inc(int(verdict))
		g.obsOcc.Observe(g.utilization())
	}
	g.occupancy[t2%uint64(g.window)] = 0
	g.clock++
	// Garbage-collect entries at least a window old occasionally so the
	// table stays bounded.
	if g.last.Len() > 4*g.window && g.clock%uint64(g.window) == 0 {
		g.last.Prune(t2, uint64(g.window)-1)
	}
	return verdict
}

// Clock returns the number of accesses observed.
func (g *OPTgen) Clock() uint64 { return g.clock }
