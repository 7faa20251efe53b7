package experiments

import (
	"fmt"
	"io"
	"slices"
)

// Lineage: the evolution §2.1 describes, measured — from recency (LRU/LIP/
// DIP) through frequency (LFU/LRFU), re-reference prediction (SRRIP/DRRIP),
// pollution filters (EAF), sampler-trained dead-block/signature predictors
// (SDBP, SHiP++), perceptron-based reuse prediction (Perceptron, MPPPB),
// to learning from the optimal solution (Hawkeye, Glider).

// lineagePolicies is the ordering used in the study (roughly historical).
var lineagePolicies = []string{
	"lru", "lip", "dip", "lfu", "lrfu", "srrip", "drrip", "eaf",
	"sdbp", "ship++", "perceptron", "mpppb", "hawkeye", "glider",
}

// Lineage is the full study: a representative benchmark triple
// (pointer-chasing, context-dependent, graph) across lineagePolicies.
type Lineage struct{ Sweep }

// RunLineage measures every policy on the benchmark triple.
func RunLineage(cfg Config) (Lineage, error) {
	s, err := RunSweepExhaustive(cfg, SweepOptions{Workloads: []string{"mcf", "omnetpp", "bfs"}, Policies: lineagePolicies})
	return Lineage{s}, err
}

// avgReduction is policy pi's mean miss reduction over LRU (%), averaged
// over every benchmark (one with a zero LRU miss rate counts as 0).
func (l Lineage) avgReduction(pi int) float64 {
	lru := slices.Index(l.Policies, "lru")
	sum := 0.0
	for wi := range l.Workloads {
		if base := l.at(wi, lru).LLCMissRate; base > 0 {
			sum += 100 * (base - l.at(wi, pi).LLCMissRate) / base
		}
	}
	return sum / float64(len(l.Workloads))
}

// Render writes the study.
func (l Lineage) Render(w io.Writer) {
	fmt.Fprintln(w, "Lineage study: replacement-policy evolution (§2.1), LLC miss rates")
	fmt.Fprintf(w, "  %-12s", "policy")
	for _, b := range l.Workloads {
		fmt.Fprintf(w, " %10s", b)
	}
	fmt.Fprintf(w, " %12s\n", "avg red.")
	for pi, pol := range l.Policies {
		fmt.Fprintf(w, "  %-12s", pol)
		for wi := range l.Workloads {
			fmt.Fprintf(w, " %9.1f%%", l.at(wi, pi).LLCMissRate*100)
		}
		fmt.Fprintf(w, " %11.1f%%\n", l.avgReduction(pi))
	}
}
