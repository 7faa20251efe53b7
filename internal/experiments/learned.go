package experiments

// learned.go is the comparative learned-replacement sweep: every learned
// policy family in the repo (Hawkeye's OPT-trained classifier, Glider's
// ISVM, the FRD forward-reuse-distance regressor, the MSA multi-step-ahead
// evictor) against the LRU baseline, across the paper's Table 2 benchmark
// set. It answers how the post-Glider learned families compare on the
// paper's own workloads, on the same grid as every other single-core study.

import (
	"fmt"
	"io"
	"slices"

	"glider/internal/workload"
)

// LearnedPolicySet is the learned-replacement comparison set plus the LRU
// baseline, in render order.
var LearnedPolicySet = []string{"lru", "hawkeye", "glider", "frd", "msa"}

// Learned is the learned-policy sweep: the Table 2 benchmarks in OfflineSet
// order across LearnedPolicySet.
type Learned struct{ Sweep }

// RunLearned sweeps the Table 2 benchmark set across LearnedPolicySet on
// the parallel runner.
func RunLearned(cfg Config) (Learned, error) {
	var names []string
	for _, spec := range workload.OfflineSet() {
		names = append(names, spec.Name)
	}
	s, err := RunSweepExhaustive(cfg, SweepOptions{Workloads: names, Policies: LearnedPolicySet})
	return Learned{s}, err
}

// Render writes one miss-rate row per benchmark, one column per policy,
// plus a speedup-over-LRU summary line per policy.
func (l Learned) Render(w io.Writer) {
	fmt.Fprintln(w, "Learned-policy zoo: LLC miss rate by policy (Table 2 benchmarks)")
	fmt.Fprintf(w, "  %-12s", "benchmark")
	for _, p := range l.Policies {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for wi, b := range l.Workloads {
		fmt.Fprintf(w, "  %-12s", b)
		for pi := range l.Policies {
			fmt.Fprintf(w, " %8.2f%%", 100*l.at(wi, pi).LLCMissRate)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-12s", "ipc vs lru")
	lru := slices.Index(l.Policies, "lru")
	for pi := range l.Policies {
		var sum float64
		n := 0
		for wi := range l.Workloads {
			if base := l.at(wi, lru).IPC; base > 0 {
				sum += l.at(wi, pi).IPC / base
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, " %8.3fx", sum/float64(n))
		} else {
			fmt.Fprintf(w, " %9s", "-")
		}
	}
	fmt.Fprintln(w)
}
