package experiments

import (
	"fmt"
	"io"
)

// ---------------------------------------------------------------- Scenario zoo

// The scenario zoo extends the paper's synthetic benchmark study to the
// ingestion pipeline's workloads: Zipf object streams, multi-tenant mixes,
// and (when the caller supplies file specs) real ChampSim traces. It answers
// the same question as Figure 11 — which policy wins, by how much — on
// cache-service-shaped traffic instead of SPEC-shaped traffic.

// DefaultZoo is the built-in scenario set: a skewed CDN steady state, the
// same stream under periodic scans and popularity churn, and two-tenant
// mixes under both arrival disciplines.
func DefaultZoo() []string {
	// Working sets are sized past the 2 MB LLC (32768 blocks) so policies
	// face genuine replacement pressure rather than pure cold misses.
	return []string{
		"zipf(objects=65536,skew=0.9)",
		"zipf(objects=65536,skew=0.9,scan-every=20000,scan-len=4096)",
		"zipf(objects=65536,skew=0.7,churn-every=50000)",
		"mix(rr,zipf(objects=49152,skew=0.9),mcf)",
		"mix(poisson,zipf(objects=49152,skew=1.1),libquantum,p=0.7)",
	}
}

// Zoo is the scenario-zoo sweep: every scenario across zooPolicySet,
// scenarios in input order.
type Zoo struct{ Sweep }

// zooPolicySet is the comparison set for the scenario zoo: the paper's four
// policies, the LRU baseline the service deployments care about, and the
// reuse-distance family (FRD regressor, MSA multi-step evictor).
var zooPolicySet = append(append([]string{"lru"}, policySet...), "frd", "msa")

// RunZoo sweeps every scenario spec across zooPolicySet on the parallel
// runner. Specs resolve through workload.Resolve, so registry names and
// ingest spec strings both work; results echo canonical names.
func RunZoo(cfg Config, specs []string) (Zoo, error) {
	if len(specs) == 0 {
		specs = DefaultZoo()
	}
	s, err := RunSweepExhaustive(cfg, SweepOptions{Workloads: specs, Policies: zooPolicySet})
	return Zoo{s}, err
}

// Render writes one miss-rate row per scenario, one column per policy.
func (z Zoo) Render(w io.Writer) {
	fmt.Fprintln(w, "Scenario zoo: LLC miss rate by policy")
	fmt.Fprintf(w, "  %-64s", "scenario")
	for _, p := range z.Policies {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for wi, s := range z.Workloads {
		fmt.Fprintf(w, "  %-64s", s)
		for pi := range z.Policies {
			fmt.Fprintf(w, " %8.2f%%", 100*z.at(wi, pi).LLCMissRate)
		}
		fmt.Fprintln(w)
	}
}
