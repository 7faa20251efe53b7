package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"glider/internal/experiments"
	"glider/internal/policy"
	"glider/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestLatencyFailedRoundReadsAsWall(t *testing.T) {
	o := &outcome{}
	latencyMetrics(o, "", []round{{latency: []float64{0.001, math.Inf(1)}, wall: 2}}, timedPercentiles)
	if len(o.metrics) != len(timedPercentiles) {
		t.Fatalf("got %d metrics, want %d", len(o.metrics), len(timedPercentiles))
	}
	for _, m := range o.metrics {
		if m.Name == "latency_p95_ms" && m.Value != 2000 {
			t.Errorf("p95 over a failed request = %v ms, want the round's 2000 ms", m.Value)
		}
	}
}

func TestBalancedRoundsHoldTheSameMix(t *testing.T) {
	specs, err := resolveSpecs(experiments.BenchSweepWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	pols := policy.Names()
	jobs := missJobs(specs, pols, 1000, []int64{1, 2})
	types := len(pols) + len(policy.PredictorNames())
	ordered, size := balancedRounds(jobs, types, missRounds, rand.New(rand.NewSource(1)))
	if len(ordered) != len(jobs) || size*missRounds != len(jobs) {
		t.Fatalf("%d jobs in rounds of %d, want %d jobs in %d equal rounds", len(ordered), size, len(jobs), missRounds)
	}
	seen := make(map[server.JobSpec]bool)
	for r := 0; r < missRounds; r++ {
		mix := make(map[[2]string]int)
		for _, j := range ordered[r*size : (r+1)*size] {
			mix[[2]string{j.Kind, j.Policy}]++
			seen[j] = true
		}
		for typ, n := range mix {
			if n != len(jobs)/types/missRounds {
				t.Errorf("round %d has %d jobs of %v, want %d", r, n, typ, len(jobs)/types/missRounds)
			}
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("rounds hold %d distinct jobs, want %d", len(seen), len(jobs))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "cell", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "run", Start: 2 * time.Millisecond, End: 6 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "run", Start: 5 * time.Millisecond, End: 8 * time.Millisecond},
	}}
	st := tr.selfTimes()
	if got := st["cell"]; got != [2]time.Duration{10 * time.Millisecond, 4 * time.Millisecond} {
		t.Errorf("cell total, self = %v, want 10ms, 4ms", got)
	}
}
