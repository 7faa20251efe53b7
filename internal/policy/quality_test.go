package policy

// quality_test.go is the prediction-quality regression wall for the learned
// reuse-distance models: seeded runs over scenario-zoo workloads must keep
// the FRD regressor's mean absolute error and the MSA model's top-k
// accuracy inside checked-in tolerances. A silent model regression —
// a feature-hash change, a training-rate tweak, an ordering bug — fails
// here rather than only shifting Table 2 numbers.

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/workload"
)

// qualityGeometry is deliberately smaller than the real LLC so the models
// face replacement pressure in a fast test.
const (
	qualitySets     = 256
	qualityWays     = 8
	qualityAccesses = 120_000
	qualitySeed     = 7
)

// qualityScenarios are the zoo workloads the tolerances are pinned on: a
// skewed object stream, the same stream under scan interference, and a SPEC
// benchmark from the paper's set.
var qualityScenarios = []string{
	"zipf(objects=16384,skew=0.9)",
	"zipf(objects=16384,skew=0.9,scan-every=20000,scan-len=2048)",
	"omnetpp",
}

// runQuality drives a fresh policy over the seeded scenario and returns it
// for metric inspection.
func runQuality(t *testing.T, build func() cache.Policy, scenario string) cache.Policy {
	t.Helper()
	spec, err := workload.Resolve(scenario)
	if err != nil {
		t.Fatalf("resolve %q: %v", scenario, err)
	}
	tr, err := spec.GenerateE(qualityAccesses, qualitySeed)
	if err != nil {
		t.Fatalf("generate %q: %v", scenario, err)
	}
	p := build()
	c, err := cache.New(cache.Config{Name: "llc", Sets: qualitySets, Ways: qualityWays}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr.Accesses {
		c.Access(a.PC, a.Block(), a.Core, a.Kind)
	}
	return p
}

// TestFRDRegressorQuality pins the FRD regressor's error on the quality
// scenarios. The tolerances have headroom over the measured values (see the
// log line) but catch order-of-magnitude regressions.
func TestFRDRegressorQuality(t *testing.T) {
	t.Parallel()
	// scenario → (max mean abs error in buckets, min train events)
	tolerances := map[string]struct {
		maxErr    float64
		minTrains uint64
	}{
		// Measured 2026-08: 2.97 / 2.99 / 0.57 mean abs error buckets and
		// 85k / 76k / 2.5k training events; tolerances carry ~30% headroom.
		"zipf(objects=16384,skew=0.9)":                                {maxErr: 3.80, minTrains: 60_000},
		"zipf(objects=16384,skew=0.9,scan-every=20000,scan-len=2048)": {maxErr: 3.80, minTrains: 50_000},
		"omnetpp": {maxErr: 1.00, minTrains: 1_500},
	}
	for _, scen := range qualityScenarios {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			t.Parallel()
			p := runQuality(t, func() cache.Policy { return NewFRD(qualitySets, qualityWays) }, scen).(*Reuse)
			d := p.Debug()
			tol := tolerances[scen]
			t.Logf("frd %s: trains=%d expiries=%d meanAbsErr=%.3f", scen, d.TrainEvents, d.Expiries, d.MeanAbsErr())
			if d.TrainEvents < tol.minTrains {
				t.Fatalf("only %d training events, want ≥ %d — sampler broken?", d.TrainEvents, tol.minTrains)
			}
			if got := d.MeanAbsErr(); got > tol.maxErr {
				t.Fatalf("mean abs error %.3f buckets exceeds tolerance %.2f", got, tol.maxErr)
			}
			rows := p.TopModelRows(8)
			if len(rows) == 0 {
				t.Fatal("no model introspection rows after a full run")
			}
			for _, r := range rows {
				if r.Samples == 0 || len(r.ErrHist) != 9 || len(r.Predicted) != 1 {
					t.Fatalf("malformed model row %+v", r)
				}
			}
		})
	}
}

// TestMSAModelQuality pins MSA's step-1 error and top-k accuracy on the
// quality scenarios.
func TestMSAModelQuality(t *testing.T) {
	t.Parallel()
	tolerances := map[string]struct {
		maxErr  float64
		minTopK float64
	}{
		// Measured 2026-08: 2.28 / 2.30 / 0.58 step-1 error and 0.78 /
		// 0.77 / 0.996 top-4 accuracy; tolerances carry ~30% headroom.
		"zipf(objects=16384,skew=0.9)":                                {maxErr: 3.00, minTopK: 0.60},
		"zipf(objects=16384,skew=0.9,scan-every=20000,scan-len=2048)": {maxErr: 3.00, minTopK: 0.60},
		"omnetpp": {maxErr: 1.00, minTopK: 0.90},
	}
	for _, scen := range qualityScenarios {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			t.Parallel()
			p := runQuality(t, func() cache.Policy { return NewMSA(qualitySets, qualityWays) }, scen).(*Reuse)
			d := p.Debug()
			tol := tolerances[scen]
			t.Logf("msa %s: trains=%d meanAbsErr=%.3f topK=%.3f", scen, d.TrainEvents, d.MeanAbsErr(), d.TopKAccuracy())
			if d.TrainEvents < 1_500 {
				t.Fatalf("only %d training events — sampler broken?", d.TrainEvents)
			}
			if got := d.MeanAbsErr(); got > tol.maxErr {
				t.Fatalf("step-1 mean abs error %.3f buckets exceeds tolerance %.2f", got, tol.maxErr)
			}
			if got := d.TopKAccuracy(); got < tol.minTopK {
				t.Fatalf("top-%d accuracy %.3f below floor %.2f", p.Steps(), got, tol.minTopK)
			}
			rows := p.TopModelRows(8)
			if len(rows) == 0 {
				t.Fatal("no model introspection rows after a full run")
			}
			for _, r := range rows {
				if len(r.Predicted) != p.Steps() {
					t.Fatalf("model row predicts %d steps, want %d", len(r.Predicted), p.Steps())
				}
			}
		})
	}
}

// TestLearnedPolicyDeterminism reruns each learned policy on the same
// seeded scenario and requires identical counters and model rows — the
// property the byte-identity differential suites depend on.
func TestLearnedPolicyDeterminism(t *testing.T) {
	t.Parallel()
	scen := qualityScenarios[1]
	frdA := runQuality(t, func() cache.Policy { return NewFRD(qualitySets, qualityWays) }, scen).(*Reuse)
	frdB := runQuality(t, func() cache.Policy { return NewFRD(qualitySets, qualityWays) }, scen).(*Reuse)
	if frdA.Debug() != frdB.Debug() {
		t.Fatalf("FRD counters diverge across identical runs:\n%+v\n%+v", frdA.Debug(), frdB.Debug())
	}
	msaA := runQuality(t, func() cache.Policy { return NewMSA(qualitySets, qualityWays) }, scen).(*Reuse)
	msaB := runQuality(t, func() cache.Policy { return NewMSA(qualitySets, qualityWays) }, scen).(*Reuse)
	if msaA.Debug() != msaB.Debug() {
		t.Fatalf("MSA counters diverge across identical runs:\n%+v\n%+v", msaA.Debug(), msaB.Debug())
	}
	rowsA, rowsB := frdA.TopModelRows(32), frdB.TopModelRows(32)
	if len(rowsA) != len(rowsB) {
		t.Fatalf("FRD row counts diverge: %d vs %d", len(rowsA), len(rowsB))
	}
	for i := range rowsA {
		a, b := rowsA[i], rowsB[i]
		if a.PC != b.PC || a.Samples != b.Samples || a.MeanAbsErr != b.MeanAbsErr {
			t.Fatalf("FRD row %d diverges: %+v vs %+v", i, a, b)
		}
	}
}
