package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunLearnedSweep(t *testing.T) {
	cfg := Quick()
	cfg.Accesses = 8_000
	l, err := RunLearned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) == 0 {
		t.Fatal("no benchmarks")
	}
	if len(l.Cells) != len(l.Workloads)*len(l.Policies) {
		t.Fatalf("got %d cells, want %d", len(l.Cells), len(l.Workloads)*len(l.Policies))
	}
	for _, c := range l.Cells {
		if c.LLCMissRate < 0 || c.LLCMissRate > 1 {
			t.Fatalf("cell %s/%s: miss rate %v", c.Workload, c.Policy, c.LLCMissRate)
		}
		if c.IPC <= 0 {
			t.Fatalf("cell %s/%s: IPC %v", c.Workload, c.Policy, c.IPC)
		}
	}
	var buf bytes.Buffer
	l.Render(&buf)
	for _, p := range l.Policies {
		if !strings.Contains(buf.String(), p) {
			t.Fatalf("render missing policy column %s", p)
		}
	}
	if !strings.Contains(buf.String(), "ipc vs lru") {
		t.Fatal("render missing the speedup summary row")
	}
}

// TestZooIncludesReuseDistanceFamily pins the zoo comparison set: the new
// learned families must sweep alongside the paper's policies.
func TestZooIncludesReuseDistanceFamily(t *testing.T) {
	t.Parallel()
	want := map[string]bool{"frd": true, "msa": true, "lru": true, "glider": true}
	for _, p := range ZooPolicySet {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("ZooPolicySet %v missing %v", ZooPolicySet, want)
	}
}

// TestPredictCellModelRows: FRD and MSA predict cells must carry model
// introspection rows (the reuse-distance analog of Glider's ISVM rows), and
// Glider/Hawkeye cells must not grow a model_rows field.
func TestPredictCellModelRows(t *testing.T) {
	t.Parallel()
	const accesses = 40_000
	for _, pol := range []string{"frd", "msa"} {
		res, err := RunPredictCell(context.Background(), "omnetpp", pol, accesses, 42, 8, 4)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if len(res.Verdicts) == 0 {
			t.Fatalf("%s: no per-PC verdicts", pol)
		}
		if len(res.ModelRows) == 0 || len(res.ModelRows) > 4 {
			t.Fatalf("%s: got %d model rows, want 1..4", pol, len(res.ModelRows))
		}
		if len(res.ISVMRows) != 0 {
			t.Fatalf("%s: unexpected ISVM rows", pol)
		}
		wantSteps := 1
		if pol == "msa" {
			wantSteps = 4
		}
		for _, r := range res.ModelRows {
			if r.Samples == 0 || len(r.Predicted) != wantSteps {
				t.Fatalf("%s: malformed model row %+v", pol, r)
			}
		}
	}
	res, err := RunPredictCell(context.Background(), "omnetpp", "glider", accesses, 42, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ModelRows) != 0 {
		t.Fatal("glider predict cell must not carry model rows")
	}
	if len(res.ISVMRows) == 0 {
		t.Fatal("glider predict cell lost its ISVM rows")
	}
}
