package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"glider/internal/estimate"
	"glider/internal/ledger"
	"glider/internal/policy"
)

// pinnedGridDigest is the SHA-256 of the canonical JSON of the cells of
// the quick sweep over BenchSweepWorkloads × every registered policy at
// seed 42, computed as perfbench's sweep workload computes its pinned
// digest. A change that alters any simulated number of any cell moves it.
const pinnedGridDigest = "21016eb0eb29f9088b7e3dd3e7bb1255225bd9b8caac7665a354f4031b9d90ba"

// TestSweepGridPinned runs the quick benchmark grid on one worker and on
// two. Its cells share one LLC pool, so which LLC a cell replays on depends
// on scheduling: the two runs must give identical cells, and their digest
// must be the pinned one.
func TestSweepGridPinned(t *testing.T) {
	opts := SweepOptions{Workloads: BenchSweepWorkloads(), Policies: policy.Names()}
	var cells [][]SweepCell
	for _, workers := range []int{1, 2} {
		cfg := Quick()
		cfg.Workers = workers
		s, err := RunSweepExhaustive(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, s.Cells)
	}
	if !reflect.DeepEqual(cells[0], cells[1]) {
		t.Fatal("the grid's cells differ between one worker and two")
	}
	data, err := ledger.CanonicalJSON(cells[1])
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedGridDigest {
		t.Fatalf("grid digest %s, want %s", got, pinnedGridDigest)
	}
}

// sweepTestModel trains a small surrogate for the sweep tests: three
// workloads, six policies, one trace length. 60k accesses is the shortest
// trace where the policies genuinely separate on these workloads (shorter
// traces never fill the 2 MiB LLC, every policy ties at cold-miss rate,
// and the margin set degenerates to the whole grid).
func sweepTestModel(t *testing.T) (*estimate.Estimator, []string, []string) {
	t.Helper()
	wls := []string{"omnetpp", "mcf", "sphinx3"}
	pols := []string{"lru", "lfu", "srrip", "ship++", "dip", "mru"}
	est, _, err := estimate.Train(context.Background(), estimate.TrainConfig{
		Workloads:    wls,
		Policies:     pols,
		AccessesList: []int{60_000},
		Seed:         1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est, wls, pols
}

// TestSweepPrunedNeverWrongOnFrontier is the pruning guarantee the ISSUE
// demands a proof for: on a grid the surrogate has never seen (a fresh
// trace seed), the pruned sweep's frontier must be identical to the
// exhaustive sweep's, every frontier cell must be exact, and every cell
// both sweeps simulated exactly must be bit-identical. The policy list
// includes one policy the model has no head for, so the gate-refusal
// fallback path is exercised too.
func TestSweepPrunedNeverWrongOnFrontier(t *testing.T) {
	est, wls, pols := sweepTestModel(t)
	pols = append(pols, "glider") // untrained: the gate must force exact simulation

	cfg := Quick() // 60k accesses at seed 42 — a seed no training split saw
	opts := SweepOptions{Workloads: wls, Policies: pols, Estimator: est}

	pr, err := RunSweepPruned(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := RunSweepExhaustive(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(pr.Frontier, ex.Frontier) {
		t.Fatalf("pruned frontier diverges from exhaustive:\npruned:     %+v\nexhaustive: %+v", pr.Frontier, ex.Frontier)
	}
	for _, c := range pr.Frontier {
		if c.Source != "exact" {
			t.Fatalf("frontier cell %s/%s reported from source %q, want exact", c.Workload, c.Policy, c.Source)
		}
	}

	if len(pr.Cells) != len(wls)*len(pols) || len(pr.Cells) != len(ex.Cells) {
		t.Fatalf("pruned sweep has %d cells, want %d", len(pr.Cells), len(wls)*len(pols))
	}
	if pr.ExactCells+pr.SurrogateCells != len(pr.Cells) {
		t.Fatalf("cell accounting: %d exact + %d surrogate != %d cells", pr.ExactCells, pr.SurrogateCells, len(pr.Cells))
	}
	if pr.SurrogateCells == 0 {
		t.Fatal("no cells were pruned: the surrogate did nothing")
	}

	// Shared exact cells are bit-identical (same simulation entry point),
	// untrained-policy cells are always exact, and surrogate cells carry a
	// positive bound.
	exact := make(map[string]SweepCell, len(ex.Cells))
	for _, c := range ex.Cells {
		exact[c.Workload+"\x00"+c.Policy] = c
	}
	for _, c := range pr.Cells {
		if c.Source == "exact" {
			want := exact[c.Workload+"\x00"+c.Policy]
			if c != want {
				t.Fatalf("exact cell %s/%s differs between pruned and exhaustive: %+v vs %+v", c.Workload, c.Policy, c, want)
			}
			continue
		}
		if c.Policy == "glider" {
			t.Fatalf("untrained policy served by the surrogate: %+v", c)
		}
		if c.MissRateBound <= 0 {
			t.Fatalf("surrogate cell %s/%s has no error bound: %+v", c.Workload, c.Policy, c)
		}
	}
}

// TestSweepPrunedDeterministicAcrossWorkers pins that the pruned sweep —
// surrogate pass, two exact batches, frontier — is bit-identical across
// worker counts and reruns, the property the byte-identity guarantees of
// /v1/estimate and the gateway cache rest on.
func TestSweepPrunedDeterministicAcrossWorkers(t *testing.T) {
	est, wls, pols := sweepTestModel(t)
	cfg := Quick()
	var base Sweep
	for i, workers := range []int{0, 1, 4} {
		cfg.Workers = workers
		s, err := RunSweepPruned(cfg, SweepOptions{Workloads: wls, Policies: pols, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = s
			continue
		}
		if !reflect.DeepEqual(s, base) {
			t.Fatalf("workers=%d: pruned sweep differs from baseline", workers)
		}
	}
}

// TestSweepPrunedNeedsEstimator: pruning without a model is an error, not a
// silent fallback onto a process-wide one.
func TestSweepPrunedNeedsEstimator(t *testing.T) {
	t.Parallel()
	if _, err := RunSweepPruned(Quick(), SweepOptions{Workloads: []string{"mcf"}, Policies: []string{"lru"}}); err == nil {
		t.Fatal("RunSweepPruned without an estimator succeeded")
	}
}
