package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"glider/internal/estimate"
	"glider/internal/policy"
)

// TestBenchModelLoads pins the embedded full-fidelity model: it must load,
// validate, and carry a head for every registered policy — otherwise the
// sweep benchmarks would silently fall back to exact simulation for the
// missing policies and the recorded prune factor would be fiction.
func TestBenchModelLoads(t *testing.T) {
	est, err := BenchEstimator()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.Policies(), policy.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("embedded model policies %v, want the full registry %v", got, want)
	}
	cfg := BenchTrainConfig()
	if est.Inflate != cfg.Inflate || est.MinMissBound != cfg.MinMissBound {
		t.Fatalf("embedded model bound params (%.3f, %.4f) drifted from BenchTrainConfig (%.3f, %.4f)",
			est.Inflate, est.MinMissBound, cfg.Inflate, cfg.MinMissBound)
	}
}

// TestBenchModelDigest pins the decoded embedded model: the SHA-256 of its
// JSON encoding (encoding/json sorts map keys, so the digest does not
// depend on the order gob wrote the heads in). A change to how Save and
// Load encode a model must decode the committed file to the same model.
func TestBenchModelDigest(t *testing.T) {
	est, err := BenchEstimator()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "9c2eded42ad711eda5c75ef35aa6e072c237bb3f39f4fe0174797d0f563f426f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("decoded bench model digest %s, want %s", got, want)
	}
}

// TestRegenerateBenchModel rewrites benchmodel.gob by retraining with
// BenchTrainConfig — a full-fidelity run, so it only executes when asked:
//
//	GLIDER_REGEN_BENCH_MODEL=1 go test -run TestRegenerateBenchModel -timeout 60m ./internal/experiments/
//
// Training is deterministic, so rerunning it on an unchanged tree rewrites
// an equal model, but not the same bytes: gob writes the heads map in Go's
// random iteration order. Compare two files by their decoded models.
func TestRegenerateBenchModel(t *testing.T) {
	if os.Getenv("GLIDER_REGEN_BENCH_MODEL") == "" {
		t.Skip("set GLIDER_REGEN_BENCH_MODEL=1 to retrain and rewrite benchmodel.gob (full-fidelity training run)")
	}
	est, rep, err := estimate.Train(context.Background(), BenchTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create("benchmodel.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := est.Save(f); err != nil {
		t.Fatal(err)
	}
	t.Logf("retrained on %d cells: mean MAE miss %.4f, max bound %.4f", rep.Cells, rep.MeanMAEMiss, rep.MaxQMiss)
}
