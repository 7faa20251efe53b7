package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glider/internal/trace"
	"glider/internal/workload"
)

func TestRunZooDefaultScenarios(t *testing.T) {
	cfg := Quick()
	cfg.Accesses = 8_000
	z, err := RunZoo(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Workloads) != len(DefaultZoo()) {
		t.Fatalf("got %d scenarios, want %d", len(z.Workloads), len(DefaultZoo()))
	}
	if len(z.Cells) != len(z.Workloads)*len(z.Policies) {
		t.Fatalf("got %d cells, want %d", len(z.Cells), len(z.Workloads)*len(z.Policies))
	}
	seen := map[string]bool{}
	for _, c := range z.Cells {
		if c.LLCMissRate < 0 || c.LLCMissRate > 1 {
			t.Fatalf("cell %s/%s: miss rate %v", c.Workload, c.Policy, c.LLCMissRate)
		}
		if c.IPC <= 0 {
			t.Fatalf("cell %s/%s: IPC %v", c.Workload, c.Policy, c.IPC)
		}
		seen[c.Workload+"/"+c.Policy] = true
	}
	if len(seen) != len(z.Cells) {
		t.Fatal("duplicate cells")
	}
	var buf bytes.Buffer
	z.Render(&buf)
	for _, s := range z.Workloads {
		if !strings.Contains(buf.String(), s) {
			t.Fatalf("render missing scenario %s", s)
		}
	}
}

// TestRunZooAcceptsCustomSpecs covers the three ingest scheme families in
// one sweep, including a file-backed champsim scenario.
func TestRunZooAcceptsCustomSpecs(t *testing.T) {
	spec, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mcf.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, spec.Generate(4000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Quick()
	cfg.Accesses = 4_000
	z, err := RunZoo(cfg, []string{
		"champsim(file=" + path + ")",
		"zipf(objects=512,skew=1)",
		"mix(rr,mcf,libquantum)",
		"omnetpp", // registry names work too
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Cells) != 4*len(zooPolicySet) {
		t.Fatalf("got %d cells", len(z.Cells))
	}

	if _, err := RunZoo(cfg, []string{"zipf(objects=0,skew=1)"}); err == nil {
		t.Fatal("malformed zoo spec accepted")
	}
}
