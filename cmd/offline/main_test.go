package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glider/internal/trace"
	"glider/internal/workload"
)

// TestOfflineUsageErrors: a trace length, history length or epoch count
// below 1, or an unknown model name, is a usage error (exit 2) reported
// before any dataset is built.
func TestOfflineUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-accesses", "-5"},
		{"-epochs", "0"},
		{"-k", "0"},
		{"-h", "0"},
		{"-lstm-n", "0"},
		{"-lstm-epochs", "0"},
		{"-models", "lstm", "-lstm-n", "-3"},
		{"-models", "isvm,lstn"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) started work before rejecting its flags: %s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of offline") {
			t.Errorf("run(%q) printed no usage: %s", args, stderr.String())
		}
	}
}

func TestOfflineUnknownBench(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "no-such-benchmark"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown -bench exited %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// TestOfflineTrainsOnChampSimFile: -bench takes a ChampSim file, written as
// `tracegen -champsim` writes it, through the champsim spec scheme, and
// every model trains on it.
func TestOfflineTrainsOnChampSimFile(t *testing.T) {
	spec, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mcf.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, spec.Generate(30000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "champsim(file=" + path + ")", "-accesses", "30000", "-models", "all",
		"-epochs", "1", "-lstm-epochs", "1", "-lstm-n", "8"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"building dataset for champsim(file=", "dataset: ", "hawkeye", "perceptron (ordered history h=3)",
		"offline ISVM (unique PCs k=5)", "attention LSTM (N=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
