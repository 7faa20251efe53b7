package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glider/internal/trace"
	"glider/internal/workload"
)

// TestLoadTrace pins what -bench and -accesses load: a generated workload
// of N accesses, a ChampSim file whole at -accesses 0, and an error, never
// an empty trace, for a generated workload at -accesses 0.
func TestLoadTrace(t *testing.T) {
	mcf, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mcf.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, mcf.Generate(3000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	file := "champsim(file=" + path + ")"

	for _, c := range []struct {
		bench    string
		accesses int
		want     int
	}{
		{"mcf", 1000, 1000},
		{file, 0, 3000},
		{file, 1000, 1000},
	} {
		tr, err := loadTrace(c.bench, c.accesses, 42)
		if err != nil {
			t.Fatalf("loadTrace(%q, %d): %v", c.bench, c.accesses, err)
		}
		if tr.Len() != c.want {
			t.Errorf("loadTrace(%q, %d) has %d accesses, want %d", c.bench, c.accesses, tr.Len(), c.want)
		}
	}

	for _, c := range []struct {
		bench    string
		accesses int
		wantErr  string
	}{
		{"mcf", 0, "0 means the whole file only for champsim(file=...)"},
		{"zipf(objects=64,skew=0.9)", 0, "empty trace"},
		{"", 1000, "-bench is required"},
		{"nosuch", 1000, "nosuch"},
	} {
		tr, err := loadTrace(c.bench, c.accesses, 42)
		if err == nil {
			t.Errorf("loadTrace(%q, %d) = %d accesses, want an error", c.bench, c.accesses, tr.Len())
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("loadTrace(%q, %d) error %q does not mention %q", c.bench, c.accesses, err, c.wantErr)
		}
	}
}
