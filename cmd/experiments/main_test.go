package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"glider/internal/experiments"
	"glider/internal/ledger"
)

// TestRunRecordsEmittedZoo pins what -ledger records: the zoo result the
// run emits, under the content address any holder of the emitted JSON can
// derive, and nothing at all when no ledger is open.
func TestRunRecordsEmittedZoo(t *testing.T) {
	cfg := experiments.Quick()
	cfg.Accesses = 4_000
	specs := []string{"zipf(objects=512,skew=1)", "mcf"}
	led, err := ledger.New(ledger.NewMemory(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run("zoo", cfg, specs, nil, true, &out, led); err != nil {
		t.Fatal(err)
	}
	var emitted struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &emitted); err != nil {
		t.Fatal(err)
	}
	id, err := ledger.ArtifactIDFor(experiments.LedgerKindZoo, emitted.Result)
	if err != nil {
		t.Fatal(err)
	}
	a, err := led.Get(id)
	if err != nil {
		t.Fatalf("the emitted zoo was not recorded under its content address: %v", err)
	}
	if a.Kind != experiments.LedgerKindZoo {
		t.Fatalf("recorded kind %q", a.Kind)
	}
	if head := led.Root(); head.Artifacts+head.Pending != 1 {
		t.Fatalf("one zoo run recorded %+v", head)
	}

	// Without a ledger the same run records nothing: no recorder outlives
	// the call that was handed one.
	var again bytes.Buffer
	if err := run("zoo", cfg, specs, nil, true, &again, nil); err != nil {
		t.Fatal(err)
	}
	if again.String() != out.String() {
		t.Fatal("recording changed the emitted result")
	}
	cfg.Seed++
	if err := run("zoo", cfg, specs, nil, false, &again, nil); err != nil {
		t.Fatal(err)
	}
	if head := led.Root(); head.Artifacts+head.Pending != 1 {
		t.Fatalf("a run without a ledger recorded into one: %+v", head)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
}
