package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestJSONLSinkRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit("cache", "evict", map[string]any{"set": 3, "pc": "0x10"})
	s.Emit("dram", "stall", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("seqs = %d %d", events[0].Seq, events[1].Seq)
	}
	if events[0].Component != "cache" || events[0].Event != "evict" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if got := events[0].Fields["set"]; got != float64(3) {
		t.Fatalf("set field = %v (%T)", got, got)
	}
	if events[1].Fields != nil {
		t.Fatalf("nil fields must stay nil, got %v", events[1].Fields)
	}
}

func TestJSONLSinkConcurrentEmit(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Emit("c", "e", map[string]any{"i": i})
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1600 {
		t.Fatalf("got %d events, want 1600", len(events))
	}
	seen := make(map[uint64]bool)
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestRingSinkKeepsTail(t *testing.T) {
	t.Parallel()
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Emit("c", "e", map[string]any{"i": i})
	}
	events := s.Events()
	if len(events) != 3 {
		t.Fatalf("ring holds %d, want 3", len(events))
	}
	if events[0].Seq != 3 || events[2].Seq != 5 {
		t.Fatalf("ring seqs = %d..%d, want 3..5", events[0].Seq, events[2].Seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEventsRejectsMalformed(t *testing.T) {
	t.Parallel()
	_, err := ReadEvents(strings.NewReader("{\"seq\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestEmitSnapshotAndAggregate(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("cache.llc.hits").Add(7)
	r.Histogram("job.seconds", []float64{1}).Observe(0.5)
	pcs := r.PCStats("cache.llc.pc")
	pcs.Access(0x40, true)
	pcs.Access(0x40, false)
	pcs.Insertion(0x40)

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit("simrunner", "job", map[string]any{"key": "fig11/mcf/glider", "seconds": 1.5, "ok": true})
	sink.Emit("simrunner", "job", map[string]any{"key": "fig11/mcf/lru", "seconds": 0.5, "ok": false})
	sink.Emit("offline", "epoch", map[string]any{"model": "attention-lstm", "epoch": 0, "loss": 0.7, "accuracy": 0.6, "seconds": 2.0})
	EmitSnapshot(sink, r)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Aggregate(events)
	if len(rep.Metrics) != 2 {
		t.Fatalf("metrics = %+v", rep.Metrics)
	}
	pcRows := rep.PCTables["cache.llc.pc"]
	if len(pcRows) != 1 || pcRows[0].PC != 0x40 || pcRows[0].Accesses != 2 || pcRows[0].Insertions != 1 {
		t.Fatalf("pc rows = %+v", pcRows)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("jobs = %+v", rep.Jobs)
	}
	glider := rep.Jobs[0]
	if glider.Policy != "glider" || glider.Jobs != 1 || glider.Failed != 0 || glider.MeanSec() != 1.5 {
		t.Fatalf("glider group = %+v", glider)
	}
	if lru := rep.Jobs[1]; lru.Policy != "lru" || lru.Failed != 1 {
		t.Fatalf("lru group = %+v", lru)
	}
	if len(rep.Epochs) != 1 || rep.Epochs[0].Model != "attention-lstm" || rep.Epochs[0].Accuracy != 0.6 {
		t.Fatalf("epochs = %+v", rep.Epochs)
	}

	var out bytes.Buffer
	rep.Render(&out, 10)
	text := out.String()
	for _, want := range []string{"cache.llc.hits", "per-PC: cache.llc.pc", "jobs by policy", "training epochs", "0x40"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestEmitSnapshotNilSafe: disabled observability must not emit or panic.
func TestEmitSnapshotNilSafe(t *testing.T) {
	t.Parallel()
	EmitSnapshot(nil, NewRegistry())
	ring := NewRingSink(4)
	EmitSnapshot(ring, nil)
	if n := len(ring.Events()); n != 0 {
		t.Fatalf("a nil registry emitted %d events", n)
	}
	var s Sink
	if s != nil {
		t.Fatal("zero Sink must be nil")
	}
}
