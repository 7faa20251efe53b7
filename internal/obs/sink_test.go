package obs

import (
	"bytes"
	"fmt"
	"reflect"
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
	if want := r.Snapshot(); len(rep.Snapshots) != 1 || !reflect.DeepEqual(rep.Snapshots[0], want) {
		t.Fatalf("snapshots = %+v, want [%+v]", rep.Snapshots, want)
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
	for _, want := range []string{"== snapshot 1 of 1 ==", "cache.llc.hits", "per-PC table cache.llc.pc", "jobs by policy", "training epochs", "0x40"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestEpochsKeepTheirWorkload: two workloads' training runs of one model
// come back as distinct epoch rows, sorted by workload, model and epoch,
// and render with the workload in each row.
func TestEpochsKeepTheirWorkload(t *testing.T) {
	t.Parallel()
	var events []Event
	for _, epoch := range []int{1, 0} {
		for _, w := range []string{"omnetpp", "mcf"} {
			events = append(events, Event{Component: "offline", Event: "epoch", Fields: map[string]any{
				"workload": w, "model": "attention-lstm", "epoch": float64(epoch), "loss": 0.5, "accuracy": 0.75, "seconds": 1.0,
			}})
		}
	}
	rep := Aggregate(events)
	var got []string
	for _, e := range rep.Epochs {
		got = append(got, fmt.Sprintf("%s/%s/%d", e.Workload, e.Model, e.Epoch))
	}
	want := []string{"mcf/attention-lstm/0", "mcf/attention-lstm/1", "omnetpp/attention-lstm/0", "omnetpp/attention-lstm/1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epochs %v, want %v", got, want)
	}
	var out bytes.Buffer
	rep.Render(&out, 0)
	rows := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[1] == "attention-lstm" {
			rows[f[0]+" "+f[2]] = true
		}
	}
	if len(rows) != 4 || !rows["mcf 0"] || !rows["omnetpp 1"] {
		t.Fatalf("rendered epoch rows %v, want four distinct (workload, epoch) rows:\n%s", rows, out.String())
	}
}

// TestSnapshotsStayApartAndExact: two runs' snapshots in one stream come
// back as two snapshots, each equal to its registry's, and render as two
// sections. A tenant-tagged PC (bit 61, as mix(...) sets it) survives the
// trip; through a float64 it would read back as the neighbouring PC.
func TestSnapshotsStayApartAndExact(t *testing.T) {
	t.Parallel()
	const tagged = 1<<61 | 0x401001
	regs := []*Registry{NewRegistry(), NewRegistry()}
	for i, r := range regs {
		n := uint64(i + 1)
		r.Counter("cache.LLC.hits").Add(10 * n)
		r.Histogram("frd.train.err", LinearBuckets(1, 1, 4)).Observe(2.5 * float64(n))
		r.Vec("cache.LLC.set.hits", 4).Add(i, n)
		r.Vec("glider.verdict", 2, "friendly", "averse").Inc(1)
		pcs := r.PCStats("cache.LLC.pc")
		for k := uint64(0); k < 3+n; k++ {
			pcs.Access(tagged, k%2 == 0)
		}
		pcs.Access(tagged-1, false)
		pcs.Insertion(tagged)
		pcs.Eviction(tagged, false)
	}

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, r := range regs {
		EmitSnapshot(sink, r)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Aggregate(events)
	if len(rep.Snapshots) != len(regs) {
		t.Fatalf("got %d snapshots, want %d", len(rep.Snapshots), len(regs))
	}
	for i, r := range regs {
		if want := r.Snapshot(); !reflect.DeepEqual(rep.Snapshots[i], want) {
			t.Fatalf("snapshot %d = %+v, want %+v", i, rep.Snapshots[i], want)
		}
		if top := rep.Snapshots[i].PCs[0].Top[0]; top.PC != tagged || top.Accesses != uint64(4+i) {
			t.Fatalf("snapshot %d top PC = %#x with %d accesses, want %#x with %d", i, top.PC, top.Accesses, uint64(tagged), 4+i)
		}
	}

	var out bytes.Buffer
	rep.Render(&out, 1)
	text := out.String()
	if n := strings.Count(text, "per-PC table cache.LLC.pc (2 PCs, top 1 by accesses)"); n != 2 {
		t.Fatalf("rendered %d per-PC sections, want 2:\n%s", n, text)
	}
	if strings.Count(text, "0x2000000000401001") != 2 || strings.Contains(text, "0x2000000000401000") {
		t.Fatalf("per-PC rows not cut to the tagged top PC of each run:\n%s", text)
	}
	if !reflect.DeepEqual(rep.Snapshots[0], regs[0].Snapshot()) {
		t.Fatal("Render cut the report's own per-PC table")
	}
}

// TestLegacyPCEventsAreCounted: streams written with one event per PC
// still load; those events are counted and make no snapshot.
func TestLegacyPCEventsAreCounted(t *testing.T) {
	t.Parallel()
	in := `{"seq":1,"component":"obs","event":"pc","fields":{"table":"cache.LLC.pc","pc":"0x401000","accesses":3}}
{"seq":2,"component":"obs","event":"pc","fields":{"table":"cache.LLC.pc","pc":"0x401001","accesses":2}}
`
	events, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	rep := Aggregate(events)
	if len(rep.Snapshots) != 0 || rep.EventCounts["obs/pc"] != 2 {
		t.Fatalf("report = %+v", rep)
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
