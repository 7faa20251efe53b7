package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"glider/internal/obs"
)

type payload struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
	Seq   int     `json:"seq"`
}

func mustLedger(t *testing.T, b Backend, opts Options) *Ledger {
	t.Helper()
	l, err := New(b, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestLedgerAppendFlushProve(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{})
	var ids []ID
	for i := 0; i < 7; i++ {
		a, err := l.Append("cell", payload{Name: "w", Score: 0.1 * float64(i), Seq: i})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if a.Batch != -1 {
			t.Fatalf("artifact %d anchored before flush (batch %d)", i, a.Batch)
		}
		ids = append(ids, a.ID)
	}
	st := l.Root()
	if st.Batches != 0 || st.Artifacts != 0 || st.Pending != 7 {
		t.Fatalf("pre-flush state %+v", st)
	}
	bt, err := l.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if bt.Index != 0 || len(bt.Leaves) != 7 {
		t.Fatalf("batch %+v", bt)
	}
	if bt.Prev != (ID{}) {
		t.Fatalf("genesis batch prev = %s, want zero", bt.Prev)
	}
	if bt.Chain != ChainHash(ID{}, bt.Root) {
		t.Fatal("chain link mismatch")
	}
	st = l.Root()
	if st.Batches != 1 || st.Artifacts != 7 || st.Pending != 0 || st.Chain != bt.Chain.String() {
		t.Fatalf("post-flush state %+v", st)
	}

	for i, id := range ids {
		a, err := l.Get(id)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if a.Batch != 0 || a.Leaf != i {
			t.Fatalf("artifact %d at batch %d leaf %d", i, a.Batch, a.Leaf)
		}
		p, err := l.Prove(id)
		if err != nil {
			t.Fatalf("Prove %d: %v", i, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		// Proofs survive a JSON round trip — they travel over HTTP.
		j, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Proof
		if err := json.Unmarshal(j, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.Verify(); err != nil {
			t.Fatalf("round-tripped proof %d: %v", i, err)
		}
	}

	// Second batch chains onto the first.
	a, err := l.Append("cell", payload{Name: "w2", Seq: 100})
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := l.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if bt2.Index != 1 || bt2.Prev != bt.Chain {
		t.Fatalf("batch 1 prev %s, want %s", bt2.Prev, bt.Chain)
	}
	p, err := l.Prove(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Batch != 1 || p.Size != 1 {
		t.Fatalf("proof %+v", p)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerDedupe(t *testing.T) {
	t.Parallel()
	b := NewMemory()
	l := mustLedger(t, b, Options{})
	p := payload{Name: "dup", Seq: 1}
	a1, err := l.Append("cell", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Same content → same ID, no new record, anchored position preserved.
	a2, err := l.Append("cell", p)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID != a2.ID {
		t.Fatalf("dedupe changed ID: %s vs %s", a1.ID, a2.ID)
	}
	if a2.Batch != 0 {
		t.Fatalf("deduped artifact lost its anchor: batch %d", a2.Batch)
	}
	if got := b.Len(); got != 2 { // 1 artifact + 1 batch
		t.Fatalf("backend has %d records, want 2", got)
	}
	// Same payload under a different kind is a different artifact.
	a3, err := l.Append("predict", p)
	if err != nil {
		t.Fatal(err)
	}
	if a3.ID == a1.ID {
		t.Fatal("kind is not part of the content address")
	}
	// The out-of-band ID derivation matches what Append recorded.
	raw, _ := json.Marshal(p)
	id, err := ArtifactIDFor("cell", raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != a1.ID {
		t.Fatalf("ArtifactIDFor %s, Append recorded %s", id, a1.ID)
	}
	// Key order in the caller's JSON doesn't change the address.
	shuffled := []byte(fmt.Sprintf(`{"seq": 1, "score": 0, "name": %q}`, "dup"))
	id2, err := ArtifactIDFor("cell", shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != a1.ID {
		t.Fatalf("key order changed the content address: %s vs %s", id2, a1.ID)
	}
}

func TestLedgerBatchMaxAutoFlush(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{BatchMax: 3})
	for i := 0; i < 7; i++ {
		if _, err := l.Append("cell", payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Root()
	if st.Batches != 2 || st.Artifacts != 6 || st.Pending != 1 {
		t.Fatalf("state %+v, want 2 batches of 3 and 1 pending", st)
	}
}

func TestLedgerFlushInterval(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{FlushEvery: 5 * time.Millisecond})
	defer l.Close()
	if _, err := l.Append("cell", payload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Root().Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flush loop never anchored the pending artifact")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLedgerProveAnchorsPending(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{})
	a, err := l.Append("cell", payload{Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Prove(a.ID) // implicit flush
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := l.Root(); st.Pending != 0 || st.Batches != 1 {
		t.Fatalf("state %+v after Prove", st)
	}
}

func TestLedgerUnknownArtifact(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{})
	var id ID
	id[0] = 1
	if _, err := l.Get(id); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("Get: %v, want ErrUnknownArtifact", err)
	}
	if _, err := l.Prove(id); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("Prove: %v, want ErrUnknownArtifact", err)
	}
}

func TestLedgerAppendRejects(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{})
	if _, err := l.Append("", payload{}); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := l.Append("cell", make(chan int)); err == nil {
		t.Fatal("unmarshalable payload accepted")
	}
}

func TestLedgerReplay(t *testing.T) {
	t.Parallel()
	b := NewMemory()
	l1 := mustLedger(t, b, Options{})
	var ids []ID
	for i := 0; i < 5; i++ {
		a, err := l1.Append("cell", payload{Seq: i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
		if i == 2 {
			if _, err := l1.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := l1.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second ledger over the same backend replays to an identical head and
	// serves identical proofs.
	l2 := mustLedger(t, b, Options{})
	if l1.Root() != l2.Root() {
		t.Fatalf("replayed head %+v != original %+v", l2.Root(), l1.Root())
	}
	for _, id := range ids {
		p1, err := l1.Prove(id)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := l2.Prove(id)
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(p1)
		j2, _ := json.Marshal(p2)
		if string(j1) != string(j2) {
			t.Fatalf("replayed proof differs:\n%s\n%s", j1, j2)
		}
	}
}

// tamperedCopy rebuilds a memory backend from b with record ri's data byte
// bi XORed by mask.
func tamperedCopy(t *testing.T, b Backend, ri, bi int, mask byte) *MemoryBackend {
	t.Helper()
	out := NewMemory()
	for i := 0; i < b.Len(); i++ {
		rec, err := b.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), rec.Data...)
		if i == ri {
			data[bi] ^= mask
		}
		if err := out.Append(Record{Type: rec.Type, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLedgerOpenRejectsTamper flips each byte of every record of an
// anchored log, one at a time, and requires New to reject each tampered log
// outright, exactly when Verify reports a problem: New reads the log through
// Verify, so the two never disagree on whether a log is sound.
func TestLedgerOpenRejectsTamper(t *testing.T) {
	t.Parallel()
	b := NewMemory()
	l := mustLedger(t, b, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append("cell", payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for ri := 0; ri < b.Len(); ri++ {
		rec, err := b.Read(ri)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range rec.Data {
			tb := tamperedCopy(t, b, ri, bi, 0x01)
			_, err := New(tb, Options{})
			if ok := Verify(tb).OK(); ok != (err == nil) {
				t.Fatalf("record %d byte %d flipped: Verify OK %v, New error %v", ri, bi, ok, err)
			}
			if err == nil {
				t.Fatalf("New accepted log with record %d byte %d flipped (%q)", ri, bi, rec.Data)
			}
		}
	}
}

// flipHex returns s with the hex digit at position i replaced by a different
// digit.
func flipHex(s string, i int) string {
	c := byte('0')
	if s[i] == '0' {
		c = '1'
	}
	return s[:i] + string(c) + s[i+1:]
}

// TestProofVerifyRejectsFieldTamper mutates every field of a valid proof and
// requires Verify to fail: hex digits of the artifact ID, every path element,
// root, prev, and chain, plus leaf/size positions.
func TestProofVerifyRejectsFieldTamper(t *testing.T) {
	t.Parallel()
	l := mustLedger(t, NewMemory(), Options{})
	var last Artifact
	for i := 0; i < 6; i++ {
		a, err := l.Append("cell", payload{Seq: i})
		if err != nil {
			t.Fatal(err)
		}
		last = a
	}
	p, err := l.Prove(last.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(q *Proof)) {
		q := p
		q.Path = append([]string(nil), p.Path...)
		f(&q)
		if err := q.Verify(); err == nil {
			t.Errorf("proof with tampered %s accepted", name)
		}
	}
	for i := 0; i < len(p.Artifact); i += 11 {
		i := i
		mutate(fmt.Sprintf("artifact hex %d", i), func(q *Proof) { q.Artifact = flipHex(q.Artifact, i) })
	}
	for j := range p.Path {
		j := j
		mutate(fmt.Sprintf("path[%d]", j), func(q *Proof) { q.Path[j] = flipHex(q.Path[j], 0) })
	}
	mutate("root", func(q *Proof) { q.Root = flipHex(q.Root, 63) })
	mutate("prev", func(q *Proof) { q.Prev = flipHex(q.Prev, 5) })
	mutate("chain", func(q *Proof) { q.Chain = flipHex(q.Chain, 5) })
	mutate("leaf", func(q *Proof) { q.Leaf = (q.Leaf + 1) % q.Size })
	mutate("size", func(q *Proof) { q.Size++ })
	mutate("truncated path", func(q *Proof) { q.Path = q.Path[:len(q.Path)-1] })
	mutate("bad hex", func(q *Proof) { q.Root = strings.Repeat("zz", 32) })
	mutate("short hex", func(q *Proof) { q.Artifact = q.Artifact[:10] })
}

func TestLedgerObsCounters(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	l := mustLedger(t, NewMemory(), Options{Obs: reg})
	p := payload{Seq: 1}
	if _, err := l.Append("cell", p); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("cell", p); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"ledger.artifacts.appended": 1,
		"ledger.artifacts.deduped":  1,
		"ledger.batches.anchored":   1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.Counter("ledger.bytes.appended").Value() == 0 {
		t.Error("ledger.bytes.appended stayed zero")
	}
}
