package ledger

import (
	"bytes"
	"strings"
	"testing"
)

// corruptedLog builds an anchored 4-artifact log, then rewrites artifact
// record `victim`'s payload to different-but-still-canonical bytes — the
// post-anchor tamper Verify must attribute to exactly that leaf.
func corruptedLog(t *testing.T) (b *MemoryBackend, ids []ID, victim int) {
	t.Helper()
	src := NewMemory()
	l := mustLedger(t, src, Options{})
	for i := 0; i < 4; i++ {
		a, err := l.Append("cell", payload{Name: "v", Seq: i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	victim = 2
	b = NewMemory()
	for i := 0; i < src.Len(); i++ {
		rec, err := src.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == victim {
			// A forged result: canonical JSON, decodes cleanly, but hashes to
			// a different ID than the leaf the chain committed to.
			forged, err := EncodeArtifact("cell", []byte(`{"name":"v","score":99,"seq":2}`))
			if err != nil {
				t.Fatal(err)
			}
			rec = Record{Type: RecordArtifact, Data: forged}
		}
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return b, ids, victim
}

func TestVerifyAttributesLeafDamage(t *testing.T) {
	t.Parallel()
	b, ids, victim := corruptedLog(t)
	// The strict opener refuses the log outright.
	if _, err := New(b, Options{}); err == nil {
		t.Fatal("New accepted a log with a forged artifact")
	}
	// The auditor names the exact leaf and keeps siblings provable.
	rep := Verify(b)
	if rep.OK() {
		t.Fatal("forged artifact not detected")
	}
	if len(rep.Problems) != 1 {
		t.Fatalf("problems: %v", rep.Problems)
	}
	p := rep.Problems[0]
	if p.Batch != 0 || p.Leaf != victim || p.Artifact != ids[victim].String() {
		t.Fatalf("damage misattributed: %+v", p)
	}
	if !strings.Contains(p.String(), "leaf 2") || !strings.Contains(p.String(), ids[victim].String()) {
		t.Fatalf("problem string does not name the leaf: %s", p)
	}
	// The chain itself still verified: state reflects the committed head.
	if rep.State.Batches != 1 || rep.State.Artifacts != 4 {
		t.Fatalf("state %+v", rep.State)
	}
	// Every sibling still proves inclusion from the committed batch record.
	for i, id := range ids {
		if i == victim {
			if _, err := rep.Prove(id); err == nil {
				// The committed leaf ID is still provable as a commitment —
				// but the damaged artifact carries its error.
				va := rep.Artifacts[i]
				if va.Err == nil {
					t.Fatalf("damaged artifact %d has no error", i)
				}
			}
			continue
		}
		proof, err := rep.Prove(id)
		if err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
		if err := proof.Verify(); err != nil {
			t.Fatalf("sibling %d proof: %v", i, err)
		}
		if rep.Artifacts[i].Err != nil {
			t.Fatalf("sibling %d marked damaged: %v", i, rep.Artifacts[i].Err)
		}
	}
	// DecodePayload refuses the damaged artifact, serves the siblings.
	var out payload
	if err := DecodePayload(rep.Artifacts[victim], &out); err == nil {
		t.Fatal("DecodePayload served a forged artifact")
	}
	if err := DecodePayload(rep.Artifacts[0], &out); err != nil || out.Seq != 0 {
		t.Fatalf("sibling payload: %v %+v", err, out)
	}
}

func TestVerifyStopsOnChainDamage(t *testing.T) {
	t.Parallel()
	src := NewMemory()
	l := mustLedger(t, src, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append("cell", payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Drop batch 1's record entirely: batch 2 no longer extends the chain.
	b := NewMemory()
	batchSeen := 0
	for i := 0; i < src.Len(); i++ {
		rec, err := src.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == RecordBatch {
			batchSeen++
			if batchSeen == 2 {
				continue
			}
		}
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep := Verify(b)
	if rep.OK() {
		t.Fatal("missing batch not detected")
	}
	// Structural damage stops the replay — the head reflects only what
	// verified before the break.
	if rep.State.Batches != 0 && rep.State.Batches != 1 {
		t.Fatalf("state %+v", rep.State)
	}
}

// TestVerifyStateAfterChainDamage: structural damage stops the replay, and
// State is still the head of the prefix that verified before it — batch
// 0's, whether batch 1's root is forged or an unknown record follows
// batch 0.
func TestVerifyStateAfterChainDamage(t *testing.T) {
	t.Parallel()
	src := NewMemory()
	l := mustLedger(t, src, Options{})
	var head0 ChainState
	for i := 0; i < 3; i++ {
		if _, err := l.Append("cell", payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			head0 = l.Root()
		}
	}
	// copyLog copies src's first n records, with batch 1's root forged.
	copyLog := func(n int) *MemoryBackend {
		b := NewMemory()
		batches := 0
		for i := 0; i < n; i++ {
			rec, err := src.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Type == RecordBatch {
				if batches == 1 {
					at := bytes.Index(rec.Data, []byte(`"root":"`)) + len(`"root":"`)
					rec.Data = []byte(flipHex(string(rec.Data), at))
				}
				batches++
			}
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}

	// Records: artifact 0, batch 0, artifact 1, batch 1 (forged), ...
	rep := Verify(copyLog(src.Len()))
	if len(rep.Problems) != 1 || rep.Problems[0].Batch != 1 || !strings.Contains(rep.Problems[0].Msg, "recorded root") {
		t.Fatalf("problems %v, want batch 1's forged root", rep.Problems)
	}
	want := head0
	want.Pending = 1 // artifact 1 was read, but no verified batch anchors it
	if rep.State != want || len(rep.Batches) != 1 {
		t.Fatalf("state %+v with %d batches, want %+v (batch 0's head)", rep.State, len(rep.Batches), want)
	}

	b := copyLog(2)
	if err := b.Append(Record{Type: 'Z', Data: []byte("?")}); err != nil {
		t.Fatal(err)
	}
	rep = Verify(b)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0].Msg, "unknown record type") {
		t.Fatalf("problems %v, want the unknown record", rep.Problems)
	}
	if rep.State != head0 {
		t.Fatalf("state %+v, want %+v (batch 0's head)", rep.State, head0)
	}
}

func TestVerifyPendingTail(t *testing.T) {
	t.Parallel()
	b := NewMemory()
	l := mustLedger(t, b, Options{})
	if _, err := l.Append("cell", payload{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := l.Append("cell", payload{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(b)
	if !rep.OK() {
		t.Fatalf("problems: %v", rep.Problems)
	}
	if rep.State.Batches != 1 || rep.State.Artifacts != 1 || rep.State.Pending != 1 {
		t.Fatalf("state %+v", rep.State)
	}
	// A pending artifact has no inclusion proof yet.
	if _, err := rep.Prove(a.ID); err == nil {
		t.Fatal("pending artifact proved")
	}
	// And an unknown ID is an ErrUnknownArtifact.
	var missing ID
	missing[0] = 0xee
	if _, err := rep.Prove(missing); err == nil {
		t.Fatal("unknown artifact proved")
	}
}

// TestVerifyRejectsDuplicateArtifact records one artifact twice under a
// batch whose root and chain link are recomputed over both leaves: every
// commitment holds, but Append never writes an artifact twice. Verify must
// report exactly that record, and New must refuse the log.
func TestVerifyRejectsDuplicateArtifact(t *testing.T) {
	t.Parallel()
	data, err := EncodeArtifact("cell", []byte(`{"seq":1}`))
	if err != nil {
		t.Fatal(err)
	}
	id := contentID(data)
	leaves := []ID{id, id}
	root := MerkleRoot(leaves)
	batch, err := CanonicalJSON(batchRecord{
		Index:  0,
		Leaves: []string{id.String(), id.String()},
		Root:   root.String(),
		Prev:   ID{}.String(),
		Chain:  ChainHash(ID{}, root).String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewMemory()
	for _, rec := range []Record{{RecordArtifact, data}, {RecordArtifact, data}, {RecordBatch, batch}} {
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep := Verify(b)
	if len(rep.Problems) != 1 {
		t.Fatalf("problems: %v, want one duplicate", rep.Problems)
	}
	if p := rep.Problems[0]; p.Record != 1 || p.Artifact != id.String() || !strings.Contains(p.Msg, "duplicate") {
		t.Fatalf("problem %+v, want the duplicate at record 1", p)
	}
	if _, err := New(b, Options{}); err == nil || !strings.Contains(err.Error(), rep.Problems[0].String()) {
		t.Fatalf("New: %v, want the duplicate refused", err)
	}
}
