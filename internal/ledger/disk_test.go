package ledger

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildDiskLedger writes a two-batch ledger to path and returns the anchored
// artifact IDs in append order.
func buildDiskLedger(t *testing.T, path string) []ID {
	t.Helper()
	b, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLedger(t, b, Options{})
	var ids []ID
	for i := 0; i < 6; i++ {
		a, err := l.Append("cell", payload{Name: "disk", Seq: i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
		if i == 2 {
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestDiskReopenReplays(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "log")
	ids := buildDiskLedger(t, path)
	b, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Torn() {
		t.Fatal("clean log reported torn")
	}
	l := mustLedger(t, b, Options{})
	defer l.Close()
	st := l.Root()
	if st.Batches != 2 || st.Artifacts != 6 || st.Pending != 0 {
		t.Fatalf("replayed state %+v", st)
	}
	for _, id := range ids {
		p, err := l.Prove(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskReadOnly(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "log")
	buildDiskLedger(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Append(Record{Type: RecordArtifact, Data: []byte("{}")}); err == nil {
		t.Fatal("append to read-only log succeeded")
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("read-only Sync: %v", err)
	}
	if rep := Verify(b); !rep.OK() {
		t.Fatalf("read-only verify: %v", rep.Problems)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("read-only open modified the file")
	}
}

// TestDiskCrashTruncation simulates a crash mid-append at every byte offset
// within the final record: each truncated log must reopen with a torn tail
// detected, every fully written record intact, and every previously anchored
// batch still verifying.
func TestDiskCrashTruncation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	buildDiskLedger(t, full)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries from the framing itself.
	recs, torn, err := DecodeRecords(data)
	if err != nil || torn {
		t.Fatalf("clean log: torn=%v err=%v", torn, err)
	}
	// Offsets of each record's end.
	ends := make([]int, len(recs))
	off := 0
	for i, r := range recs {
		off += diskHeaderLen + 1 + len(r.Data)
		ends[i] = off
	}
	if off != len(data) {
		t.Fatalf("framing walk consumed %d of %d bytes", off, len(data))
	}
	lastStart := ends[len(ends)-2]
	for cut := lastStart + 1; cut < len(data); cut++ {
		path := filepath.Join(dir, "cut")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("cut=%d: OpenDisk: %v", cut, err)
		}
		if !b.Torn() {
			t.Fatalf("cut=%d: torn tail not detected", cut)
		}
		if b.Len() != len(recs)-1 {
			t.Fatalf("cut=%d: %d records survived, want %d", cut, b.Len(), len(recs)-1)
		}
		// The torn tail was truncated away: the log is append-ready and the
		// surviving prefix — including batch 0 — still verifies.
		rep := Verify(b)
		if !rep.OK() {
			t.Fatalf("cut=%d: surviving prefix fails verification: %v", cut, rep.Problems)
		}
		if rep.State.Batches != 1 {
			t.Fatalf("cut=%d: %d batches survived, want 1", cut, rep.State.Batches)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopening after the repair sees a clean log.
		b2, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if b2.Torn() {
			t.Fatalf("cut=%d: repaired log still reports torn", cut)
		}
		b2.Close()
		os.Remove(path)
	}
	// Truncation inside an earlier record also only loses the tail from
	// there on — simulate a cut inside record 3 of 8.
	cut := ends[2] + 3
	path := filepath.Join(dir, "midcut")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Torn() || b.Len() != 3 {
		t.Fatalf("mid-log cut: torn=%v len=%d", b.Torn(), b.Len())
	}
	b.Close()
}

// TestDiskCRCTamper flips one byte inside a complete record's payload and
// requires the open to fail hard — durable corruption is never repaired.
func TestDiskCRCTamper(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	buildDiskLedger(t, full)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the first record (offset diskHeaderLen+2:
	// inside the record data, past the type byte).
	bad := append([]byte(nil), data...)
	bad[diskHeaderLen+2] ^= 0x40
	path := filepath.Join(dir, "crc")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("OpenDisk on CRC-corrupt log: %v, want CRC error", err)
	}
	if _, err := ReadDisk(path); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("ReadDisk on CRC-corrupt log: %v, want CRC error", err)
	}
	// A corrupt length prefix is a framing error, not a torn tail.
	bad2 := append([]byte(nil), data...)
	bad2[3] = 0xff // length high byte → > maxRecordLen
	path2 := filepath.Join(dir, "len")
	if err := os.WriteFile(path2, bad2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path2); err == nil || !strings.Contains(err.Error(), "invalid length") {
		t.Fatalf("OpenDisk on length-corrupt log: %v, want invalid length", err)
	}
}

func TestDiskAppendAfterReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "log")
	ids := buildDiskLedger(t, path)
	b, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLedger(t, b, Options{})
	a, err := l.Append("cell", payload{Name: "later", Seq: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything — old and new — verifies after the third generation opens.
	b2, err := ReadDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	rep := Verify(b2)
	if !rep.OK() {
		t.Fatalf("verification problems: %v", rep.Problems)
	}
	if rep.State.Batches != 3 || rep.State.Artifacts != 7 {
		t.Fatalf("state %+v", rep.State)
	}
	for _, id := range append(ids, a.ID) {
		p, err := rep.Prove(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}
