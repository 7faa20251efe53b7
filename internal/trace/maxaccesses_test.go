package trace

import (
	"bytes"
	"testing"
)

// ReadChampSim's maxAccesses bound: ≤ 0 reads everything, a positive bound
// is exact — decoding stops at exactly maxAccesses accesses, even
// mid-record, and reads no further input.

func capTestTrace(n int) *Trace {
	t := New("cap", n)
	for i := 0; i < n; i++ {
		kind := Load
		if i%3 == 0 {
			kind = Store
		}
		t.Append(Access{PC: uint64(0x400 + i), Addr: uint64(i+1) << BlockShift, Kind: kind})
	}
	return t
}

func TestCapReached(t *testing.T) {
	cases := []struct {
		n, max int
		want   bool
	}{
		{0, 0, false}, {100, 0, false}, // 0 = unlimited
		{100, -1, false}, // negative = unlimited
		{0, 1, false}, {1, 1, true}, {2, 1, true},
		{99, 100, false}, {100, 100, true},
	}
	for _, c := range cases {
		if got := capReached(c.n, c.max); got != c.want {
			t.Errorf("capReached(%d, %d) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
}

func TestReadersHonorExactCap(t *testing.T) {
	src := capTestTrace(40)

	var raw bytes.Buffer
	if err := WriteChampSim(&raw, src); err != nil {
		t.Fatal(err)
	}
	for format, data := range map[string][]byte{"raw": raw.Bytes(), "gzip": gzipBytes(t, raw.Bytes())} {
		for _, max := range []int{-1, 0, 1, 7, 39, 40, 1000} {
			tr, err := ReadChampSim(bytes.NewReader(data), "cap", max)
			if err != nil {
				t.Fatalf("%s max=%d: %v", format, max, err)
			}
			want := len(src.Accesses)
			if max > 0 && max < want {
				want = max
			}
			if len(tr.Accesses) != want {
				t.Fatalf("%s max=%d: got %d accesses, want %d", format, max, len(tr.Accesses), want)
			}
			for i := range tr.Accesses {
				if tr.Accesses[i] != src.Accesses[i] {
					t.Fatalf("%s max=%d: access %d = %+v, want %+v", format, max, i, tr.Accesses[i], src.Accesses[i])
				}
			}
		}
	}
}

// TestChampSimCapMidRecord: a record expanding to multiple accesses is cut
// exactly at the bound, not rounded up to the record boundary.
func TestChampSimCapMidRecord(t *testing.T) {
	// WriteChampSim emits one access per record, so build a multi-access
	// record by hand: 2 stores + 4 loads in a single record.
	var rec [ChampSimRecordSize]byte
	for i := 0; i < 8; i++ {
		rec[i] = 0x42
	}
	for slot := 0; slot < 6; slot++ {
		addr := uint64(0x1000 * (slot + 1))
		off := 16 + 8*slot
		for b := 0; b < 8; b++ {
			rec[off+b] = byte(addr >> (8 * b))
		}
	}
	full, err := ReadChampSim(bytes.NewReader(rec[:]), "cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Accesses) != 6 {
		t.Fatalf("record expands to %d accesses, want 6", len(full.Accesses))
	}
	for max := 1; max <= 6; max++ {
		tr, err := ReadChampSim(bytes.NewReader(rec[:]), "cap", max)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Accesses) != max {
			t.Fatalf("max=%d: got %d accesses (cap not exact)", max, len(tr.Accesses))
		}
		for i := range tr.Accesses {
			if tr.Accesses[i] != full.Accesses[i] {
				t.Fatalf("max=%d: access %d differs", max, i)
			}
		}
	}
}

// TestCapSkipsTrailingGarbage: once the cap is reached no further input is
// read, so garbage past the bound cannot fail the decode.
func TestCapSkipsTrailingGarbage(t *testing.T) {
	var cs bytes.Buffer
	if err := WriteChampSim(&cs, capTestTrace(10)); err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte{1, 2, 3}) // partial record

	if _, err := ReadChampSim(bytes.NewReader(cs.Bytes()), "cap", 10); err != nil {
		t.Fatalf("champsim: %v", err)
	}
	// And without a cap the garbage IS an error (the decoder still
	// validates what it reads).
	if _, err := ReadChampSim(bytes.NewReader(cs.Bytes()), "cap", 0); err == nil {
		t.Fatal("champsim truncated tail accepted")
	}
}
