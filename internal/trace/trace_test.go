package trace

import (
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	t := New("sample", 4)
	t.Append(Access{PC: 0x400000, Addr: 0x1000, Core: 0, Kind: Load})
	t.Append(Access{PC: 0x400004, Addr: 0x1040, Core: 1, Kind: Store})
	t.Append(Access{PC: 0x400008, Addr: 0x2000, Core: 0, Kind: Writeback})
	t.Append(Access{PC: 0x400000, Addr: 0x1000, Core: 0, Kind: Load})
	return t
}

func TestBlockAlignment(t *testing.T) {
	a := Access{Addr: 0x1043}
	if a.Block() != 0x1043>>BlockShift {
		t.Fatalf("Block = %#x", a.Block())
	}
	if BlockSize != 64 {
		t.Fatalf("BlockSize = %d, want 64", BlockSize)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Writeback.String() != "writeback" {
		t.Fatal("Kind.String mismatch")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include its value")
	}
}

func TestSummarize(t *testing.T) {
	tr := sampleTrace()
	s := tr.Summarize()
	if s.Accesses != 4 || s.PCs != 3 || s.Addrs != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.AccessesPerPC != 4.0/3.0 || s.AccessesPerAddr != 4.0/3.0 {
		t.Fatalf("ratios %+v", s)
	}
}

func TestPCsSorted(t *testing.T) {
	tr := sampleTrace()
	pcs := tr.PCs()
	if len(pcs) != 3 {
		t.Fatalf("got %d PCs", len(pcs))
	}
	for i := 1; i < len(pcs); i++ {
		if pcs[i-1] >= pcs[i] {
			t.Fatal("PCs not sorted ascending")
		}
	}
}

func TestSliceBounds(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Slice(-5, 100).Len(); got != 4 {
		t.Fatalf("clamped slice len = %d", got)
	}
	if got := tr.Slice(3, 1).Len(); got != 0 {
		t.Fatalf("inverted slice len = %d", got)
	}
	if got := tr.Slice(1, 3).Len(); got != 2 {
		t.Fatalf("slice len = %d", got)
	}
}

func TestInterleaveTagsCores(t *testing.T) {
	a := New("a", 2)
	a.Append(Access{PC: 1, Addr: 0x40})
	a.Append(Access{PC: 2, Addr: 0x80})
	b := New("b", 1)
	b.Append(Access{PC: 3, Addr: 0xc0})
	m := Interleave("mix", a, b)
	if m.Len() != 4 {
		t.Fatalf("interleave len = %d, want 4", m.Len())
	}
	// Round-robin: a[0], b[0], a[1], b[0] (b wraps).
	wantCores := []uint8{0, 1, 0, 1}
	for i, a := range m.Accesses {
		if a.Core != wantCores[i] {
			t.Fatalf("access %d core = %d, want %d", i, a.Core, wantCores[i])
		}
	}
	if m.Accesses[3].PC != 3 {
		t.Fatal("short trace did not wrap")
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if got := Interleave("x").Len(); got != 0 {
		t.Fatalf("empty interleave len = %d", got)
	}
	if got := Interleave("x", New("a", 0)).Len(); got != 0 {
		t.Fatalf("interleave of empty trace len = %d", got)
	}
}
