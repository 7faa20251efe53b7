package opt

import (
	"reflect"
	"testing"
)

// TestTableReset fills a table far past its first size, resets it, and
// requires it to answer every call as an empty table does.
func TestTableReset(t *testing.T) {
	var reset, fresh Table[uint64]
	for k := uint64(0); k < 1000; k++ {
		_, v, _ := reset.Touch(k*0x1000, k)
		*v = k
	}
	reset.Reset()
	if reset.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", reset.Len())
	}
	for i, k := range []uint64{5, 0x1000, 5, 77, 0x2000} {
		now := uint64(10 + i)
		gp, gv, gf := reset.Touch(k, now)
		fp, fv, ff := fresh.Touch(k, now)
		if gp != fp || *gv != *fv || gf != ff {
			t.Fatalf("Touch(%#x) after Reset = %d, %d, %v; empty table %d, %d, %v", k, gp, *gv, gf, fp, *fv, ff)
		}
		*gv, *fv = k, k
	}
	if got, want := reset.Expire(100, 87, nil), fresh.Expire(100, 87, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Expire after Reset = %+v, empty table %+v", got, want)
	}
}

// TestOPTgenReset runs an OPTgen on one stream, resets it, and requires a
// second stream's verdicts and clock to match a new instance's.
func TestOPTgenReset(t *testing.T) {
	reset, fresh := NewOPTgen(2, 8), NewOPTgen(2, 8)
	for i := 0; i < 200; i++ {
		reset.Access(uint64(i % 13))
	}
	reset.Reset()
	for i := 0; i < 200; i++ {
		b := uint64(i * 7 % 11)
		if got, want := reset.Access(b), fresh.Access(b); got != want {
			t.Fatalf("access %d (block %d) after Reset: verdict %v, new OPTgen %v", i, b, got, want)
		}
	}
	if reset.Clock() != fresh.Clock() {
		t.Fatalf("clock after Reset %d, new OPTgen %d", reset.Clock(), fresh.Clock())
	}
}
