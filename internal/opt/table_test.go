package opt

import (
	"math/bits"
	"sort"
	"testing"
	"unsafe"
)

// tableModel is the reference for Table: a Go map from key to touch time
// and payload.
type tableModel map[uint64]Entry[uint64]

// runTableOps decodes ops as a sequence of 3-byte operations on a Table and
// on a map, failing on the first disagreement. Byte 0 picks the operation
// (put, get, delete, expire, prune), byte 1 the key out of 64, byte 2 the
// payload or the expiry window. The clock advances by one per operation, so
// windows up to 255 leave some entries and expire others. Keys are spread
// with a stride so that the same few keys collide in small tables.
func runTableOps(t *testing.T, ops []byte) {
	t.Helper()
	var tab Table[uint64]
	model := tableModel{}
	var now uint64
	for len(ops) >= 3 {
		op, key, arg := ops[0]%5, uint64(ops[1]%64)*0x1000, ops[2]
		ops = ops[3:]
		now++
		switch op {
		case 0: // put
			prev, val, found := tab.Touch(key, now)
			want, ok := model[key]
			if found != ok || (ok && (prev != want.Time || *val != want.Val)) {
				t.Fatalf("Touch(%#x) = %d, %d, %v; want %+v, %v", key, prev, *val, found, want, ok)
			}
			if !found && *val != 0 {
				t.Fatalf("Touch(%#x) inserted payload %d, want 0", key, *val)
			}
			*val = uint64(arg)
			model[key] = Entry[uint64]{Key: key, Time: now, Val: uint64(arg)}
		case 1: // get
			val, found := tab.Get(key)
			want, ok := model[key]
			if found != ok || (ok && *val != want.Val) {
				t.Fatalf("Get(%#x) disagrees with the map (%+v, %v)", key, want, ok)
			}
		case 2: // delete
			_, ok := model[key]
			if got := tab.Delete(key); got != ok {
				t.Fatalf("Delete(%#x) = %v, want %v", key, got, ok)
			}
			delete(model, key)
		case 3, 4: // expire, prune
			window := uint64(arg)
			var want []Entry[uint64]
			for k, e := range model {
				if now-e.Time > window {
					want = append(want, e)
					delete(model, k)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if op == 4 {
				tab.Prune(now, window)
				break
			}
			got := tab.Expire(now, window, nil)
			if len(got) != len(want) {
				t.Fatalf("Expire(%d, %d) removed %d entries, want %d", now, window, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Expire(%d, %d)[%d] = %+v, want %+v", now, window, i, got[i], want[i])
				}
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(model))
		}
	}
	entries := tab.Entries(nil)
	if len(entries) != len(model) {
		t.Fatalf("Entries holds %d, want %d", len(entries), len(model))
	}
	for _, e := range entries {
		if model[e.Key] != e {
			t.Fatalf("entry %+v, want %+v", e, model[e.Key])
		}
	}
}

// FuzzTableMatchesMap checks Table against a Go map over random sequences of
// put, get, delete, expire and prune, through growth and through deletions
// whose probe chains wrap past the end of the slot array.
func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 1, 1, 0, 2, 1, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}

// keysHomedAt returns n distinct keys whose first probe position in a table
// of size slots is pos.
func keysHomedAt(size, pos, n int) []uint64 {
	probe := Table[struct{}]{shift: uint8(64 - bits.TrailingZeros(uint(size)))}
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if probe.home(k) == pos {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableDeleteWrapsAround builds a probe chain that starts in the last
// slot and wraps to the front, then deletes and expires through it.
func TestTableDeleteWrapsAround(t *testing.T) {
	tabs := NewTables[uint64](2, tableMinSlots*3/4)
	tab := &tabs[1]
	last := keysHomedAt(tableMinSlots, tableMinSlots-1, 3)
	front := keysHomedAt(tableMinSlots, 0, 1)
	for i, k := range append(last, front...) {
		if _, v, found := tab.Touch(k, uint64(i)); found {
			t.Fatalf("key %#x found before insertion", k)
		} else {
			*v = k
		}
	}
	if len(tab.slots) != tableMinSlots {
		t.Fatalf("table grew to %d slots; the test needs %d", len(tab.slots), tableMinSlots)
	}
	// last[0] sits in the final slot; last[1], last[2] and front[0] wrapped
	// to slots 0–2. Deleting last[0] must pull the wrapped keys back.
	if !tab.Delete(last[0]) {
		t.Fatal("Delete of the chain head failed")
	}
	for _, k := range append(last[1:], front...) {
		if v, ok := tab.Get(k); !ok || *v != k {
			t.Fatalf("key %#x lost after a wrapping delete", k)
		}
	}
	// Expire the two oldest survivors (times 1 and 2) from inside the chain.
	got := tab.Expire(4, 1, nil)
	if len(got) != 2 || got[0].Time+got[1].Time != 3 {
		t.Fatalf("Expire removed %+v, want the entries touched at 1 and 2", got)
	}
	if v, ok := tab.Get(front[0]); !ok || *v != front[0] || tab.Len() != 1 {
		t.Fatalf("expiry lost the youngest key (len %d)", tab.Len())
	}
	if tabs[0].Len() != 0 {
		t.Fatal("a neighbouring table from the same slab changed")
	}
}

// TestTableExpireSkipsYoungTables checks the lower bound: a table whose
// entries are all inside the window is not scanned, and a scan tightens the
// bound to the survivors.
func TestTableExpireSkipsYoungTables(t *testing.T) {
	var tab Table[struct{}]
	for k := uint64(0); k < 100; k++ {
		tab.Touch(k, 10+k)
	}
	if got := tab.Expire(109, 99, nil); len(got) != 0 || tab.low != 10 {
		t.Fatalf("young table: removed %d, low %d", len(got), tab.low)
	}
	if got := tab.Expire(119, 99, nil); len(got) != 10 || tab.low != 20 {
		t.Fatalf("removed %d, low %d; want 10 and 20", len(got), tab.low)
	}
	for i := 0; i < 90; i++ {
		tab.Touch(uint64(1000+i), 119) // grows the table
	}
	if tab.Len() != 180 || tab.low != 20 {
		t.Fatalf("len %d, low %d after growth", tab.Len(), tab.low)
	}
}

// TestTableSlotSize pins OPTgen's slot to the 16 bytes of its key and stamp:
// every sampled LLC set keeps a table of them.
func TestTableSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(tableSlot[struct{}]{}); got != 16 {
		t.Fatalf("tableSlot[struct{}] takes %d bytes, want 16", got)
	}
}
