package opt

import (
	"cmp"
	"math/bits"
	"slices"
)

// Table is a flat open-addressing hash table keyed by block address (or any
// uint64), holding for each key the time it was last touched beside a
// caller-defined payload V. It is the sampler state of OPTgen and of the
// learned LLC policies: one Table per cache set, the tables in a slice
// indexed by set (NewTables).
//
// Slots sit in one array and probe linearly from a multiplicative hash.
// Deletion shifts the rest of the probe chain back instead of leaving
// tombstones, so lookups stay short however many entries come and go. Each
// table also keeps a lower bound on its live entries' times, which lets
// Expire skip a table in O(1) when none of its entries can be older than the
// window.
//
// The zero Table is empty and ready to use. V should hold no pointers, so
// that the garbage collector need not scan the slot arrays.
type Table[V any] struct {
	slots []tableSlot[V] // power-of-two length, or nil
	n     int
	shift uint8  // 64 − log2(len(slots)): the hash keeps the product's top bits
	low   uint64 // ≤ every live entry's time; meaningless when n == 0
}

// tableSlot leads with its payload: Go pads a zero-size field that ends a
// struct, so OPTgen's struct{} payload in last place would make each slot
// 24 bytes instead of 16.
type tableSlot[V any] struct {
	val   V
	key   uint64
	stamp uint64 // touch time + 1; 0 marks an empty slot
}

// Entry is one table entry, as Expire and Entries return it.
type Entry[V any] struct {
	Key, Time uint64
	Val       V
}

// tableMinSlots is the smallest slot array a table grows into.
const tableMinSlots = 8

// tableSize returns the power-of-two slot count that holds n entries at a
// load factor of at most 3/4.
func tableSize(n int) int {
	size := tableMinSlots
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// NewTables returns n empty tables, each able to hold hint entries before it
// first grows. Their slot arrays are carved from one slab, so building the
// tables of a whole cache costs two allocations.
func NewTables[V any](n, hint int) []Table[V] {
	size := tableSize(hint)
	slab := make([]tableSlot[V], n*size)
	ts := make([]Table[V], n)
	for i := range ts {
		ts[i].slots = slab[i*size : (i+1)*size : (i+1)*size]
		ts[i].shift = uint8(64 - bits.TrailingZeros(uint(size)))
	}
	return ts
}

// Reset empties the table in place. It keeps its slot array, grown or
// not: where an entry sits never shows, since Expire sorts what it returns
// and lookups follow probe chains.
func (t *Table[V]) Reset() {
	clear(t.slots)
	t.n, t.low = 0, 0
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// home is key's first probe position.
func (t *Table[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns key's slot, or the empty slot that ends its probe chain.
// The table must have slots.
func (t *Table[V]) find(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp == 0 {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// Get returns a pointer to key's payload, valid until the next Touch of an
// absent key, Delete or Expire.
func (t *Table[V]) Get(key uint64) (*V, bool) {
	if t.n == 0 {
		return nil, false
	}
	i, ok := t.find(key)
	if !ok {
		return nil, false
	}
	return &t.slots[i].val, true
}

// Touch sets key's touch time, which must be below math.MaxUint64,
// inserting key with a zero payload when it is absent. It returns the
// previous touch time and whether key was present, with a pointer to the
// payload: for a present key it still holds the previous toucher's value,
// for the caller to read and then overwrite. The pointer is valid until the
// next Touch of an absent key, Delete or Expire.
func (t *Table[V]) Touch(key, time uint64) (prev uint64, val *V, found bool) {
	i := 0
	if len(t.slots) > 0 {
		i, found = t.find(key)
	}
	if found {
		slot := &t.slots[i]
		prev = slot.stamp - 1
		slot.stamp = time + 1
		if time < t.low {
			t.low = time
		}
		return prev, &slot.val, true
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		i, _ = t.find(key)
	}
	if t.n == 0 || time < t.low {
		t.low = time
	}
	t.n++
	t.slots[i] = tableSlot[V]{key: key, stamp: time + 1}
	return 0, &t.slots[i].val, false
}

// grow doubles the slot array and re-inserts every entry.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(tableMinSlots, 2*len(old))
	t.slots = make([]tableSlot[V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.stamp != 0 {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// Delete removes key, reporting whether it was present.
func (t *Table[V]) Delete(key uint64) bool {
	if t.n == 0 {
		return false
	}
	i, ok := t.find(key)
	if ok {
		t.deleteAt(i)
	}
	return ok
}

// deleteAt empties slot i and shifts back the entries of the probe chain
// after it that may move into the hole, so no lookup ever crosses a gap.
func (t *Table[V]) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].stamp != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically after the hole, in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

// Expire removes every entry whose age now − time exceeds window and
// appends it to buf in ascending key order. No entry may be newer than now.
// A table whose lower bound on entry times shows nothing can have expired
// returns at once; otherwise Expire scans its slots once.
func (t *Table[V]) Expire(now, window uint64, buf []Entry[V]) []Entry[V] {
	start := len(buf)
	t.expire(now, window, &buf)
	slices.SortFunc(buf[start:], func(a, b Entry[V]) int { return cmp.Compare(a.Key, b.Key) })
	return buf
}

// Prune removes every entry whose age now − time exceeds window, like Expire
// but without returning them.
func (t *Table[V]) Prune(now, window uint64) { t.expire(now, window, nil) }

func (t *Table[V]) expire(now, window uint64, out *[]Entry[V]) {
	if t.n == 0 || now-t.low <= window {
		return
	}
	mask := len(t.slots) - 1
	// Scan from just past an empty slot, which stays empty: every entry a
	// deletion shifts back then lands at or after the scan position, so
	// each entry is examined exactly once.
	end := 0
	for t.slots[end].stamp != 0 {
		end++
	}
	low := ^uint64(0)
	for i := (end + 1) & mask; i != end; {
		s := &t.slots[i]
		if s.stamp != 0 {
			time := s.stamp - 1
			if now-time > window {
				if out != nil {
					*out = append(*out, Entry[V]{Key: s.key, Time: time, Val: s.val})
				}
				t.deleteAt(i)
				continue // slot i may now hold a shifted entry
			}
			low = min(low, time)
		}
		i = (i + 1) & mask
	}
	t.low = low
}

// Entries appends every entry to buf, in no particular order.
func (t *Table[V]) Entries(buf []Entry[V]) []Entry[V] {
	for _, s := range t.slots {
		if s.stamp != 0 {
			buf = append(buf, Entry[V]{Key: s.key, Time: s.stamp - 1, Val: s.val})
		}
	}
	return buf
}
