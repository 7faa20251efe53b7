package cache_test

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// TestLRUStamps walks one 4-way set through the operations the LRU-ordered
// policies use: fills stamp the clock, a hit's Update makes a way most
// recent, and InsertLRU puts a way below every other, down to stamp 0.
func TestLRUStamps(t *testing.T) {
	t.Parallel()
	l := cache.NewLRU(2, 4)
	lines := make([]cache.Line, 4)
	for w := range 4 {
		l.Update(1, w, 0, 0, 0, false, trace.Load)
	}
	l.Update(1, cache.Bypass, 0, 0, 0, false, trace.Load) // only the clock moves
	if v := l.Victim(1, 0, 0, 0, lines); v != 0 || l.Stamp(1, 3) != 4 {
		t.Fatalf("after four fills: victim %d, way 3 stamped %d; want 0 and 4", v, l.Stamp(1, 3))
	}
	l.Update(1, 0, 0, 0, 0, true, trace.Load)
	if v := l.Victim(1, 0, 0, 0, lines); v != 1 || l.Stamp(1, 0) != 6 {
		t.Fatalf("after a hit on way 0: victim %d, way 0 stamped %d; want 1 and 6", v, l.Stamp(1, 0))
	}
	l.InsertLRU(1, 3)
	if v := l.Victim(1, 0, 0, 0, lines); v != 3 || l.Stamp(1, 3) != 1 {
		t.Fatalf("after InsertLRU(3): victim %d, way 3 stamped %d; want 3 and 1", v, l.Stamp(1, 3))
	}
	// Set 0 was never touched: its ways sit at stamp 0, the lowest first,
	// and a way inserted below them stays at 0.
	l.InsertLRU(0, 2)
	if v := l.Victim(0, 0, 0, 0, lines); v != 0 || l.Stamp(0, 2) != 0 {
		t.Fatalf("untouched set: victim %d, way 2 stamped %d; want 0 and 0", v, l.Stamp(0, 2))
	}
	l.Reset()
	if l.Stamp(1, 0) != 0 {
		t.Fatal("Reset kept a stamp")
	}
}

// TestNewUpperLRUValidation mirrors New's geometry checks, and the cache it
// builds runs the LRU policy.
func TestNewUpperLRUValidation(t *testing.T) {
	t.Parallel()
	if _, err := cache.NewUpperLRU(cache.Config{Name: "x", Sets: 3, Ways: 4}); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := cache.NewUpperLRU(cache.Config{Name: "x", Sets: 4, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	if c := cache.MustNewUpperLRU(cache.L1DConfig); c.Policy().Name() != "lru" {
		t.Fatalf("upper cache runs %q, want lru", c.Policy().Name())
	}
}
