package cache_test

import (
	"fmt"

	"glider/internal/cache"
	"glider/internal/trace"
)

// fifo is a minimal replacement policy for the example.
type fifo struct{ next map[int]int }

func (f *fifo) Name() string { return "fifo" }
func (f *fifo) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	w := f.next[set]
	f.next[set] = (w + 1) % len(lines)
	return w
}
func (f *fifo) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {}

// A cache is a geometry plus a replacement policy; Access reports hits,
// evictions and writebacks.
func ExampleCache() {
	c := cache.MustNew(cache.Config{Name: "toy", Sets: 2, Ways: 2}, &fifo{next: map[int]int{}})

	c.Access(0x400000, 10, 0, trace.Load)
	r := c.Access(0x400000, 10, 0, trace.Load)
	fmt.Println("second access hits:", r.Hit)

	s := c.Stats()
	fmt.Printf("miss rate: %.2f\n", s.MissRate())
	// Output:
	// second access hits: true
	// miss rate: 0.50
}

// The three-level hierarchy filters accesses: only L1/L2 misses reach the
// LLC, which is the stream replacement policies study.
func ExampleHierarchy() {
	h, err := cache.NewHierarchy(1, cache.LLCConfig, &fifo{next: map[int]int{}})
	if err != nil {
		fmt.Println(err)
		return
	}
	a := trace.Access{PC: 0x400000, Addr: 0x1000, Kind: trace.Load}
	first := h.Access(a)
	second := h.Access(a)
	fmt.Println("first stops at:", first.HitLevel)
	fmt.Println("second stops at:", second.HitLevel)
	// Output:
	// first stops at: DRAM
	// second stops at: L1
}
