// Package trace defines the memory-access trace representation shared by the
// whole simulator: a trace is the time-ordered sequence of last-level-cache
// accesses observed for one core, each identified by the program counter (PC)
// of the load/store that issued it and the cache-block-aligned address it
// touched.
//
// On disk a trace is a ChampSim instruction trace (ReadChampSim,
// WriteChampSim), the format of the paper's CRC2 evaluation. The package
// also computes summary statistics matching Table 2 of the paper.
package trace

import (
	"fmt"
	"sort"
)

// BlockShift is log2 of the cache block size (64-byte blocks).
const BlockShift = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockShift

// Kind classifies an access. The replacement studies in the paper operate on
// demand loads and stores reaching the LLC; writebacks are modeled so that
// dirty evictions occupy DRAM bandwidth in the timing model.
type Kind uint8

const (
	// Load is a demand data load.
	Load Kind = iota
	// Store is a demand data store (write-allocate).
	Store
	// Writeback is a dirty eviction from an upper level.
	Writeback
)

// String returns a short human-readable name for the access kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Access is one memory reference in a trace.
type Access struct {
	// PC identifies the static load/store instruction.
	PC uint64
	// Addr is the byte address referenced. Policies operate on the block
	// address Addr >> BlockShift.
	Addr uint64
	// Core is the issuing core (0 for single-core traces).
	Core uint8
	// Kind is the access type.
	Kind Kind
}

// Block returns the cache-block-aligned address of the access.
func (a Access) Block() uint64 { return a.Addr >> BlockShift }

// Trace is an in-memory access trace with an identifying name.
type Trace struct {
	// Name identifies the workload the trace was generated from.
	Name string
	// Accesses is the time-ordered access stream.
	Accesses []Access
}

// New returns an empty trace with the given name and capacity hint.
func New(name string, capacity int) *Trace {
	return &Trace{Name: name, Accesses: make([]Access, 0, capacity)}
}

// Append adds one access to the trace.
func (t *Trace) Append(a Access) { t.Accesses = append(t.Accesses, a) }

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// Slice returns a sub-trace covering accesses [lo, hi). The underlying
// storage is shared with the parent trace.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Accesses) {
		hi = len(t.Accesses)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Name: t.Name, Accesses: t.Accesses[lo:hi]}
}

// PCs returns the distinct PCs in the trace in ascending order.
func (t *Trace) PCs() []uint64 {
	seen := make(map[uint64]struct{})
	for _, a := range t.Accesses {
		seen[a.PC] = struct{}{}
	}
	out := make([]uint64, 0, len(seen))
	for pc := range seen {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a trace the way Table 2 of the paper does.
type Stats struct {
	// Name is the trace name.
	Name string
	// Accesses is the total number of accesses.
	Accesses int
	// PCs is the number of distinct program counters.
	PCs int
	// Addrs is the number of distinct block addresses.
	Addrs int
	// AccessesPerPC is Accesses / PCs.
	AccessesPerPC float64
	// AccessesPerAddr is Accesses / Addrs.
	AccessesPerAddr float64
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	pcs := make(map[uint64]struct{})
	addrs := make(map[uint64]struct{})
	for _, a := range t.Accesses {
		pcs[a.PC] = struct{}{}
		addrs[a.Block()] = struct{}{}
	}
	s := Stats{
		Name:     t.Name,
		Accesses: len(t.Accesses),
		PCs:      len(pcs),
		Addrs:    len(addrs),
	}
	if s.PCs > 0 {
		s.AccessesPerPC = float64(s.Accesses) / float64(s.PCs)
	}
	if s.Addrs > 0 {
		s.AccessesPerAddr = float64(s.Accesses) / float64(s.Addrs)
	}
	return s
}

// Interleave merges per-core traces round-robin into a single multi-core
// stream, tagging each access with its core ID. When one trace is exhausted
// it wraps around (rewinding, as the paper's multi-core methodology does)
// until the longest trace has been fully consumed once.
func Interleave(name string, traces ...*Trace) *Trace {
	if len(traces) == 0 {
		return New(name, 0)
	}
	longest := 0
	for _, t := range traces {
		if t.Len() > longest {
			longest = t.Len()
		}
	}
	out := New(name, longest*len(traces))
	for i := 0; i < longest; i++ {
		for c, t := range traces {
			if t.Len() == 0 {
				continue
			}
			a := t.Accesses[i%t.Len()]
			a.Core = uint8(c)
			out.Append(a)
		}
	}
	return out
}
