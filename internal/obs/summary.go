package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// CounterSnap is one counter's value at snapshot time.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// BucketSnap is one histogram bucket: the count of observations at or below
// the upper bound (math.Inf(1) for the overflow bucket).
type BucketSnap struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes the overflow bucket's infinite bound as the string
// "+Inf" (encoding/json rejects non-finite floats); finite bounds stay
// numeric. UnmarshalJSON accepts both forms, so snapshots round-trip.
func (b BucketSnap) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.UpperBound, b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *BucketSnap) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if len(raw.Le) > 0 && raw.Le[0] == '"' {
		var s string
		if err := json.Unmarshal(raw.Le, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			b.UpperBound = math.Inf(1)
		case "-Inf":
			b.UpperBound = math.Inf(-1)
		default:
			return fmt.Errorf("obs: bucket bound %q is not a number or Inf", s)
		}
		return nil
	}
	return json.Unmarshal(raw.Le, &b.UpperBound)
}

// HistSnap is one histogram's state.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []BucketSnap `json:"buckets"`
}

// Mean returns Sum/Count.
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts by
// linear interpolation inside the target bucket, the standard
// fixed-bucket estimator: exact at bucket boundaries, at worst one bucket
// wide in between. The first bucket spans min(0, its bound) to its bound,
// so a layout starting below zero clamps first-bucket ranks to that bound,
// as observations in the +Inf overflow bucket clamp to the last finite
// bound. An empty histogram returns 0.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum uint64
	lower := min(0, h.Buckets[0].UpperBound)
	for i, b := range h.Buckets {
		if i > 0 {
			lower = h.Buckets[i-1].UpperBound
		}
		next := cum + b.Count
		if float64(next) >= rank && b.Count > 0 {
			if math.IsInf(b.UpperBound, 1) {
				return lower // overflow bucket: clamp to last finite bound
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			return lower + (b.UpperBound-lower)*frac
		}
		cum = next
	}
	last := h.Buckets[len(h.Buckets)-1].UpperBound
	if math.IsInf(last, 1) && len(h.Buckets) > 1 {
		return h.Buckets[len(h.Buckets)-2].UpperBound
	}
	return last
}

// Quantile estimates the live histogram's q-quantile without a full
// registry snapshot (see HistSnap.Quantile for the estimator).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snap().Quantile(q)
}

// snap copies the live histogram's count, sum and buckets into a HistSnap.
func (h *Histogram) snap() HistSnap {
	hs := HistSnap{Name: h.name, Count: h.Count(), Sum: h.Sum()}
	for i := range h.buckets {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, BucketSnap{UpperBound: ub, Count: h.buckets[i].Load()})
	}
	return hs
}

// VecSnap summarizes a vector: full cells for small labeled vectors,
// aggregate shape (sum, nonzero, max) always.
type VecSnap struct {
	Name    string   `json:"name"`
	Len     int      `json:"len"`
	Sum     uint64   `json:"sum"`
	NonZero int      `json:"nonzero"`
	Max     uint64   `json:"max"`
	MaxCell int      `json:"max_cell"`
	Labels  []string `json:"labels,omitempty"`
	Cells   []uint64 `json:"cells,omitempty"` // populated when Len <= 64
}

// PCTableSnap is one per-PC table.
type PCTableSnap struct {
	Name    string    `json:"name"`
	PCCount int       `json:"pc_count"`
	Top     []PCEntry `json:"top"`
}

// Snapshot is a point-in-time copy of every metric in a registry, sorted by
// name for deterministic rendering.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Hists    []HistSnap    `json:"histograms,omitempty"`
	Vecs     []VecSnap     `json:"vectors,omitempty"`
	PCs      []PCTableSnap `json:"pc_tables,omitempty"`
}

// MaxSnapshotPCs bounds the per-PC entries captured per table in a
// snapshot; the table's full size is still reported in PCCount.
const MaxSnapshotPCs = 256

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	vecs := make([]*Vec, 0, len(r.vecs))
	for _, v := range r.vecs {
		vecs = append(vecs, v)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	pcs := make([]*PCStats, 0, len(r.pcs))
	for _, p := range r.pcs {
		pcs = append(pcs, p)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.Value()})
	}
	for _, h := range hists {
		s.Hists = append(s.Hists, h.snap())
	}
	for _, v := range vecs {
		vs := VecSnap{Name: v.name, Len: len(v.cells), Labels: v.labels}
		for i := range v.cells {
			val := v.cells[i].Load()
			vs.Sum += val
			if val > 0 {
				vs.NonZero++
			}
			if val > vs.Max {
				vs.Max, vs.MaxCell = val, i
			}
		}
		if len(v.cells) <= 64 {
			vs.Cells = make([]uint64, len(v.cells))
			for i := range v.cells {
				vs.Cells[i] = v.cells[i].Load()
			}
		}
		s.Vecs = append(s.Vecs, vs)
	}
	for _, p := range pcs {
		s.PCs = append(s.PCs, PCTableSnap{Name: p.name, PCCount: p.Len(), Top: p.Top(MaxSnapshotPCs)})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	sort.Slice(s.Vecs, func(i, j int) bool { return s.Vecs[i].Name < s.Vecs[j].Name })
	sort.Slice(s.PCs, func(i, j int) bool { return s.PCs[i].Name < s.PCs[j].Name })
	return s
}

// WriteSummary renders a snapshot as an aligned human-readable report.
func (s Snapshot) WriteSummary(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "  %-44s %12d\n", c.Name, c.Value)
		}
	}
	if len(s.Hists) > 0 {
		fmt.Fprintf(w, "histograms:\n")
		for _, h := range s.Hists {
			fmt.Fprintf(w, "  %-44s count %10d  mean %12.6g  p50 %12.6g  p99 %12.6g\n",
				h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	if len(s.Vecs) > 0 {
		fmt.Fprintf(w, "vectors:\n")
		for _, v := range s.Vecs {
			fmt.Fprintf(w, "  %-44s len %6d  sum %12d  nonzero %6d  max %d@%d\n",
				v.Name, v.Len, v.Sum, v.NonZero, v.Max, v.MaxCell)
		}
	}
	for _, p := range s.PCs {
		fmt.Fprintf(w, "per-PC table %s (%d PCs, top %d by accesses):\n", p.Name, p.PCCount, len(p.Top))
		fmt.Fprintf(w, "  %-18s %10s %8s %10s %10s %8s\n", "pc", "accesses", "hit%", "inserts", "evicted", "dead%")
		for _, e := range p.Top {
			fmt.Fprintf(w, "  %#-18x %10d %8.1f %10d %10d %8.1f\n",
				e.PC, e.Accesses, e.HitRate()*100, e.Insertions, e.EvictedReused+e.EvictedDead, e.DeadFraction()*100)
		}
	}
}

// EmitSnapshot writes the registry's snapshot into a sink as one
// "obs/snapshot" event whose "snapshot" field is the Snapshot that /metrics
// serves, so a JSONL file and /metrics carry one encoding and
// Snapshot.WriteSummary renders both. A nil sink or nil registry is a no-op.
func EmitSnapshot(sink Sink, r *Registry) {
	if sink == nil || r == nil {
		return
	}
	sink.Emit("obs", "snapshot", map[string]any{"snapshot": r.Snapshot()})
}
