package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the span that caused it (0 for a root) and Op groups the spans of one
// operation: a grid cell, a request, or one probe.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so timed runs pass nil and pay one branch per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return t.next
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, op int64, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, the spans' durations and their self time:
// the duration minus the part of the interval the span's children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range t.spans {
		total := s.End - s.Start
		covered := coveredBy(children[s.ID], s.Start, s.End)
		acc := out[s.Name]
		acc[0] += total
		acc[1] += total - covered
		out[s.Name] = acc
	}
	return out
}

// coveredBy returns how much of [lo, hi) the union of the spans covers.
func coveredBy(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered time.Duration
	cur := lo
	for _, s := range spans {
		start, end := max(s.Start, cur), min(s.End, hi)
		if end > start {
			covered += end - start
			cur = end
		}
	}
	return covered
}

// printSelfTimes writes the per-name totals, largest self time first.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	fmt.Fprintf(w, "%-28s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %12.1f %12.1f\n", n, ms(st[n][0]), ms(st[n][1]))
	}
}
