package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Event is one observability record: a component-scoped named event with a
// flat field map. Seq is assigned by the sink in emission order, so a JSONL
// file can be re-sorted and deduplicated after concurrent writes.
type Event struct {
	Seq       uint64         `json:"seq"`
	Component string         `json:"component"`
	Event     string         `json:"event"`
	Fields    map[string]any `json:"fields,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent Emit.
// Components guard emission with a nil check and construct the field map
// only when a sink is attached, so a nil sink costs one branch.
type Sink interface {
	// Emit records one event.
	Emit(component, event string, fields map[string]any)
	// Close flushes and releases the sink.
	Close() error
}

// JSONLSink writes one JSON object per line to an io.Writer.
type JSONLSink struct {
	mu   sync.Mutex
	w    *bufio.Writer
	c    io.Closer
	enc  *json.Encoder
	seq  uint64
	errs int
}

// NewJSONLSink wraps w. If w is also an io.Closer it is closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// CreateJSONL creates (truncating) a JSONL sink at path.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create %s: %w", path, err)
	}
	return NewJSONLSink(f), nil
}

// Emit implements Sink.
func (s *JSONLSink) Emit(component, event string, fields map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if err := s.enc.Encode(Event{Seq: s.seq, Component: component, Event: event, Fields: fields}); err != nil {
		s.errs++
	}
}

// Close flushes buffered events and closes the underlying file, if any.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && s.errs > 0 {
		err = fmt.Errorf("obs: %d events failed to encode", s.errs)
	}
	return err
}

// RingSink keeps the most recent capacity events in memory — the
// flight-recorder mode: zero I/O during the run, inspect after.
type RingSink struct {
	mu  sync.Mutex
	buf []Event
	cap int
	seq uint64
}

// NewRingSink creates a ring holding the last capacity events (min 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{cap: capacity}
}

// Emit implements Sink.
func (s *RingSink) Emit(component, event string, fields map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e := Event{Seq: s.seq, Component: component, Event: event, Fields: fields}
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, e)
		return
	}
	copy(s.buf, s.buf[1:])
	s.buf[len(s.buf)-1] = e
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.buf...)
}

// Close implements Sink (no-op).
func (s *RingSink) Close() error { return nil }

// ReadEvents decodes a JSONL event stream. Blank lines are skipped;
// malformed lines abort with an error naming the line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read events: %w", err)
	}
	return out, nil
}
