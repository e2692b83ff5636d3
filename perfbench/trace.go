package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share a trace id; parent links a span to the span that caused
// it (0 for a root).
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it. A nil *spanRef is a no-op.
type spanRef struct {
	tr    *tracer
	s     span
	start time.Time
}

// begin opens a span under parent; a nil parent starts a new trace.
func (t *tracer) begin(name string, parent *spanRef) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	r := &spanRef{tr: t, s: span{Name: name, ID: id, Trace: id}, start: time.Now()}
	if parent != nil {
		r.s.Trace, r.s.Parent = parent.s.Trace, parent.s.ID
	}
	return r
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name string, parent *spanRef, start, end time.Time) {
	if r := t.begin(name, parent); r != nil {
		r.start = start
		r.endAt(end)
	}
}

func (r *spanRef) end() {
	if r != nil {
		r.endAt(time.Now())
	}
}

func (r *spanRef) endAt(end time.Time) {
	r.s.StartNs = int64(r.start.Sub(r.tr.t0))
	r.s.EndNs = int64(end.Sub(r.tr.t0))
	r.tr.mu.Lock()
	r.tr.spans = append(r.tr.spans, r.s)
	r.tr.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every recorded span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
