package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"msrnet/internal/obs/spans"
)

// TraceSchema identifies the traced run's output file.
const TraceSchema = "msrbench-trace/v1"

// benchSpan is one benchmark-side span: an HTTP request or a direct
// call into a layer. Start is measured from the tracer's creation.
type benchSpan struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	TraceID string         `json:"trace_id,omitempty"`
	Start   time.Duration  `json:"start_ns"`
	Dur     time.Duration  `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	// Daemon holds the daemons' own msrnet-spans/v1 per-class self-time
	// summaries of the request's trace, one per daemon it touched.
	Daemon []*spans.Summary `json:"daemon,omitempty"`
}

// benchTracer keeps spans in memory until the run ends. Safe for
// concurrent use.
type benchTracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []benchSpan
}

func newBenchTracer() *benchTracer { return &benchTracer{t0: time.Now()} }

// add records s, which started at start, and returns its ID.
func (t *benchTracer) add(s benchSpan, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = start.Sub(t.t0)
	t.spans = append(t.spans, s)
	return s.ID
}

// end sets the duration of a span added before its end.
func (t *benchTracer) end(id int, d time.Duration) {
	t.mu.Lock()
	t.spans[id-1].Dur = d
	t.mu.Unlock()
}

// timed runs fn n times under one span and returns the mean wall time
// per call in microseconds.
func (t *benchTracer) timed(name string, parent, n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(start)
	t.add(benchSpan{Name: name, Parent: parent, Dur: d, Attrs: map[string]any{"calls": n}}, start)
	return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
}

// write saves every span, with the run's identity, as one JSON file.
func (t *benchTracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"schema": TraceSchema, "run": header, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
