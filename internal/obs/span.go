package obs

import (
	"strings"
	"time"
)

// Span is one open phase measurement. End accumulates the elapsed wall
// time into the registry's span tree at the span's path; a path like
// "msri/solve" nests "solve" under "msri". Opening the same path many
// times accumulates count and total duration, which is how per-net or
// per-call phases aggregate. A nil Span (from a nil registry) is a
// no-op.
type Span struct {
	reg   *Registry
	path  string
	start time.Time
}

// StartSpan opens a span at the '/'-separated path.
func (r *Registry) StartSpan(path string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, path: path, start: time.Now()}
}

// End closes the span, folding its wall time into the span tree.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.reg.addSpan(s.path, time.Since(s.start))
}

// spanNode is one node of the accumulated span tree. The root node is
// anonymous and holds only children.
//
// order keeps sibling names in the sequence their first End reached the
// tree, and Snapshot walks it instead of the (randomly iterated)
// children map. This makes sibling order in every export — the Text
// report, the JSON snapshot, the Prometheus phase series — follow the
// pipeline's own execution order rather than lexicographic accident,
// and it makes repeated snapshots of one registry deterministic:
// identical state renders to identical bytes. Under concurrent
// recording, first-End order is whatever the scheduler produced, but it
// is fixed once recorded — later Ends only accumulate into existing
// nodes.
type spanNode struct {
	count    int64
	total    time.Duration
	order    []string
	children map[string]*spanNode
}

func (r *Registry) addSpan(path string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &r.spans
	for _, seg := range strings.Split(path, "/") {
		if n.children == nil {
			n.children = map[string]*spanNode{}
		}
		c, ok := n.children[seg]
		if !ok {
			c = &spanNode{}
			n.children[seg] = c
			n.order = append(n.order, seg)
		}
		n = c
	}
	n.count++
	n.total += d
}

// SpanSeconds returns the accumulated wall time of the span at path, or
// zero when the path was never recorded (or the registry is nil).
func (r *Registry) SpanSeconds(path string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &r.spans
	for _, seg := range strings.Split(path, "/") {
		c, ok := n.children[seg]
		if !ok {
			return 0
		}
		n = c
	}
	return n.total.Seconds()
}
