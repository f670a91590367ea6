// Package obs is the zero-dependency observability substrate of the
// repository: structured counters, gauges and histograms (all atomic, so
// the daemon's concurrent workers record into one registry without
// locks on the hot path), hierarchical phase spans with wall-time
// accumulation, and JSON/text snapshots for machine-readable
// performance tracking.
//
// The paper's value is its complexity claims — the linear-time ARD of
// Fig. 2 and a pruned PWL dynamic program whose practical cost is
// governed by per-node solution-set sizes and PWL segment counts
// (Tables I–IV) — so the pipeline packages (core, ard, experiments)
// take a *Registry at their entry points and report exactly those
// quantities. See DESIGN.md §7 for the metric-to-paper mapping.
//
// A nil *Registry is a valid sink: it hands out nil handles, and every
// handle method is nil-safe and allocation-free, so instrumented hot
// paths cost a predictable nil check when observability is off.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named set of metrics plus a span tree. All methods are
// safe for concurrent use and nil-safe (a nil *Registry records
// nothing).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]*WindowHist
	spans    spanNode

	// runtimeOn makes snapshots carry a RuntimeSnapshot (EnableRuntime).
	runtimeOn bool
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// DefaultBounds are the power-of-two bucket bounds used when a histogram
// is created with nil bounds — a good fit for the set-size and
// segment-count distributions the pipeline records.
var DefaultBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultBounds
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1), max: math.Float64bits(math.Inf(-1))}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic last/extreme-value cell. All methods are nil-safe.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// SetMax raises the gauge to v if v is greater than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&g.v)
		if v <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&g.v, cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Histogram is a fixed-bucket atomic histogram: counts[i] holds the
// observations v ≤ bounds[i] (and greater than the previous bound); the
// final bucket is the +Inf overflow. Observe is lock-free — a bucket
// scan plus four atomic updates — so it is safe on the DP hot path.
type Histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    uint64 // float64 bits, CAS-updated
	max    uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	addFloatBits(&h.sum, v)
	maxFloatBits(&h.max, v)
}

// ObserveInt records one integer value.
func (h *Histogram) ObserveInt(v int) { h.Observe(float64(v)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sum))
}

// Max returns the largest observation (−Inf when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(atomic.LoadUint64(&h.max))
}

func addFloatBits(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}

func maxFloatBits(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		if v <= math.Float64frombits(old) {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(v)) {
			return
		}
	}
}
