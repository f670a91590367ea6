package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCountersAndHistograms hammers one counter, one gauge and
// one histogram from many goroutines; run with -race this doubles as the
// data-race check for the atomic paths.
func TestConcurrentCountersAndHistograms(t *testing.T) {
	reg := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Histogram("h", nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("g").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge max = %d, want %d", got, workers*perWorker-1)
	}
	h := reg.Histogram("h", nil)
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if h.Max() != 99 {
		t.Errorf("histogram max = %g, want 99", h.Max())
	}
	wantSum := float64(workers) * perWorker / 100 * (99 * 100 / 2)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := New()
	h := reg.Histogram("sizes", []float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["sizes"]
	want := []int64{2, 2, 2, 2} // ≤1, ≤4, ≤16, overflow
	if !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 8 {
		t.Errorf("count = %d", hs.Count)
	}
	if hs.Max == nil || *hs.Max != 1000 {
		t.Errorf("max = %v, want 1000", hs.Max)
	}
}

// TestSpanTreeNesting checks that '/'-separated paths build the expected
// tree and that repeated spans accumulate.
func TestSpanTreeNesting(t *testing.T) {
	reg := New()
	outer := reg.StartSpan("msri")
	for i := 0; i < 3; i++ {
		inner := reg.StartSpan("msri/solve")
		time.Sleep(time.Millisecond)
		inner.End()
	}
	reg.StartSpan("msri/report").End()
	outer.End()

	snap := reg.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "msri" {
		t.Fatalf("root spans = %+v", snap.Spans)
	}
	root := snap.Spans[0]
	if root.Count != 1 {
		t.Errorf("msri count = %d", root.Count)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %+v", root.Children)
	}
	// Insertion order is preserved: solve ended first.
	if root.Children[0].Name != "solve" || root.Children[0].Count != 3 {
		t.Errorf("solve child = %+v", root.Children[0])
	}
	if root.Children[1].Name != "report" || root.Children[1].Count != 1 {
		t.Errorf("report child = %+v", root.Children[1])
	}
	if root.Children[0].Seconds < 0.003 {
		t.Errorf("solve accumulated %.6fs, want ≥ 3ms", root.Children[0].Seconds)
	}
	if got := reg.SpanSeconds("msri/solve"); got != root.Children[0].Seconds {
		t.Errorf("SpanSeconds = %g, want %g", got, root.Children[0].Seconds)
	}
	if got := reg.SpanSeconds("no/such/span"); got != 0 {
		t.Errorf("missing span seconds = %g", got)
	}
}

// TestSnapshotJSONRoundTrip serializes a populated snapshot and decodes
// it back; the decoded struct must match field for field.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("core/prune/divide/calls").Add(7)
	reg.Gauge("core/max_set_size").SetMax(42)
	h := reg.Histogram("core/pwl_segments", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	reg.StartSpan("a/b").End()
	reg.StartSpan("a").End()

	snap := reg.Snapshot()
	if snap.Schema != MetricsSchema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n  out %+v\n  in  %+v", snap, back)
	}
}

func TestTextReport(t *testing.T) {
	reg := New()
	reg.Counter("ard/runs").Inc()
	reg.Histogram("core/set_size/post_prune", nil).Observe(5)
	reg.StartSpan("msri/solve").End()
	text := reg.Snapshot().Text()
	for _, want := range []string{"phase spans:", "msri", "solve", "ard/runs", "core/set_size/post_prune"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestNilSafety: the nil registry and every nil handle must be inert.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(3)
	reg.Gauge("x").SetMax(3)
	reg.Histogram("x", nil).Observe(3)
	reg.StartSpan("x").End()
	if got := reg.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if got := reg.SpanSeconds("x"); got != 0 {
		t.Errorf("nil span seconds = %g", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil snapshot non-empty: %+v", snap)
	}
	if err := reg.WriteMetricsFile(""); err != nil {
		t.Errorf("nil WriteMetricsFile: %v", err)
	}
}

// TestConcurrentSpans exercises the span tree under concurrency (for
// -race); counts must add up.
func TestConcurrentSpans(t *testing.T) {
	reg := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := reg.StartSpan("net/sizing")
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("span tree shape: %+v", snap.Spans)
	}
	if got := snap.Spans[0].Children[0].Count; got != 8*200 {
		t.Errorf("span count = %d, want %d", got, 8*200)
	}
}

// TestSnapshotDeterministic: sibling spans render in first-End order
// (not map order), and two snapshots of the same quiescent registry
// serialize to byte-identical JSON — the property the benchreport
// baselines and the Prometheus exposition rely on.
func TestSnapshotDeterministic(t *testing.T) {
	reg := New()
	// Deliberately non-lexicographic recording order.
	for _, path := range []string{"run/zeta", "run/alpha", "run/mid", "run/alpha"} {
		sp := reg.StartSpan(path)
		sp.End()
	}
	reg.Counter("solutions").Add(7)
	reg.Histogram("set_size", []float64{1, 4, 16}).ObserveInt(3)

	snap := reg.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("span roots = %+v", snap.Spans)
	}
	var order []string
	for _, c := range snap.Spans[0].Children {
		order = append(order, c.Name)
	}
	if want := []string{"zeta", "alpha", "mid"}; !reflect.DeepEqual(order, want) {
		t.Errorf("sibling order = %v, want first-End order %v", order, want)
	}

	var a, b bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two snapshots of the same registry differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}
