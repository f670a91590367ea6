package service

import (
	"bytes"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msrnet/internal/jobstore"
	"msrnet/internal/obs"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
	"msrnet/internal/spancollect"
)

// This file is the distributed-tracing acceptance e2e (DESIGN.md §15):
// a 3-node in-memory fleet where one member is saturated so a traced
// batch is stolen by a peer, proving the stitched cross-process trace
// contains the client-side hop, the executing peer's queue/solve spans
// and its WAL append/fsync spans; that stitching is deterministic; that
// critical-path percentages cover the whole window; and that the
// msrnet-spans/v1 export is byte-stable. A second test proves a
// WAL-replayed job's spans join the original trace ID across a restart.

// spanClock is a deterministic shared clock for span indexes: every
// reading advances a global counter by step (1 ms), so span durations
// are positive and totally ordered; freeze() pins the clock so repeated
// exports read the same WallUnixNs. Per-index skews simulate fleet
// clock disagreement without breaking the underlying total order.
type spanClock struct {
	base time.Time
	n    atomic.Int64
	step atomic.Int64
}

func newSpanClock() *spanClock {
	c := &spanClock{base: time.Unix(1_700_000_000, 0)}
	c.step.Store(int64(time.Millisecond))
	return c
}

func (c *spanClock) at(skew time.Duration) func() time.Time {
	return func() time.Time {
		return c.base.Add(skew + time.Duration(c.n.Add(c.step.Load())))
	}
}

func (c *spanClock) freeze() { c.step.Store(0) }

// TestFleetStitchedTraceAcrossForward is the forwarded-job half of the
// acceptance bar.
func TestFleetStitchedTraceAcrossForward(t *testing.T) {
	clk := newSpanClock()
	skews := []time.Duration{0, 50 * time.Millisecond, -30 * time.Millisecond}
	idxs := make([]*spans.Index, 3)
	f := newTestFleet(t, 3, func(i int, cfg *Config) {
		idxs[i] = spans.NewIndex(spans.Options{
			Process: string(fleetID(i)),
			Now:     clk.at(skews[i]),
		})
		cfg.Spans = idxs[i]
		st, _, err := jobstore.Open(jobstore.Options{
			Dir: t.TempDir(), Logger: quietLogger(), Spans: idxs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
		if i == 0 {
			cfg.Workers, cfg.QueueDepth = 1, 1
		}
	})
	f.converge(30)

	// Saturate node-0 with untraced jobs: one on the worker, one in the
	// only queue slot.
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	f.ds[0].execHook = func(ctx context.Context, tk *task) Result {
		started <- struct{}{}
		<-release
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, id := range []string{"busy", "queued"} {
		go func(id string) {
			defer wg.Done()
			mustSubmit(t, f.ds[0], oneJobRequest(Job{ID: id, Mode: "ard", Net: testNetFile(t, 61, 6)}))
		}(id)
		if id == "busy" {
			<-started
		}
	}
	waitFor(t, func() bool {
		f.ds[0].mu.Lock()
		defer f.ds[0].mu.Unlock()
		return f.ds[0].free == 0
	})
	defer func() {
		close(release)
		wg.Wait()
	}()

	// The traced batch: node-0 cannot admit it, so it must cross a hop.
	const traceID = "e2e0spanstitch00"
	ctx := reqctx.WithTraceID(context.Background(), traceID)
	resp, serr := f.ds[0].Submit(ctx, &Request{Version: SchemaVersion,
		Jobs: []Job{{ID: "stolen", Mode: "both", Net: testNetFile(t, 62, 6)}}, Explain: true})
	if serr != nil {
		t.Fatalf("submit rejected: %v", serr)
	}
	res := resp.Results[0]
	if res.Status != StatusOK || res.Explain == nil {
		t.Fatalf("stolen job: status=%s explain=%v", res.Status, res.Explain)
	}
	if res.Explain.Spans == nil || res.Explain.Spans.Count == 0 {
		t.Fatalf("executing peer's explain carries no span summary: %+v", res.Explain.Spans)
	}

	clk.freeze()

	// Exactly two processes know the trace: node-0 and the stealing peer.
	exp0, ok := idxs[0].Export(traceID)
	if !ok {
		t.Fatal("node-0 has no spans for the trace")
	}
	var expPeer spans.TraceExport
	peers := 0
	for i := 1; i < 3; i++ {
		if e, ok := idxs[i].Export(traceID); ok {
			expPeer = e
			peers++
		}
	}
	if peers != 1 {
		t.Fatalf("%d peers hold the trace, want exactly 1", peers)
	}

	// msrnet-spans/v1 export is byte-stable under a fixed clock.
	for _, idx := range []*spans.Index{idxs[0], idxs[1], idxs[2]} {
		if a, ok := idx.ExportJSON(traceID); ok {
			b, _ := idx.ExportJSON(traceID)
			if !bytes.Equal(a, b) {
				t.Fatalf("ExportJSON not byte-stable for %s", idx.Process())
			}
		}
	}

	// The client side of the hop lives on node-0; the peer's root links
	// under it via the forwarded span reference.
	var hopRef string
	for _, r := range exp0.Spans {
		if r.Name == "forward" {
			hopRef = r.Ref(exp0.Process)
			if r.Peer != expPeer.Process {
				t.Errorf("hop names peer %q, executing process is %q", r.Peer, expPeer.Process)
			}
		}
	}
	if hopRef == "" {
		t.Fatalf("node-0 recorded no forward span: %+v", names(exp0.Spans))
	}
	var peerRootLinked bool
	for _, r := range expPeer.Spans {
		if r.Name == "submit" && r.ParentRemote == hopRef {
			peerRootLinked = true
		}
	}
	if !peerRootLinked {
		t.Fatalf("peer submit root does not link to hop %s: %+v", hopRef, expPeer.Spans)
	}
	for _, want := range []string{"submit", "queue", "solve", "wal/append", "wal/fsync"} {
		if !hasName(expPeer.Spans, want) {
			t.Errorf("executing peer missing %q span: %v", want, names(expPeer.Spans))
		}
	}

	// Stitch on the collector timeline, correcting each process's skew.
	procs := []spancollect.ProcessSpans{
		{Process: exp0.Process, OffsetNs: int64(skews[0]), Spans: exp0.Spans},
		{Process: expPeer.Process, OffsetNs: int64(skewOf(t, skews, expPeer.Process)), Spans: expPeer.Spans},
	}
	st := spancollect.Stitch(traceID, procs)
	if len(st.Processes) != 2 {
		t.Fatalf("stitched processes = %v, want 2", st.Processes)
	}
	root := st.Root()
	if root < 0 || st.Nodes[root].Process != exp0.Process || st.Nodes[root].Name != "submit" {
		t.Fatalf("primary root = %+v, want node-0 submit", st.Nodes[root])
	}
	// The peer's submit hangs under node-0's forward span in ONE tree.
	hopIdx, peerSubmit := -1, -1
	for i := range st.Nodes {
		switch {
		case st.Nodes[i].Name == "forward":
			hopIdx = i
		case st.Nodes[i].Name == "submit" && st.Nodes[i].Process == expPeer.Process:
			peerSubmit = i
		}
	}
	if hopIdx < 0 || peerSubmit < 0 || st.Nodes[peerSubmit].Parent != hopIdx {
		t.Fatalf("peer submit (idx %d) not parented to hop (idx %d)", peerSubmit, hopIdx)
	}

	// Deterministic: stitching the same exports again renders the same
	// waterfall and the same Chrome trace, byte for byte.
	st2 := spancollect.Stitch(traceID, procs)
	var w1, w2, c1, c2 bytes.Buffer
	st.WriteWaterfall(&w1)
	st2.WriteWaterfall(&w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("waterfall render is not deterministic")
	}
	if err := st.WriteChrome(&c1); err != nil {
		t.Fatal(err)
	}
	if err := st2.WriteChrome(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("Chrome trace render is not deterministic")
	}

	// Critical path: the whole end-to-end window is attributed, summing
	// to 100% within rounding, and the hop + solve both show up.
	cp := st.CriticalPath()
	if cp.TotalMs <= 0 || cp.Dominant == "" {
		t.Fatalf("critical path empty: %+v", cp)
	}
	sum := 0.0
	seen := map[string]bool{}
	for _, s := range cp.Shares {
		sum += s.Pct
		seen[s.Class] = true
	}
	if math.Abs(sum-100) > 0.01 {
		t.Fatalf("critical-path percentages sum to %v, want 100", sum)
	}
	for _, class := range []string{spans.ClassHop, spans.ClassSolve} {
		if !seen[class] {
			t.Errorf("critical path missing class %q: %+v", class, cp.Shares)
		}
	}
}

// TestReplaySpansJoinOriginalTrace: a job recovered from the WAL after
// a crash re-runs under the ORIGINAL trace ID, with a replay root span,
// so the fleet collector can see the whole story of a crashed job in
// one trace.
func TestReplaySpansJoinOriginalTrace(t *testing.T) {
	clk := newSpanClock()
	const traceID = "e2e0replaytrace0"

	reg := obs.New()
	walDir := t.TempDir()
	idx1 := spans.NewIndex(spans.Options{Process: "crashing", Now: clk.at(0)})
	store, rep := openStoreSpansT(t, walDir, reg, idx1)
	if len(rep.Entries) != 0 {
		t.Fatalf("fresh WAL replayed %d entries", len(rep.Entries))
	}
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, Reg: reg, Store: store, Spans: idx1})
	gate := make(chan struct{})
	d.execHook = func(ctx context.Context, tk *task) Result {
		<-gate
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey}
	}

	go func() {
		ctx := reqctx.WithTraceID(context.Background(), traceID)
		d.Submit(ctx, oneJobRequest(Job{ID: "doomed", Mode: "ard", Net: testNetFile(t, 63, 6)}))
	}()
	// One accepted record on disk, the job blocked mid-solve: the state
	// kill -9 leaves behind.
	waitFor(t, func() bool { return reg.Counter("wal/appends").Value() == 1 })
	crashDir := copyDir(t, walDir)
	close(gate)

	reg2 := obs.New()
	idx2 := spans.NewIndex(spans.Options{Process: "recovered", Now: clk.at(0)})
	store2, rep2 := openStoreSpansT(t, crashDir, reg2, idx2)
	if len(rep2.Entries) != 1 {
		t.Fatalf("replayed %d entries, want 1", len(rep2.Entries))
	}
	d2 := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, Reg: reg2, Store: store2, Spans: idx2})
	d2.execHook = func(ctx context.Context, tk *task) Result {
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey}
	}
	if requeued, _ := d2.Recover(rep2); requeued != 1 {
		t.Fatalf("requeued %d jobs, want 1", requeued)
	}
	waitFor(t, func() bool {
		exp, ok := idx2.Export(traceID)
		return ok && hasName(exp.Spans, "replay") && hasName(exp.Spans, "solve")
	})

	exp, _ := idx2.Export(traceID)
	if exp.TraceID != traceID {
		t.Fatalf("replayed spans under trace %q, want original %q", exp.TraceID, traceID)
	}
	for _, want := range []string{"replay", "queue", "solve"} {
		if !hasName(exp.Spans, want) {
			t.Errorf("recovered daemon missing %q span: %v", want, names(exp.Spans))
		}
	}
	// The replay root carries the WAL identity that resurrected it.
	for _, r := range exp.Spans {
		if r.Name == "replay" && r.Attrs["wal_uid"] == "" {
			t.Errorf("replay span has no wal_uid attr: %+v", r)
		}
	}
}

// openStoreSpansT opens a jobstore wired to a span index.
func openStoreSpansT(t *testing.T, dir string, reg *obs.Registry, idx *spans.Index) (*jobstore.Store, *jobstore.Replay) {
	t.Helper()
	st, rep, err := jobstore.Open(jobstore.Options{Dir: dir, Reg: reg, Logger: quietLogger(), Spans: idx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rep
}

func hasName(recs []spans.Record, name string) bool {
	for _, r := range recs {
		if r.Name == name {
			return true
		}
	}
	return false
}

func names(recs []spans.Record) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Name)
	}
	return out
}

// skewOf finds the configured skew of the fleet member that executed
// the stolen job.
func skewOf(t *testing.T, skews []time.Duration, process string) time.Duration {
	t.Helper()
	for i, s := range skews {
		if string(fleetID(i)) == process {
			return s
		}
	}
	t.Fatalf("unknown process %q", process)
	return 0
}
