package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msrnet/internal/obs"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/trace"
)

// TestExplainOnResult: a request with Explain set gets a complete
// msrnet-explain/v1 report per result; the same submission without the
// flag gets none (so the default wire format is untouched).
func TestExplainOnResult(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, Reg: obs.New()})
	net := testNetFile(t, 1, 10)

	req := oneJobRequest(Job{ID: "exp-1", Mode: "both", Net: net})
	req.Explain = true
	ctx := reqctx.WithTraceID(context.Background(), "trace-explain-test")
	resp, serr := d.Submit(ctx, req)
	if serr != nil {
		t.Fatal(serr)
	}
	r := resp.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("result: %+v", r)
	}
	e := r.Explain
	if e == nil {
		t.Fatal("Explain missing with Request.Explain set")
	}
	if e.Schema != ExplainSchema {
		t.Errorf("schema = %q, want %q", e.Schema, ExplainSchema)
	}
	if e.TraceID != "trace-explain-test" {
		t.Errorf("trace id = %q", e.TraceID)
	}
	if e.Label != "exp-1" || e.State != JobDone || e.Outcome != OutcomeOK {
		t.Errorf("identity: %+v", e)
	}
	if e.Solve == nil {
		t.Fatal("solve shape missing on a msri job")
	}
	if e.Solve.NodesVisited == 0 || e.Solve.PruneCalls == 0 || e.Solve.MeanSetSize <= 0 {
		t.Errorf("solve under-reported: %+v", e.Solve)
	}
	if len(e.Solve.PruneSites) == 0 {
		t.Error("prune-site breakdown empty")
	}
	if e.TotalMs <= 0 || e.TotalMs < e.SolveMs {
		t.Errorf("timing inconsistent: total=%g solve=%g queue=%g", e.TotalMs, e.SolveMs, e.QueueWaitMs)
	}

	// Same job without the flag: no explain, and the cached result stays
	// undecorated.
	resp2, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "exp-2", Mode: "both", Net: net}))
	if serr != nil {
		t.Fatal(serr)
	}
	if resp2.Results[0].Explain != nil {
		t.Error("explain leaked onto an unasking request")
	}
}

// TestExplainCacheHit: a cache-hit job gets a report marked Cached with
// no queue/solve time, and it still lands in the finished ring.
func TestExplainCacheHit(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, CacheSize: 8, Reg: obs.New()})
	net := testNetFile(t, 2, 8)
	job := Job{ID: "hit", Mode: "msri", Net: net}

	if _, serr := d.Submit(context.Background(), oneJobRequest(job)); serr != nil {
		t.Fatal(serr)
	}
	req := oneJobRequest(job)
	req.Explain = true
	resp, serr := d.Submit(context.Background(), req)
	if serr != nil {
		t.Fatal(serr)
	}
	r := resp.Results[0]
	if !r.Cached {
		t.Fatalf("expected a cache hit: %+v", r)
	}
	e := r.Explain
	if e == nil || !e.Cached || e.Outcome != OutcomeOK || e.SolveMs != 0 {
		t.Fatalf("cache-hit explain: %+v", e)
	}
	if _, recent := d.table.List(); len(recent) < 2 {
		t.Errorf("finished ring has %d entries, want ≥ 2", len(recent))
	}
}

// TestDebugJobsEndpoints: the full introspection surface over HTTP —
// list, fetch by job id, fetch by trace id, 404 on unknown.
func TestDebugJobsEndpoints(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, Reg: obs.New()})
	srv := httptest.NewServer(reqctx.Middleware(d.Handler()))
	defer srv.Close()

	body, _ := json.Marshal(oneJobRequest(Job{ID: "dbg", Mode: "msri", Net: testNetFile(t, 3, 8)}))
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs?explain=1", strings.NewReader(string(body)))
	hreq.Header.Set(reqctx.HeaderTraceID, "trace-dbg-1")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	e := resp.Results[0].Explain
	if e == nil {
		t.Fatal("?explain=1 did not produce a report")
	}
	if e.TraceID != "trace-dbg-1" {
		t.Fatalf("trace id on report = %q", e.TraceID)
	}

	var list jobListBody
	getJSON(t, srv.URL+"/debug/jobs", &list)
	if list.Schema != ExplainSchema || len(list.Recent) == 0 {
		t.Fatalf("job list: %+v", list)
	}

	var byJob Explain
	getJSON(t, srv.URL+"/debug/jobs/"+e.JobID, &byJob)
	if byJob.JobID != e.JobID || byJob.TraceID != "trace-dbg-1" {
		t.Errorf("by job id: %+v", byJob)
	}

	var byTrace Explain
	getJSON(t, srv.URL+"/debug/jobs/trace-dbg-1", &byTrace)
	if byTrace.JobID != e.JobID {
		t.Errorf("by trace id: %+v", byTrace)
	}

	if resp, err := http.Get(srv.URL + "/debug/jobs/nonexistent"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestReadyzDrainAndSaturation: /readyz answers 200 when idle, 503
// with a reason once StartDrain is called (while /healthz stays 200),
// and 503 while the queue is saturated.
func TestReadyzDrainAndSaturation(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		d := newTestDaemon(t, Config{Workers: 1, Reg: obs.New()})
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()
		if code, _ := getStatus(t, srv.URL+"/readyz"); code != http.StatusOK {
			t.Fatalf("idle readyz = %d", code)
		}
		d.StartDrain()
		code, body := getStatus(t, srv.URL+"/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Fatalf("draining readyz = %d %q", code, body)
		}
		if code, _ := getStatus(t, srv.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz flipped during drain: %d", code)
		}
		// Admission is closed: a fresh submission is rejected whole.
		_, serr := d.Submit(context.Background(), oneJobRequest(Job{Mode: "msri", Net: testNetFile(t, 4, 6)}))
		if serr == nil || serr.Code != ErrShuttingDown {
			t.Fatalf("submit during drain: %+v", serr)
		}
	})

	t.Run("saturation", func(t *testing.T) {
		reg := obs.New()
		d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, Reg: reg})
		block := make(chan struct{})
		d.execHook = func(ctx context.Context, t *task) Result {
			<-block
			return Result{ID: t.Label, Status: StatusOK, NetKey: t.NetKey}
		}
		defer close(block)
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()

		// One job occupies the worker, the next fills the single queue
		// slot. Wait for the first to actually start before submitting
		// the second: if both were queued at once, the second would be
		// rejected (queue_full counts queued-not-running jobs) and the
		// queue would drain without ever reading as saturated.
		net := testNetFile(t, 5, 6)
		go d.Submit(context.Background(), oneJobRequest(Job{ID: "s0", Mode: "msri", Net: net,
			Options: JobOptions{Spec: 1}}))
		waitFor(t, func() bool {
			active, _ := d.table.List()
			for _, e := range active {
				if e.State == JobRunning {
					return true
				}
			}
			return false
		})
		go d.Submit(context.Background(), oneJobRequest(Job{ID: "s1", Mode: "msri", Net: net,
			Options: JobOptions{Spec: 2}}))
		waitFor(t, func() bool {
			ok, reason := d.Ready()
			return !ok && reason == "queue_saturated"
		})
		code, body := getStatus(t, srv.URL+"/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "queue_saturated") {
			t.Fatalf("saturated readyz = %d %q", code, body)
		}
	})
}

// TestSLOWindowsPerOutcome: every retired job lands in the finished
// ring with its state/outcome/code, and in the latency windows of its
// outcome class — except cache hits, which observe no window — visible
// in the JSON snapshot and the Prometheus rendering.
func TestSLOWindowsPerOutcome(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 8,
		JobTimeout: 50 * time.Millisecond, DegradeHeadroom: -1, Reg: reg})
	ok := make(chan struct{}, 1)
	d.execHook = func(ctx context.Context, _ *task) Result {
		select {
		case <-ok:
			return Result{Status: StatusOK}
		case <-ctx.Done():
			return Result{Status: StatusError, Code: ErrDeadlineExceeded}
		}
	}

	net := testNetFile(t, 6, 6)
	fast := Job{ID: "fast", Mode: "msri", Net: net}
	ok <- struct{}{}
	if _, serr := d.Submit(context.Background(), oneJobRequest(fast)); serr != nil {
		t.Fatal(serr)
	}
	// The same job again is a cache hit: ok, but no window observation.
	if resp, serr := d.Submit(context.Background(), oneJobRequest(fast)); serr != nil || !resp.Results[0].Cached {
		t.Fatalf("resubmit: %+v %v", resp, serr)
	}
	// Third job: the hook blocks past the deadline → deadline_exceeded
	// → the error class.
	d.Submit(context.Background(), oneJobRequest(Job{ID: "slow", Mode: "msri", Net: net,
		Options: JobOptions{Spec: 99}}))
	// A two-miss batch into one queue slot is rejected whole.
	_, serr := d.Submit(context.Background(), &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "r0", Mode: "msri", Net: net, Options: JobOptions{Spec: 1}},
		{ID: "r1", Mode: "msri", Net: net, Options: JobOptions{Spec: 2}},
	}})
	if serr == nil || serr.Code != ErrQueueFull {
		t.Fatalf("two-job batch into one slot: %v, want %s", serr, ErrQueueFull)
	}

	active, recent := d.table.List()
	if len(active) != 0 {
		t.Errorf("%d jobs still active after every submission returned", len(active))
	}
	want := []struct {
		label, outcome, code string
		cached               bool
	}{ // newest first
		{"r1", OutcomeRejected, ErrQueueFull, false},
		{"r0", OutcomeRejected, ErrQueueFull, false},
		{"slow", OutcomeError, ErrDeadlineExceeded, false},
		{"fast", OutcomeOK, "", true},
		{"fast", OutcomeOK, "", false},
	}
	if len(recent) != len(want) {
		t.Fatalf("finished ring holds %d reports, want %d: %+v", len(recent), len(want), recent)
	}
	for i, w := range want {
		e := recent[i]
		if e.Label != w.label || e.State != JobDone || e.Outcome != w.outcome || e.Code != w.code || e.Cached != w.cached {
			t.Errorf("report %d: label=%s state=%s outcome=%s code=%q cached=%t, want %s done %s %q %t",
				i, e.Label, e.State, e.Outcome, e.Code, e.Cached, w.label, w.outcome, w.code, w.cached)
		}
	}

	snap := reg.Snapshot()
	wantCount := map[string]int64{OutcomeOK: 1, OutcomeError: 1, OutcomeRejected: 2}
	for _, class := range outcomeClasses {
		for _, kind := range []string{"queue", "solve", "e2e"} {
			name := "svc/latency/" + kind + "/" + class
			if got := snap.Quantiles[name].Count; got != wantCount[class] {
				t.Errorf("%s count = %d, want %d", name, got, wantCount[class])
			}
		}
	}
	// The Prometheus rendering exposes the same windows as summaries.
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`msrnet_svc_latency_e2e_ok{quantile="0.99"}`,
		`msrnet_svc_latency_solve_ok{quantile="0.5"}`,
		"msrnet_svc_latency_e2e_error_count",
		"msrnet_svc_latency_e2e_rejected_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugTraceEndpoint: with a configured tracer the endpoint serves
// msrnet-trace-events/v1 JSON whose events carry the job's trace id;
// without one it 404s.
func TestDebugTraceEndpoint(t *testing.T) {
	tcr := trace.New(1 << 12)
	d := newTestDaemon(t, Config{Workers: 1, Reg: obs.New(), Tracer: tcr})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ctx := reqctx.WithTraceID(context.Background(), "trace-ring-1")
	if _, serr := d.Submit(ctx, oneJobRequest(Job{ID: "tr", Mode: "msri", Net: testNetFile(t, 7, 8)})); serr != nil {
		t.Fatal(serr)
	}
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.Events {
		if args, k := ev["args"].(map[string]any); k && args["trace_id"] == "trace-ring-1" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no ring event tagged with the job's trace id (%d events)", len(doc.Events))
	}

	d2 := newTestDaemon(t, Config{Workers: 1, Reg: obs.New()})
	rec := httptest.NewRecorder()
	d2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("tracerless /debug/trace = %d, want 404", rec.Code)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}
