package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"msrnet/internal/faultinject"
	"msrnet/internal/obs"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/obs/reqctx"
)

// bundleDirs lists the postmortem bundles under dir.
func bundleDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "postmortem-") {
			names = append(names, dir+"/"+e.Name())
		}
	}
	return names
}

// TestWorkerPanicWritesPostmortem: a fault-injected worker panic is
// recovered, fails the job with internal, AND triggers a postmortem
// bundle that msrnetdebug's loader and renderer accept end to end.
func TestWorkerPanicWritesPostmortem(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	reg.EnableRuntime()
	inj := faultinject.New(1, reg)
	if err := inj.Configure("svc/worker:panic:1"); err != nil {
		t.Fatal(err)
	}
	rec := recorder.New(recorder.Config{
		Reg: reg, Dir: dir, Interval: 10 * time.Millisecond, Logger: quietLogger(),
		Info: map[string]string{"binary": "test"},
	})
	rec.Start()
	defer rec.Stop()
	d := newTestDaemon(t, Config{Workers: 1, Reg: reg, Faults: inj, Recorder: rec})

	ctx := reqctx.WithTraceID(context.Background(), "trace-panic-1")
	resp, serr := d.Submit(ctx, oneJobRequest(Job{ID: "boom", Mode: "ard", Net: testNetFile(t, 1, 6)}))
	if serr != nil {
		t.Fatalf("submit rejected: %v", serr)
	}
	if resp.Results[0].Status != StatusError || resp.Results[0].Code != ErrInternal {
		t.Fatalf("panicked job result: %+v", resp.Results[0])
	}

	dirs := bundleDirs(t, dir)
	if len(dirs) != 1 {
		t.Fatalf("found %d bundles, want exactly 1 (cooldown should debounce)", len(dirs))
	}
	b, err := recorder.LoadBundle(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger.Reason != recorder.ReasonPanic {
		t.Fatalf("trigger reason %q, want %q", b.Manifest.Trigger.Reason, recorder.ReasonPanic)
	}
	if !strings.Contains(b.Manifest.Trigger.Detail, "j1") {
		t.Fatalf("trigger detail %q does not name the job", b.Manifest.Trigger.Detail)
	}
	// The capture happens inside the recover, while the job is still in
	// flight: the bundle's active list carries it with its trace id.
	var inFlight bool
	for _, j := range b.Jobs.Active {
		if j.JobID == "j1" && j.TraceID == "trace-panic-1" {
			inFlight = true
		}
	}
	if !inFlight {
		t.Fatalf("panicked job missing from bundle's in-flight jobs: %+v", b.Jobs.Active)
	}
	var buf bytes.Buffer
	if err := recorder.WriteReport(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worker_panic") {
		t.Fatalf("report does not mention the trigger:\n%s", buf.String())
	}

	// A second panic inside the cooldown does not write a second bundle.
	if _, serr := d.Submit(ctx, oneJobRequest(Job{ID: "boom2", Mode: "ard", Net: testNetFile(t, 2, 6)})); serr != nil {
		t.Fatalf("second submit rejected: %v", serr)
	}
	if got := len(bundleDirs(t, dir)); got != 1 {
		t.Fatalf("panic storm wrote %d bundles, want 1 (cooldown)", got)
	}
}

// TestSLOFastBurnWritesPostmortem: a synthetic error burst trips an
// error_rate burn rule and the recorder writes a bundle naming it.
func TestSLOFastBurnWritesPostmortem(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	rules, err := recorder.ParseRules("err-fast:error_rate:0.5:200ms")
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.New(recorder.Config{
		Reg: reg, Dir: dir, Rules: rules, Interval: 20 * time.Millisecond, Logger: quietLogger(),
	})
	rec.Start()
	defer rec.Stop()
	d := newTestDaemon(t, Config{Workers: 2, Reg: reg, Recorder: rec})
	d.execHook = func(ctx context.Context, tk *task) Result {
		return d.failResult(tk, ErrInternal, "synthetic burn")
	}

	// Keep the failures flowing until the windowed rate covers the rule
	// window and the rule fires.
	net := testNetFile(t, 3, 6)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Submit(context.Background(), oneJobRequest(Job{ID: "burn", Mode: "msri", Net: net}))
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// The manifest is the last file a capture writes; waiting for it
	// avoids loading a bundle mid-write.
	waitFor(t, func() bool {
		for _, bd := range bundleDirs(t, dir) {
			if _, err := os.Stat(bd + "/manifest.json"); err == nil {
				return true
			}
		}
		return false
	})
	close(stop)
	wg.Wait()

	b, err := recorder.LoadBundle(bundleDirs(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger.Reason != recorder.ReasonSLOBurn {
		t.Fatalf("trigger reason %q, want %q", b.Manifest.Trigger.Reason, recorder.ReasonSLOBurn)
	}
	if !strings.Contains(b.Manifest.Trigger.Detail, "err-fast") {
		t.Fatalf("trigger detail %q does not name the rule", b.Manifest.Trigger.Detail)
	}
	var buf bytes.Buffer
	if err := recorder.WriteReport(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedJobsEnterDoneRing: a queue-saturation 429 retires the
// rejected jobs into the explain done-ring with outcome=rejected and
// the request's trace id, instead of erasing them.
func TestRejectedJobsEnterDoneRing(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, Reg: reg})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	d.execHook = func(ctx context.Context, tk *task) Result {
		started <- struct{}{}
		<-release
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey}
	}
	defer close(release)

	net := testNetFile(t, 4, 6)
	go d.Submit(context.Background(), oneJobRequest(Job{ID: "busy", Mode: "ard", Net: net}))
	<-started
	go d.Submit(context.Background(), oneJobRequest(Job{ID: "queued", Mode: "ard", Net: testNetFile(t, 5, 6)}))
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.free == 0
	})

	ctx := reqctx.WithTraceID(context.Background(), "trace-reject-1")
	_, serr := d.Submit(ctx, oneJobRequest(Job{ID: "victim", Mode: "ard", Net: testNetFile(t, 6, 6)}))
	if serr == nil || serr.Code != ErrQueueFull {
		t.Fatalf("want queue_full rejection, got %v", serr)
	}

	_, recent := d.table.List()
	var found *Explain
	for i := range recent {
		if recent[i].TraceID == "trace-reject-1" {
			found = &recent[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("rejected job missing from done-ring: %+v", recent)
	}
	if found.State != JobDone || found.Outcome != OutcomeRejected || found.Code != ErrQueueFull {
		t.Fatalf("rejected report = %+v", found)
	}
	if found.Label != "victim" {
		t.Fatalf("rejected report label = %q", found.Label)
	}
	// The rejected latency window observed the admission time.
	if q, ok := reg.Snapshot().Quantiles["svc/latency/e2e/rejected"]; !ok || q.Count != 1 {
		t.Fatalf("rejected e2e window not observed: %+v", q)
	}
	// It is also retrievable by trace id via the lookup path /debug/jobs uses.
	if e, ok := d.table.Get("trace-reject-1"); !ok || e.Outcome != OutcomeRejected {
		t.Fatalf("lookup by trace id: %+v %v", e, ok)
	}
}

// TestDebugRecorderAndDumpEndpoints: GET /debug/recorder serves the
// live ring + rule state, POST /debug/dump forces a bundle, and both
// 404 cleanly when no recorder is configured.
func TestDebugRecorderAndDumpEndpoints(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	rules, _ := recorder.ParseRules("slow:p99:e2e/ok:500ms:1m")
	rec := recorder.New(recorder.Config{Reg: reg, Dir: dir, Rules: rules,
		Interval: 10 * time.Millisecond, Logger: quietLogger()})
	rec.Start()
	defer rec.Stop()
	d := newTestDaemon(t, Config{Workers: 1, Reg: reg, Recorder: rec})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	waitFor(t, func() bool { return len(rec.Samples(0)) >= 2 })
	resp, err := http.Get(srv.URL + "/debug/recorder?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var state recorder.State
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(state.Samples) != 1 || len(state.Rules) != 1 || state.Rules[0].Rule.Name != "slow" {
		t.Fatalf("recorder state: samples=%d rules=%+v", len(state.Samples), state.Rules)
	}

	if resp, _ := http.Get(srv.URL + "/debug/recorder?n=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dump["bundle"] == "" {
		t.Fatalf("dump: status %d body %v", resp.StatusCode, dump)
	}
	if _, err := recorder.LoadBundle(dump["bundle"]); err != nil {
		t.Fatalf("dump wrote an unloadable bundle: %v", err)
	}

	// Without a recorder both endpoints 404.
	bare := newTestDaemon(t, Config{Workers: 1, Reg: obs.New()})
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	if resp, _ := http.Get(bareSrv.URL + "/debug/recorder"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /debug/recorder: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Post(bareSrv.URL+"/debug/dump", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /debug/dump: status %d, want 404", resp.StatusCode)
	}
}
