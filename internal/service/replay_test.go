package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"msrnet/internal/jobstore"
	"msrnet/internal/obs"
)

// openStoreT opens a jobstore in dir and registers cleanup.
func openStoreT(t *testing.T, dir string, reg *obs.Registry) (*jobstore.Store, *jobstore.Replay) {
	t.Helper()
	st, rep, err := jobstore.Open(jobstore.Options{Dir: dir, Reg: reg, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rep
}

// copyDir snapshots the WAL directory while the daemon is still
// running — the moral equivalent of what kill -9 leaves on disk, since
// Append only returns after fsync.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// strippedJSON marshals a result the way walResult stores it: no cache
// flag, no explain attachment.
func strippedJSON(t *testing.T, r Result) string {
	t.Helper()
	r.Cached = false
	r.Explain = nil
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func recoveredByLabel(jobs []RecoveredJob, label string) *RecoveredJob {
	for i := range jobs {
		if jobs[i].Label == label {
			return &jobs[i]
		}
	}
	return nil
}

// TestCrashReplayLosesNothing is the PR's acceptance e2e: a daemon
// accepts a batch, finishes two jobs and is "killed" mid-solve on the
// third (the WAL dir is snapshotted while the solve blocks — exactly
// the on-disk state a SIGKILL leaves, since appends fsync before
// returning). A second daemon started on that snapshot must restore
// the two finished results byte-identical to the original run and
// re-queue and re-solve the in-flight job — zero lost jobs.
func TestCrashReplayLosesNothing(t *testing.T) {
	reg := obs.New()
	walDir := t.TempDir()
	store, rep := openStoreT(t, walDir, reg)
	if len(rep.Entries) != 0 {
		t.Fatalf("fresh WAL replayed %d entries", len(rep.Entries))
	}
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 8, Reg: reg, Store: store})
	gate := make(chan struct{})
	solve := func(tk *task) Result {
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey,
			ARD: &ARDResult{ARD: 3.25, CritSrc: "s0", CritSink: "p1"}}
	}
	d.execHook = func(ctx context.Context, tk *task) Result {
		if tk.Label == "c" {
			<-gate
		}
		return solve(tk)
	}

	req := &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "a", Mode: "ard", Net: testNetFile(t, 41, 6)},
		{ID: "b", Mode: "ard", Net: testNetFile(t, 42, 6)},
		{ID: "c", Mode: "ard", Net: testNetFile(t, 43, 6)},
	}}
	respCh := make(chan *Response, 1)
	go func() {
		resp, serr := d.Submit(context.Background(), req)
		if serr != nil {
			t.Errorf("submit: %v", serr)
		}
		respCh <- resp
	}()

	// Three accepted records plus two result records = 5 appended; job c
	// is then blocked inside its solve with nothing else in flight, so
	// the snapshot is a quiescent post-fsync image.
	waitFor(t, func() bool { return reg.Counter("wal/appends").Value() == 5 })
	crashDir := copyDir(t, walDir)

	// Let the original run finish — its response is the byte-identity
	// reference for what recovery must serve.
	close(gate)
	resp := <-respCh
	if resp == nil {
		t.Fatal("original submit failed")
	}

	// "Restart": a fresh daemon on the crash image.
	reg2 := obs.New()
	store2, rep2 := openStoreT(t, crashDir, reg2)
	if len(rep2.Entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(rep2.Entries))
	}
	d2 := newTestDaemon(t, Config{Workers: 1, QueueDepth: 8, Reg: reg2, Store: store2})
	d2.execHook = func(ctx context.Context, tk *task) Result { return solve(tk) }
	requeued, restored := d2.Recover(rep2)
	if requeued != 1 || restored != 2 {
		t.Fatalf("Recover = (%d requeued, %d restored), want (1, 2)", requeued, restored)
	}
	waitFor(t, func() bool {
		jobs := d2.rec.list("")
		for i := range jobs {
			if jobs[i].State != "done" {
				return false
			}
		}
		return len(jobs) == 3
	})

	// Zero lost jobs, and the restored results are byte-identical to the
	// original run (modulo the per-delivery cache/explain attachments
	// the WAL never stores). The re-solved job matches too, because jobs
	// are deterministic by content.
	recovered := d2.rec.list("")
	for i, label := range []string{"a", "b", "c"} {
		j := recoveredByLabel(recovered, label)
		if j == nil || j.Result == nil {
			t.Fatalf("job %s missing from recovery", label)
		}
		got, err := json.Marshal(j.Result)
		if err != nil {
			t.Fatal(err)
		}
		if want := strippedJSON(t, resp.Results[i]); string(got) != want {
			t.Errorf("job %s not byte-identical after replay:\n got %s\nwant %s", label, got, want)
		}
	}

	// Fetching /v1/recovered is delivery: the done results are acked and
	// leave the table; a second fetch is empty.
	rr := httptest.NewRecorder()
	d2.handleRecovered(rr, httptest.NewRequest("GET", "/v1/recovered", nil))
	var body recoveredBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Schema != RecoveredSchema || len(body.Recovered) != 3 {
		t.Fatalf("GET /v1/recovered = schema %q, %d jobs; want %q, 3",
			body.Schema, len(body.Recovered), RecoveredSchema)
	}
	rr = httptest.NewRecorder()
	d2.handleRecovered(rr, httptest.NewRequest("GET", "/v1/recovered", nil))
	body = recoveredBody{}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recovered) != 0 {
		t.Fatalf("second fetch returned %d jobs, want 0 (fetch acks)", len(body.Recovered))
	}
}

// TestDegradedResultReplaysForExactResolve: a WAL holding a degraded
// result replays it as pending (marked degraded_resolve), and recovery
// re-solves it exactly — the ε-relaxed answer is never served forever.
func TestDegradedResultReplaysForExactResolve(t *testing.T) {
	dir := t.TempDir()
	st, _, err := jobstore.Open(jobstore.Options{Dir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(Job{ID: "g", Mode: "ard", Net: testNetFile(t, 44, 6)})
	if err != nil {
		t.Fatal(err)
	}
	acc := &jobstore.Record{Type: jobstore.TypeAccepted, Tenant: "", Label: "g", Job: job}
	if err := st.Append(context.Background(), acc); err != nil {
		t.Fatal(err)
	}
	degraded, err := json.Marshal(Result{ID: "g", Status: StatusOK, Degraded: true,
		DegradedReason: "deadline", ARD: &ARDResult{ARD: 9.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(context.Background(), &jobstore.Record{
		Type: jobstore.TypeResult, UID: acc.UID, Result: degraded, Degraded: true}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rep := openStoreT(t, dir, obs.New())
	if len(rep.Entries) != 1 || !rep.Entries[0].Pending() || !rep.Entries[0].Degraded {
		t.Fatalf("degraded entry should replay pending+degraded, got %+v", rep.Entries)
	}
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, Store: st2})
	d.execHook = func(ctx context.Context, tk *task) Result {
		return Result{ID: tk.Label, Status: StatusOK, NetKey: tk.NetKey, ARD: &ARDResult{ARD: 9.0}}
	}
	requeued, restored := d.Recover(rep)
	if requeued != 1 || restored != 0 {
		t.Fatalf("Recover = (%d, %d), want (1, 0)", requeued, restored)
	}
	jobs := d.rec.list("")
	if len(jobs) != 1 || !jobs[0].Resolved {
		t.Fatalf("recovered job not marked degraded_resolve: %+v", jobs)
	}
	waitFor(t, func() bool { return d.rec.list("")[0].State == "done" })
	got := d.rec.list("")[0].Result
	if got.Degraded || got.ARD == nil || got.ARD.ARD != 9.0 {
		t.Fatalf("re-solve should be exact, got %+v", got)
	}
}
