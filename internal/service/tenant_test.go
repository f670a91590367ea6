package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"msrnet/internal/obs"
)

func writeTenantsFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTenantsValidation(t *testing.T) {
	good := `{"schema":"msrnet-tenants/v1","tenants":[
		{"name":"acme","api_key":"ka","weight":3,"queue_slots":8,"nets_per_sec":100},
		{"name":"beta","api_key":"kb"}]}`
	cfgs, err := LoadTenants(writeTenantsFile(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Weight != 3 || cfgs[1].Weight != 1 {
		t.Fatalf("bad load: %+v (weight must default to 1)", cfgs)
	}

	bad := map[string]string{
		"schema":        `{"schema":"nope/v9","tenants":[{"name":"a","api_key":"k"}]}`,
		"empty":         `{"schema":"msrnet-tenants/v1","tenants":[]}`,
		"no name":       `{"schema":"msrnet-tenants/v1","tenants":[{"api_key":"k"}]}`,
		"no api_key":    `{"schema":"msrnet-tenants/v1","tenants":[{"name":"a"}]}`,
		"dup name":      `{"schema":"msrnet-tenants/v1","tenants":[{"name":"a","api_key":"k1"},{"name":"a","api_key":"k2"}]}`,
		"dup key":       `{"schema":"msrnet-tenants/v1","tenants":[{"name":"a","api_key":"k"},{"name":"b","api_key":"k"}]}`,
		"negative rate": `{"schema":"msrnet-tenants/v1","tenants":[{"name":"a","api_key":"k","nets_per_sec":-1}]}`,
	}
	for name, body := range bad {
		if _, err := LoadTenants(writeTenantsFile(t, body)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// TestTenantAuthRequired: with a tenants file, submissions without a
// known API key are 401; the right key resolves to the right tenant,
// visible on the explain report.
func TestTenantAuthRequired(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, Tenants: []TenantConfig{
		{Name: "acme", APIKey: "ka", Weight: 1},
		{Name: "beta", APIKey: "kb", Weight: 1},
	}})
	net := testNetFile(t, 51, 6)
	req := &Request{Version: SchemaVersion, Explain: true,
		Jobs: []Job{{ID: "j", Mode: "ard", Net: net}}}

	for name, ctx := range map[string]context.Context{
		"no key":      context.Background(),
		"unknown key": WithAPIKey(context.Background(), "stolen"),
	} {
		if _, serr := d.Submit(ctx, req); serr == nil ||
			serr.Status != http.StatusUnauthorized || serr.Code != ErrUnauthorized {
			t.Fatalf("%s: want 401 %s, got %v", name, ErrUnauthorized, serr)
		}
	}

	resp, serr := d.Submit(WithAPIKey(context.Background(), "kb"), req)
	if serr != nil {
		t.Fatal(serr)
	}
	r := resp.Results[0]
	if r.Status != StatusOK || r.Explain == nil || r.Explain.Tenant != "beta" {
		t.Fatalf("want beta-attributed success, got %+v", r)
	}
}

// TestTenantQueueQuota: one tenant's queue-slot quota rejects its own
// overflow with 429 quota_exceeded and a Retry-After, while the global
// queue still admits other tenants.
func TestTenantQueueQuota(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 8, Reg: reg, Tenants: []TenantConfig{
		{Name: "capped", APIKey: "kc", Weight: 1, QueueSlots: 1},
		{Name: "open", APIKey: "ko", Weight: 1},
	}})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	d.execHook = func(ctx context.Context, tk *task) Result {
		started <- struct{}{}
		<-release
		return Result{ID: tk.Label, Status: StatusOK}
	}

	submit := func(key, id string, seed int64) *SubmitError {
		_, serr := d.Submit(WithAPIKey(context.Background(), key),
			oneJobRequest(Job{ID: id, Mode: "ard", Net: testNetFile(t, seed, 6)}))
		return serr
	}
	var wg sync.WaitGroup
	async := func(key, id string, seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if serr := submit(key, id, seed); serr != nil {
				t.Errorf("job %s: %v", id, serr)
			}
		}()
	}
	// Cleanups run LIFO: unblock the workers first, then wait out the
	// in-flight submits, then (from newTestDaemon) close the daemon.
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { close(release) })

	async("kc", "busy", 61) // occupies the worker (slot released at dequeue)
	<-started
	async("kc", "queued", 62) // occupies capped's one queue slot
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.tenants["capped"].used == 1
	})

	serr := submit("kc", "over", 63)
	if serr == nil || serr.Status != http.StatusTooManyRequests || serr.Code != ErrQuotaExceeded {
		t.Fatalf("want 429 %s for capped overflow, got %v", ErrQuotaExceeded, serr)
	}
	if serr.RetryAfter < time.Second {
		t.Fatalf("quota rejection carries no Retry-After: %v", serr.RetryAfter)
	}
	if !strings.Contains(serr.Msg, "capped") {
		t.Fatalf("rejection should name the tenant: %q", serr.Msg)
	}
	if got := reg.Counter("svc/tenant/capped/jobs_rejected").Value(); got != 1 {
		t.Fatalf("capped jobs_rejected = %d, want 1", got)
	}

	// The global queue has 7 free slots: another tenant sails through.
	async("ko", "fine", 64)
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.tenants["open"].used == 1
	})
}

// TestTenantRateQuota: the deficit token bucket admits an oversized
// batch whole, then rejects the next submission with a Retry-After
// sized to the deficit — the tenant's personal backoff, not a guess.
func TestTenantRateQuota(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, QueueDepth: 16, Tenants: []TenantConfig{
		{Name: "metered", APIKey: "km", Weight: 1, NetsPerSec: 1},
	}})
	d.execHook = func(ctx context.Context, tk *task) Result {
		return Result{ID: tk.Label, Status: StatusOK}
	}
	ctx := WithAPIKey(context.Background(), "km")
	batch := &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "a", Mode: "ard", Net: testNetFile(t, 71, 6)},
		{ID: "b", Mode: "ard", Net: testNetFile(t, 72, 6)},
		{ID: "c", Mode: "ard", Net: testNetFile(t, 73, 6)},
	}}
	if _, serr := d.Submit(ctx, batch); serr != nil {
		t.Fatalf("burst batch should be admitted whole: %v", serr)
	}
	// Bucket: burst 1 - 3 jobs = 2-job deficit; at 1 net/sec that is a
	// 3s wait to get back above zero.
	_, serr := d.Submit(ctx, oneJobRequest(Job{ID: "d", Mode: "ard", Net: testNetFile(t, 74, 6)}))
	if serr == nil || serr.Code != ErrQuotaExceeded || serr.Status != http.StatusTooManyRequests {
		t.Fatalf("want 429 %s in deficit, got %v", ErrQuotaExceeded, serr)
	}
	if serr.RetryAfter < 2*time.Second || serr.RetryAfter > 3*time.Second {
		t.Fatalf("Retry-After = %v, want ~3s for a 2-job deficit at 1/sec", serr.RetryAfter)
	}
}

// TestFairShareDispatch: with both tenants backlogged behind one busy
// worker, dispatch follows stride weights — the weight-3 tenant's three
// jobs all run before the weight-1 tenant's, even though the light
// tenant enqueued first.
func TestFairShareDispatch(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 16, Tenants: []TenantConfig{
		{Name: "light", APIKey: "kl", Weight: 1},
		{Name: "heavy", APIKey: "kh", Weight: 3},
	}})
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	d.execHook = func(ctx context.Context, tk *task) Result {
		if tk.Label == "gate" {
			started <- struct{}{}
			<-gate
		} else {
			mu.Lock()
			order = append(order, tk.tn.cfg.Name)
			mu.Unlock()
		}
		return Result{ID: tk.Label, Status: StatusOK}
	}

	var wg sync.WaitGroup
	submit := func(key string, req *Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, serr := d.Submit(WithAPIKey(context.Background(), key), req); serr != nil {
				t.Errorf("submit: %v", serr)
			}
		}()
	}
	submit("kl", oneJobRequest(Job{ID: "gate", Mode: "ard", Net: testNetFile(t, 81, 6)}))
	<-started // worker is pinned; everything below queues up behind it

	submit("kl", &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "l1", Mode: "ard", Net: testNetFile(t, 82, 6)},
		{ID: "l2", Mode: "ard", Net: testNetFile(t, 83, 6)},
		{ID: "l3", Mode: "ard", Net: testNetFile(t, 84, 6)},
	}})
	submit("kh", &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "h1", Mode: "ard", Net: testNetFile(t, 85, 6)},
		{ID: "h2", Mode: "ard", Net: testNetFile(t, 86, 6)},
		{ID: "h3", Mode: "ard", Net: testNetFile(t, 87, 6)},
	}})
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.queued == 6
	})
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d jobs, want 6: %v", len(order), order)
	}
	// Stride math: light re-enters at pass 1 (it ran the gate job),
	// heavy starts at 0 and advances by 1/3 per dispatch — so heavy owns
	// the first three dequeues deterministically; the tail order depends
	// on tie-breaking and is not asserted.
	for i := 0; i < 3; i++ {
		if order[i] != "heavy" {
			t.Fatalf("dispatch order %v: slot %d went to %s, want heavy", order, i, order[i])
		}
	}
}

// TestDefaultTenantBackCompat: without a tenants file there is no auth
// and every submission lands on the unlimited default tenant.
func TestDefaultTenantBackCompat(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4})
	d.execHook = func(ctx context.Context, tk *task) Result {
		return Result{ID: tk.Label, Status: StatusOK}
	}
	resp, serr := d.Submit(context.Background(),
		oneJobRequest(Job{ID: "j", Mode: "ard", Net: testNetFile(t, 91, 6)}))
	if serr != nil || resp.Results[0].Status != StatusOK {
		t.Fatalf("keyless submit must work without tenants: %v %+v", serr, resp)
	}
	body, ok := d.TenantsState().(tenantsBody)
	if !ok || body.AuthRequired || len(body.Tenants) != 1 || body.Tenants[0].Name != DefaultTenant {
		t.Fatalf("default tenancy state wrong: %+v", body)
	}
}
