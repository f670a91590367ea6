package client

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"msrnet/internal/cluster"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/service"
)

// This file exercises the cluster-aware client against a real fleet:
// daemons on real listeners, gossip over the HTTP transport, discovery
// from a single seed, content-hash routing straight to each job's home
// peer, and failover when a member dies mid-run.

// fleetMember is one live msrnetd: its advertised base URL doubles as
// its cluster identity.
type fleetMember struct {
	base string
	node *cluster.Node
	srv  *service.HTTPServer
}

// startHTTPFleet binds n listeners first (identity must exist before
// the daemon), then builds fully-seeded nodes and serves each daemon.
// Gossip rounds are driven manually by the caller.
func startHTTPFleet(t *testing.T, n int) []*fleetMember {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	lns := make([]net.Listener, n)
	bases := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		bases[i] = "http://" + ln.Addr().String()
	}

	members := make([]*fleetMember, n)
	for i := range members {
		var seeds []cluster.Peer
		for j, b := range bases {
			if j != i {
				seeds = append(seeds, cluster.Peer{ID: cluster.ID(b), Addr: b})
			}
		}
		node := cluster.NewNode(cluster.Config{
			Self:      cluster.Peer{ID: cluster.ID(bases[i]), Addr: bases[i]},
			Seeds:     seeds,
			Params:    cluster.Params{ViewSize: 8, Fanout: 2},
			Transport: &cluster.HTTPTransport{},
			Seed:      int64(i + 1),
			Epoch:     int64(i+1) * 1000,
			Reg:       obs.New(),
			Logger:    quiet,
		})
		d := service.New(service.Config{Workers: 2, QueueDepth: 8, CacheSize: 64,
			Reg: obs.New(), Cluster: node, Logger: quiet})
		srv := service.ServeListener(lns[i], d, quiet)
		m := &fleetMember{base: bases[i], node: node, srv: srv}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.srv.Shutdown(ctx) // double shutdowns after a test kill are fine
		})
		members[i] = m
	}

	// Converge over real HTTP: every member must see all n peers.
	for round := 0; round < 20; round++ {
		full := true
		for _, m := range members {
			m.node.Tick()
			if len(m.node.Members()) != n {
				full = false
			}
		}
		if full && round > 0 {
			return members
		}
	}
	t.Fatal("HTTP fleet did not converge")
	return nil
}

// TestClusterClientRoutesAndFailsOver: the fleet acceptance path from
// the client side. Discovery from one seed finds every member; every
// job lands directly on its ring owner (proved by the owner itself
// answering, and by the whole batch hitting caches on resubmission);
// killing a member mid-session costs failover latency, not answers.
func TestClusterClientRoutesAndFailsOver(t *testing.T) {
	members := startHTTPFleet(t, 3)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	c := NewCluster([]string{members[0].base}, Options{
		Seed: 1, MaxAttempts: 2, BaseBackoff: time.Millisecond, Logger: quiet})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Members(); len(got) != 3 {
		t.Fatalf("discovered %d members, want 3: %v", len(got), got)
	}

	// The client must route by the same ring the daemons shard by.
	ids := make([]cluster.ID, 0, 3)
	for _, m := range members {
		ids = append(ids, cluster.ID(m.base))
	}
	ring := cluster.NewRing(ids, members[0].node.Vnodes())

	req := &service.Request{Version: service.SchemaVersion, Explain: true}
	for seed := int64(41); seed <= 45; seed++ {
		req.Jobs = append(req.Jobs, service.Job{Mode: "both", Net: chaosNet(t, seed, 8)})
	}
	resp, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Status != service.StatusOK {
			t.Fatalf("job %d failed: %s: %s", i, r.Code, r.Error)
		}
		key, herr := netio.ContentHash(req.Jobs[i].Net)
		if herr != nil {
			t.Fatal(herr)
		}
		owner, _ := ring.Owner(key)
		if r.Explain == nil || r.Explain.ServedBy != string(owner) {
			t.Fatalf("job %d should be answered by its home peer %q, got %+v", i, owner, r.Explain)
		}
	}

	// Resubmission: every job goes straight back to its home peer, whose
	// local cache holds the answer — the single-hop property end to end.
	resp, err = c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Status != service.StatusOK || !r.Cached {
			t.Fatalf("job %d on resubmission: status=%q cached=%v, want a cache hit", i, r.Status, r.Cached)
		}
	}

	// Kill the owner of job 0 and resubmit the whole batch: its group
	// fails over to a surviving member; nothing errors.
	key0, err := netio.ContentHash(req.Jobs[0].Net)
	if err != nil {
		t.Fatal(err)
	}
	owner0, _ := ring.Owner(key0)
	var dead *fleetMember
	for _, m := range members {
		if m.base == string(owner0) {
			dead = m
		}
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := dead.srv.Shutdown(sctx); err != nil {
		t.Fatalf("killing peer: %v", err)
	}
	resp, err = c.Run(ctx, req)
	if err != nil {
		t.Fatalf("batch after peer death: %v", err)
	}
	for i, r := range resp.Results {
		if r.Status != service.StatusOK {
			t.Fatalf("job %d after peer death: %s: %s", i, r.Code, r.Error)
		}
		if r.Explain != nil && r.Explain.ServedBy == string(owner0) {
			t.Fatalf("job %d claims the dead peer answered it", i)
		}
	}
}

// TestDrainingDaemonSends503WithRetryAfter: a draining peer
// (mid rolling-restart) must tell clients when to come back — the
// Retry-After hint the client's backoff honors on 503, not just 429.
func TestDrainingDaemonSends503WithRetryAfter(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	d := service.New(service.Config{Workers: 1, Reg: obs.New(), Logger: quiet})
	srv, err := service.Serve("127.0.0.1:0", d, quiet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	srv.StartDrain()

	body, err := json.Marshal(&service.Request{Version: service.SchemaVersion,
		Jobs: []service.Job{{Mode: "ard", Net: chaosNet(t, 51, 6)}}})
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post("http://"+srv.Addr().String()+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	io.Copy(io.Discard, hresp.Body)
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %d, want 503", hresp.StatusCode)
	}
	if ra := hresp.Header.Get("Retry-After"); parseRetryAfter(ra) <= 0 {
		t.Fatalf("503 carried Retry-After %q, want a positive hint", ra)
	}
}

// TestParseRetryAfterForms covers both RFC 9110 encodings and the
// degenerate values proxies produce.
func TestParseRetryAfterForms(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// A future HTTP-date maps to roughly the remaining interval.
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 25*time.Second || got > 31*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~30s", got)
	}
}
