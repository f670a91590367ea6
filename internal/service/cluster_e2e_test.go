package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"msrnet/internal/cluster"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
)

// This file is the fleet acceptance test (DESIGN.md §13): a
// deterministic multi-daemon cluster over the in-memory transport,
// driven round by round, asserting the properties the clustering layer
// promises — gossip convergence with ring agreement, single-hop shard
// cache hits across peers, work-stealing instead of 429, and the
// byte-equality invariant (a fleet answers exactly what one daemon
// answers) surviving peer death and partitions with zero errors.

// fleetID names fleet member i.
func fleetID(i int) cluster.ID { return cluster.ID(fmt.Sprintf("node-%d", i)) }

// testFleet is an n-daemon cluster on one in-memory network. Gossip is
// driven manually with tick/converge so every test run takes the same
// rounds in the same order.
type testFleet struct {
	t     *testing.T
	tr    *cluster.MemTransport
	nodes []*cluster.Node
	ds    []*Daemon
	regs  []*obs.Registry
}

// newTestFleet builds n clustered daemons seeded in a ring (each knows
// only its successor — convergence must be earned through gossip). mod
// may adjust a member's service config before construction.
func newTestFleet(t *testing.T, n int, mod func(i int, cfg *Config)) *testFleet {
	t.Helper()
	f := &testFleet{t: t, tr: cluster.NewMemTransport()}
	for i := 0; i < n; i++ {
		id := fleetID(i)
		next := fleetID((i + 1) % n)
		reg := obs.New()
		node := cluster.NewNode(cluster.Config{
			Self:      cluster.Peer{ID: id, Addr: string(id)},
			Seeds:     []cluster.Peer{{ID: next, Addr: string(next)}},
			Params:    cluster.Params{ViewSize: 8, Fanout: 2},
			Transport: f.tr,
			Seed:      int64(i + 1),
			Epoch:     int64(i+1) * 1000,
			Reg:       reg,
			Logger:    quietLogger(),
		})
		cfg := Config{Workers: 2, QueueDepth: 8, CacheSize: 64,
			Reg: reg, Cluster: node, Logger: quietLogger()}
		if mod != nil {
			mod(i, &cfg)
		}
		d := newTestDaemon(t, cfg) // New installs the Local adapter on node
		f.tr.Add(node)
		f.nodes = append(f.nodes, node)
		f.ds = append(f.ds, d)
		f.regs = append(f.regs, reg)
	}
	return f
}

// tick runs one gossip round on the listed members (all when empty) in
// index order.
func (f *testFleet) tick(idx ...int) {
	if len(idx) == 0 {
		for i := range f.nodes {
			idx = append(idx, i)
		}
	}
	for _, i := range idx {
		f.nodes[i].Tick()
	}
}

// converge drives rounds on the listed members (all when empty) until
// each sees exactly that member set, failing the test after the round
// budget.
func (f *testFleet) converge(rounds int, idx ...int) {
	f.t.Helper()
	if len(idx) == 0 {
		for i := range f.nodes {
			idx = append(idx, i)
		}
	}
	want := map[cluster.ID]bool{}
	for _, i := range idx {
		want[fleetID(i)] = true
	}
	for r := 0; r < rounds; r++ {
		f.tick(idx...)
		if f.membershipIs(want, idx...) {
			return
		}
	}
	f.t.Fatalf("fleet did not converge on %d members within %d rounds", len(idx), rounds)
}

// membershipIs reports whether each listed member's view is exactly
// the wanted ID set.
func (f *testFleet) membershipIs(want map[cluster.ID]bool, idx ...int) bool {
	for _, i := range idx {
		got := map[cluster.ID]bool{}
		for _, m := range f.nodes[i].Members() {
			got[m.ID] = true
		}
		if len(got) != len(want) {
			return false
		}
		for id := range want {
			if !got[id] {
				return false
			}
		}
	}
	return true
}

// ownerIndex resolves which fleet member owns key on node i's ring.
func (f *testFleet) ownerIndex(i int, key string) int {
	f.t.Helper()
	owner, ok := f.nodes[i].Owner(key)
	if !ok {
		f.t.Fatalf("node %d has an empty ring", i)
	}
	for j := range f.nodes {
		if fleetID(j) == owner.ID {
			return j
		}
	}
	f.t.Fatalf("owner %q is not a fleet member", owner.ID)
	return -1
}

// canonicalResult strips per-request decoration (label, cache flag,
// client report, explain) so results can be compared byte for byte:
// the fleet invariant is that everything left — status, net key, ARD,
// repeater solution — is identical no matter which member answered.
func canonicalResult(t *testing.T, r Result) []byte {
	t.Helper()
	r.ID = ""
	r.Cached = false
	r.Client = nil
	r.Explain = nil
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// mustSubmit submits one job and fails the test on any rejection or
// per-job failure — the "zero 5xx" half of the acceptance bar.
func mustSubmit(t *testing.T, d *Daemon, req *Request) *Response {
	t.Helper()
	resp, serr := d.Submit(context.Background(), req)
	if serr != nil {
		t.Fatalf("submit rejected: HTTP %d %s: %s", serr.Status, serr.Code, serr.Msg)
	}
	for _, r := range resp.Results {
		if r.Status != StatusOK {
			t.Fatalf("job %s failed: %s: %s", r.ID, r.Code, r.Error)
		}
	}
	return resp
}

// TestFleetConvergesAndAgreesOnRouting: three daemons seeded in a ring
// gossip to full membership, and every member derives the same ring —
// the property single-hop routing (daemons and clients alike) rests on.
func TestFleetConvergesAndAgreesOnRouting(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	f.converge(30)
	for seed := int64(1); seed <= 8; seed++ {
		key, err := netio.ContentHash(testNetFile(t, seed, 6))
		if err != nil {
			t.Fatal(err)
		}
		want := f.ownerIndex(0, key)
		for i := 1; i < len(f.nodes); i++ {
			if got := f.ownerIndex(i, key); got != want {
				t.Fatalf("key %s: node 0 routes to %d, node %d routes to %d", key, want, i, got)
			}
		}
	}
}

// TestFleetShardCacheServesAcrossPeers: a net solved through one
// non-owner member replicates to its home peer, and a later submission
// of the same net to a *different* non-owner member is served from the
// owner's shard in one hop — cached, provenance-stamped, and
// byte-identical to both the original solve and a clusterless daemon.
func TestFleetShardCacheServesAcrossPeers(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	f.converge(30)

	net := testNetFile(t, 11, 6)
	netKey, err := netio.ContentHash(net)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.ownerIndex(0, netKey)
	others := make([]int, 0, 2)
	for i := range f.ds {
		if i != owner {
			others = append(others, i)
		}
	}
	job := Job{Mode: "both", Net: net}
	req := &Request{Version: SchemaVersion, Jobs: []Job{job}, Explain: true}

	// Reference answer from a clusterless daemon.
	single := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 8, Reg: obs.New()})
	ref := canonicalResult(t, mustSubmit(t, single, req).Results[0])

	// Solve through the first non-owner: a fresh compute, replicated to
	// the owner's shard before Submit returns.
	first := mustSubmit(t, f.ds[others[0]], req).Results[0]
	if first.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	if got := canonicalResult(t, first); string(got) != string(ref) {
		t.Fatalf("fleet result differs from single-node result:\nfleet:  %s\nsingle: %s", got, ref)
	}
	if _, ok := f.ds[owner].cache.Get(job.cacheKey(netKey)); !ok {
		t.Fatalf("solve did not replicate to home peer %d's shard", owner)
	}

	// Same net through the other non-owner: its local cache is cold, so
	// the hit must come from the owner's shard in one hop.
	second := mustSubmit(t, f.ds[others[1]], req).Results[0]
	if !second.Cached {
		t.Fatal("second submission via another member should hit the shard cache")
	}
	if second.Explain == nil || second.Explain.ServedBy != string(fleetID(owner)) {
		t.Fatalf("explain should credit the home peer %q, got %+v", fleetID(owner), second.Explain)
	}
	if got := f.regs[others[1]].Counter("cluster/shard_get_remote_hits").Value(); got != 1 {
		t.Fatalf("shard_get_remote_hits = %d, want 1", got)
	}
	if got := canonicalResult(t, second); string(got) != string(ref) {
		t.Fatalf("shard-cache hit differs from single-node result:\nfleet:  %s\nsingle: %s", got, ref)
	}
}

// TestFleetStealsWorkInsteadOf429: a member whose queue is saturated
// forwards the overflow batch to the least-loaded ready peer and
// returns its answer — the client sees a 200 where a lone daemon would
// send 429 — with provenance on both sides' explain reports.
func TestFleetStealsWorkInsteadOf429(t *testing.T) {
	f := newTestFleet(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers, cfg.QueueDepth = 1, 1
		}
	})
	f.converge(30)

	// Saturate node-0: one job on the worker, one in the only queue slot.
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
			mustSubmit(t, f.ds[0], oneJobRequest(Job{ID: id, Mode: "ard", Net: testNetFile(t, 31, 6)}))
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

	// The next batch cannot be admitted locally: it must come back 200
	// via a peer, not 429.
	net := testNetFile(t, 32, 6)
	resp := mustSubmit(t, f.ds[0], &Request{Version: SchemaVersion,
		Jobs: []Job{{ID: "stolen", Mode: "both", Net: net}}, Explain: true})
	res := resp.Results[0]
	if res.Explain == nil {
		t.Fatal("missing explain report on stolen job")
	}
	if res.Explain.ForwardedFrom != string(fleetID(0)) {
		t.Fatalf("executor's explain should name the forwarder: got %q", res.Explain.ForwardedFrom)
	}
	if sb := res.Explain.ServedBy; sb != string(fleetID(1)) && sb != string(fleetID(2)) {
		t.Fatalf("stolen job served by %q, want a peer of node-0", sb)
	}
	if got := f.regs[0].Counter("svc/jobs_forwarded").Value(); got != 1 {
		t.Fatalf("svc/jobs_forwarded = %d, want 1", got)
	}
	if got := f.regs[0].Counter("cluster/forwards_out").Value(); got != 1 {
		t.Fatalf("cluster/forwards_out = %d, want 1", got)
	}
	if got := f.regs[0].Counter("svc/jobs_rejected").Value(); got != 0 {
		t.Fatalf("svc/jobs_rejected = %d, want 0 — stealing must replace the 429", got)
	}
	// The forwarder's own job table retires the job as forwarded, with
	// the executing peer on record.
	_, recent := f.ds[0].table.List()
	var fwd *Explain
	for i := range recent {
		if recent[i].Label == "stolen" {
			fwd = &recent[i]
		}
	}
	if fwd == nil || fwd.Outcome != OutcomeForwarded {
		t.Fatalf("forwarder's table should retire the job as %q, got %+v", OutcomeForwarded, fwd)
	}
	if fwd.ServedBy != res.Explain.ServedBy {
		t.Fatalf("forwarder records peer %q, executor says %q", fwd.ServedBy, res.Explain.ServedBy)
	}
}

// TestFleetSurvivesPeerDeathAndPartition is the chaos half of the
// acceptance bar: kill a member mid-flight, then partition the two
// survivors — at every stage every submission to a live member
// succeeds (zero rejections, zero failed jobs) and the answers stay
// byte-identical to a clusterless daemon's. Afterwards the healed
// survivors re-converge on their own.
func TestFleetSurvivesPeerDeathAndPartition(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	f.converge(30)

	const jobs = 6
	reqFor := func(i int) *Request {
		return oneJobRequest(Job{ID: fmt.Sprintf("job-%d", i), Mode: "both", Net: testNetFile(t, int64(21+i), 6)})
	}
	single := newTestDaemon(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 16, Reg: obs.New()})
	refs := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		refs[i] = string(canonicalResult(t, mustSubmit(t, single, reqFor(i)).Results[0]))
	}

	check := func(stage string, members ...int) {
		t.Helper()
		for i := 0; i < jobs; i++ {
			d := f.ds[members[i%len(members)]]
			got := canonicalResult(t, mustSubmit(t, d, reqFor(i)).Results[0])
			if string(got) != refs[i] {
				t.Fatalf("%s: job %d differs from single-node answer:\nfleet:  %s\nsingle: %s",
					stage, i, got, refs[i])
			}
		}
	}

	// Healthy fleet: round-robin across all members.
	check("healthy fleet", 0, 1, 2)

	// Kill node-2 and submit IMMEDIATELY — survivors still believe it is
	// alive and route shard traffic at it; every remote error must
	// degrade to a local solve, never to a failure.
	f.tr.Kill(fleetID(2))
	check("peer just died", 0, 1)

	// Let gossip notice: the dead peer leaves both views and the ring.
	f.converge(40, 0, 1)
	for i := 0; i < jobs; i++ {
		key, err := netio.ContentHash(reqFor(i).Jobs[0].Net)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 1} {
			if owner := f.ownerIndex(m, key); owner == 2 {
				t.Fatalf("dead peer still owns key %s on node %d's ring", key, m)
			}
		}
	}
	check("peer evicted", 0, 1)

	// Partition the survivors from each other: with no third member to
	// relay heartbeats, each eventually runs solo — and keeps answering.
	f.tr.Partition(fleetID(0), fleetID(1))
	for r := 0; r < 8; r++ {
		f.tick(0, 1)
	}
	check("survivors partitioned", 0, 1)

	// Heal: the history address book lets the halves find each other
	// again without any reseeding.
	f.tr.Heal(fleetID(0), fleetID(1))
	f.converge(40, 0, 1)
	check("partition healed", 0, 1)
}
