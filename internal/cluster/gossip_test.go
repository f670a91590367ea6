package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"testing"

	"msrnet/internal/obs"
)

// testLocal is a minimal Local: always ready, fixed load, map cache.
type testLocal struct {
	ready bool
	load  int64
	cache map[string][]byte
}

func newTestLocal() *testLocal { return &testLocal{ready: true, cache: map[string][]byte{}} }

func (l *testLocal) CacheGet(key string) ([]byte, bool) { v, ok := l.cache[key]; return v, ok }
func (l *testLocal) CachePut(key string, val []byte)    { l.cache[key] = val }
func (l *testLocal) Submit(ctx context.Context, body []byte, meta ForwardMeta) ([]byte, int) {
	return []byte(`{}`), 200
}
func (l *testLocal) Status() (bool, int64) { return l.ready, l.load }

// newTestFleet builds n nodes on one MemTransport, each seeded with its
// ring-next neighbour (the brahms-test bootstrap shape).
func newTestFleet(t *testing.T, n int) (*MemTransport, []*Node) {
	t.Helper()
	tr := NewMemTransport()
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{ID: ID(fmt.Sprintf("n%d", i)), Addr: fmt.Sprintf("mem://n%d", i)}
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			Self:      peers[i],
			Seeds:     []Peer{peers[(i+1)%n]},
			Params:    Params{ViewSize: 8, Fanout: 2},
			Transport: tr,
			Seed:      int64(i + 1),
			Epoch:     int64(i+1) * 1000,
			Reg:       obs.New(),
			Logger:    slog.New(slog.DiscardHandler),
		})
		nodes[i].SetLocal(newTestLocal())
		tr.Add(nodes[i])
	}
	return tr, nodes
}

func tickAll(nodes []*Node) {
	for _, n := range nodes {
		n.Tick()
	}
}

// converged reports whether every node's membership is exactly want.
func converged(nodes []*Node, want map[ID]bool) bool {
	for _, n := range nodes {
		ms := n.Members()
		if len(ms) != len(want) {
			return false
		}
		for _, m := range ms {
			if !want[m.ID] {
				return false
			}
		}
	}
	return true
}

func fullSet(n int) map[ID]bool {
	want := map[ID]bool{}
	for i := 0; i < n; i++ {
		want[ID(fmt.Sprintf("n%d", i))] = true
	}
	return want
}

func TestGossipConvergesFromRingBootstrap(t *testing.T) {
	_, nodes := newTestFleet(t, 5)
	want := fullSet(5)
	for round := 0; round < 30; round++ {
		tickAll(nodes)
		if converged(nodes, want) {
			// Rings must agree everywhere once views agree.
			for _, k := range keys(50) {
				o0, ok := nodes[0].Owner(k)
				if !ok {
					t.Fatal("no owner")
				}
				for _, n := range nodes[1:] {
					if o, _ := n.Owner(k); o.ID != o0.ID {
						t.Fatalf("ring disagreement for %s: %s vs %s", k, o0.ID, o.ID)
					}
				}
			}
			return
		}
	}
	for i, n := range nodes {
		t.Logf("node %d members: %+v", i, n.Members())
	}
	t.Fatal("views did not converge in 30 rounds")
}

func TestGossipDropsKilledPeer(t *testing.T) {
	tr, nodes := newTestFleet(t, 4)
	for round := 0; round < 30 && !converged(nodes, fullSet(4)); round++ {
		tickAll(nodes)
	}
	if !converged(nodes, fullSet(4)) {
		t.Fatal("no initial convergence")
	}

	tr.Kill("n3")
	survivors := nodes[:3]
	want := fullSet(3)
	for round := 0; round < 40; round++ {
		tickAll(survivors)
		if converged(survivors, want) {
			for _, n := range survivors {
				if _, ok := n.view["n3"]; ok {
					t.Fatal("dead peer still in view")
				}
			}
			// The dead peer owns nothing on the new ring.
			for _, k := range keys(100) {
				if o, _ := survivors[0].Owner(k); o.ID == "n3" {
					t.Fatalf("dead peer still owns %s", k)
				}
			}
			return
		}
	}
	t.Fatal("survivors did not drop the killed peer in 40 rounds")
}

func TestGossipHealsPartition(t *testing.T) {
	tr, nodes := newTestFleet(t, 3)
	for round := 0; round < 30 && !converged(nodes, fullSet(3)); round++ {
		tickAll(nodes)
	}
	tr.Partition("n0", "n1")
	// Ride out the partition: n2 still talks to both sides, so nobody
	// should lose the full membership (gossip routes around the cut).
	for round := 0; round < 20; round++ {
		tickAll(nodes)
	}
	if !converged(nodes, fullSet(3)) {
		t.Fatal("membership fell apart under a single-link partition")
	}
	tr.Heal("n0", "n1")
	for round := 0; round < 10; round++ {
		tickAll(nodes)
	}
	if !converged(nodes, fullSet(3)) {
		t.Fatal("membership did not survive the heal")
	}
}

func TestGossipRejoinAfterRevive(t *testing.T) {
	tr, nodes := newTestFleet(t, 3)
	for round := 0; round < 30 && !converged(nodes, fullSet(3)); round++ {
		tickAll(nodes)
	}
	tr.Kill("n2")
	for round := 0; round < 40 && !converged(nodes[:2], fullSet(2)); round++ {
		tickAll(nodes[:2])
	}
	if !converged(nodes[:2], fullSet(2)) {
		t.Fatal("survivors did not drop n2")
	}

	// n2 restarts with a fresh (later) epoch: its heartbeat outranks the
	// stale fence and it rejoins.
	revived := NewNode(Config{
		Self:      Peer{ID: "n2", Addr: "mem://n2"},
		Seeds:     []Peer{{ID: "n0", Addr: "mem://n0"}},
		Params:    Params{ViewSize: 8, Fanout: 2},
		Transport: tr,
		Seed:      99,
		Epoch:     1_000_000,
		Reg:       obs.New(),
		Logger:    slog.New(slog.DiscardHandler),
	})
	revived.SetLocal(newTestLocal())
	tr.Add(revived)
	all := []*Node{nodes[0], nodes[1], revived}
	for round := 0; round < 40; round++ {
		tickAll(all)
		if converged(all, fullSet(3)) {
			return
		}
	}
	t.Fatal("revived peer did not rejoin in 40 rounds")
}

func TestLeastLoadedPrefersReadyAndLight(t *testing.T) {
	_, nodes := newTestFleet(t, 3)
	locals := make([]*testLocal, 3)
	for i, n := range nodes {
		locals[i] = newTestLocal()
		locals[i].load = int64(10 - i) // n2 lightest
		n.SetLocal(locals[i])
	}
	for round := 0; round < 30 && !converged(nodes, fullSet(3)); round++ {
		tickAll(nodes)
	}
	// One more round so every view carries fresh load annotations.
	tickAll(nodes)
	p, ok := nodes[0].LeastLoaded()
	if !ok || p.ID != "n2" {
		t.Fatalf("least loaded: got %v %v, want n2", p, ok)
	}
	// A draining peer is not a stealing target.
	locals[2].ready = false
	for round := 0; round < 4; round++ {
		tickAll(nodes)
	}
	p, ok = nodes[0].LeastLoaded()
	if !ok || p.ID != "n1" {
		t.Fatalf("least loaded with n2 draining: got %v %v, want n1", p, ok)
	}
	// Excluding the remaining candidate leaves nothing.
	if _, ok := nodes[0].LeastLoaded("n1", "n2"); ok {
		t.Fatal("LeastLoaded ignored the exclusion list")
	}
}

func TestStateCarriesRingParameters(t *testing.T) {
	_, nodes := newTestFleet(t, 3)
	for round := 0; round < 30 && !converged(nodes, fullSet(3)); round++ {
		tickAll(nodes)
	}
	st := nodes[0].State()
	if st.Schema != Schema {
		t.Fatalf("schema: %q", st.Schema)
	}
	if st.Vnodes != nodes[0].Vnodes() || st.Vnodes <= 0 {
		t.Fatalf("vnodes: %d", st.Vnodes)
	}
	if len(st.Members) != 3 {
		t.Fatalf("members: %+v", st.Members)
	}
	// A client building a ring from the state must agree with the node.
	ids := make([]ID, 0, len(st.Members))
	for _, m := range st.Members {
		ids = append(ids, m.ID)
	}
	ring := NewRing(ids, st.Vnodes)
	for _, k := range keys(50) {
		want, _ := nodes[0].Owner(k)
		got, _ := ring.Owner(k)
		if got != want.ID {
			t.Fatalf("client ring disagrees for %s: %s vs %s", k, got, want.ID)
		}
	}
}
