// Package cluster turns a set of msrnetd processes into one fleet. It
// has three layers (DESIGN.md §13):
//
//   - membership: a Brahms-style gossip peer-sampler. Each node keeps a
//     bounded view of peers and, every round, performs push/pull view
//     exchanges with a few of them over a pluggable Transport; the next
//     view is mixed from pushed-in candidates, pulled views and a
//     history sample (the α/β/γ split), so a node cannot be flooded
//     into a poisoned view by pushes alone. All randomness comes from a
//     caller-seeded RNG and rounds can be driven manually, so
//     multi-node behaviour is deterministically testable in-memory.
//
//   - sharding: a consistent-hash ring (virtual nodes) over the live
//     member set. Keys are netio.ContentHash values, so every net has
//     one home peer and the per-daemon LRU result cache composes into a
//     cluster-wide shard cache with single-hop remote get/put.
//
//   - load + health: each node stamps its gossiped Info with its
//     /readyz verdict and queue load, so peers can pick live,
//     least-loaded targets for work-stealing without extra RPCs.
//
// The package is deliberately independent of internal/service: the
// daemon plugs in as a Local handler (cache, submit, status) and the
// two transports — in-memory for tests, HTTP riding msrnetd's listener
// at /cluster/* — carry the same four operations.
package cluster

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"msrnet/internal/obs"
)

// Schema identifies the JSON layout of the membership/state bodies
// (GET /cluster/members, postmortem cluster.json), the same way
// msrnet-metrics/v1 and msrnet-explain/v1 version their formats.
const Schema = "msrnet-cluster/v1"

// ID is a peer's stable identity within the fleet.
type ID string

// Peer is how a node is addressed: its identity plus the base URL the
// HTTP transport dials (opaque to the in-memory transport).
type Peer struct {
	ID   ID     `json:"id"`
	Addr string `json:"addr"`
}

// Info is one peer's gossiped state: identity, health and load, plus a
// heartbeat sequence so stale gossip never overwrites fresh gossip.
type Info struct {
	Peer
	// Ready mirrors the peer's /readyz verdict: false while draining or
	// queue-saturated. Not-ready peers keep their ring shards (their
	// cache still serves) but are skipped as work-stealing targets.
	Ready bool `json:"ready"`
	// Load is the peer's self-reported queue occupancy (queued jobs);
	// work-stealing prefers the smallest.
	Load int64 `json:"load"`
	// Seq is the peer's heartbeat: epoch + tick count, incremented only
	// by the peer itself. A peer whose Seq stops advancing is dead; a
	// restarted peer rejoins with a fresh (later) epoch.
	Seq int64 `json:"seq"`
	// WallMs is the peer's wall clock (Unix ms) stamped when it
	// generated this heartbeat. Pure payload — merge still orders by Seq
	// alone — it exists so third parties can witness the peer's clock:
	// the span collector refines its request/response-midpoint offset
	// estimates from (WallMs, StateBody.HeardMs) pairs. See DESIGN.md
	// §15.
	WallMs int64 `json:"wall_ms,omitempty"`
}

// View is a set of peer Infos keyed by ID, as exchanged by gossip.
type View map[ID]Info

// merge admits in unless the view already holds a fresher Info for the
// same peer; it reports whether the entry changed.
func (v View) merge(in Info) bool {
	cur, ok := v[in.ID]
	if ok && cur.Seq >= in.Seq {
		return false
	}
	v[in.ID] = in
	return true
}

// Failure detection is fixed, not tuned per deployment.
const (
	// suspectAfter drops a peer from the view after this many
	// consecutive failed exchanges.
	suspectAfter = 2
	// staleTicks drops (and refuses to readmit) a peer whose heartbeat
	// Seq has not advanced for this many local rounds — how a dead
	// peer's echo is purged even though live peers keep gossiping its
	// last Info.
	staleTicks = 8
)

// Params tunes the gossip core. The zero value takes the defaults.
type Params struct {
	// ViewSize bounds the local view (default 16).
	ViewSize int
	// Fanout is how many view peers each round exchanges with
	// (default 3).
	Fanout int
	// Vnodes is the virtual-node count per member on the consistent-
	// hash ring (default 64).
	Vnodes int
	// Interval is the gossip round period for Start (default 1s).
	// Tests drive rounds manually with Tick and never call Start.
	Interval time.Duration
}

func (p Params) withDefaults() Params {
	if p.ViewSize <= 0 {
		p.ViewSize = 16
	}
	if p.Fanout <= 0 {
		p.Fanout = 3
	}
	if p.Vnodes <= 0 {
		p.Vnodes = 64
	}
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	return p
}

// Config builds a Node.
type Config struct {
	// Self identifies this node to the fleet.
	Self Peer
	// Seeds are the peers contacted to join: the initial view.
	Seeds []Peer
	// Params tunes gossip; zero fields take defaults.
	Params Params
	// Transport carries gossip, shard-cache and forward traffic.
	Transport Transport
	// Seed determines the gossip RNG; 0 seeds from the clock.
	Seed int64
	// Epoch bases the heartbeat Seq so a restarted node outranks its
	// own pre-restart gossip echo; 0 uses the wall clock (tests pin
	// small values for determinism).
	Epoch int64
	// Reg receives the cluster/* counters and gauges; may be nil.
	Reg *obs.Registry
	// Logger receives membership-change lines; slog.Default when nil.
	Logger *slog.Logger
}

// entry is the node's bookkeeping around one view member.
type entry struct {
	info Info
	// fails counts consecutive failed exchanges with the peer.
	fails int
}

// Node is one process's cluster membership: the gossip core, the
// consistent-hash ring derived from the live view, and the remote-
// operation helpers the daemon uses (shard-cache get/put, forward).
// All methods are safe for concurrent use.
type Node struct {
	cfg Config
	prm Params
	tr  Transport
	log *slog.Logger

	mu    sync.Mutex
	rnd   *rand.Rand
	local Local
	view  map[ID]*entry
	// hist remembers the freshest Info ever seen per peer (minus
	// dropped-as-stale ones): the γ candidate pool, and the address
	// book for rejoining a partitioned fleet.
	hist map[ID]Info
	// lastSeq/lastAdvance implement the staleness fence per peer ID, so
	// a dead peer's echo cannot re-enter the view through gossip.
	lastSeq     map[ID]int64
	lastAdvance map[ID]int64
	// heardMs records this node's wall clock when each peer's heartbeat
	// last advanced — the witness half of the span collector's
	// clock-offset refinement (served in StateBody.HeardMs).
	heardMs map[ID]int64
	pushes  []Info
	tick    int64
	ring    *Ring
	ringKey string

	stop chan struct{}
	done chan struct{}

	rounds, gossipOK, gossipFail *obs.Counter
	removed, rebuilds            *obs.Counter
	remoteHits, remoteMisses     *obs.Counter
	remoteErrs, remotePuts       *obs.Counter
	remotePutErrs, forwards      *obs.Counter
	forwardErrs                  *obs.Counter
	peersGauge, ringMembersGauge *obs.Gauge
}

// NewNode builds the node with its seed view. Call SetLocal before the
// first gossip round so exchanged Infos carry real health and load,
// then Start (or drive rounds manually with Tick).
func NewNode(cfg Config) *Node {
	prm := cfg.Params.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = time.Now().UnixMilli()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	reg := cfg.Reg
	n := &Node{
		cfg:         cfg,
		prm:         prm,
		tr:          cfg.Transport,
		log:         log,
		rnd:         rand.New(rand.NewSource(seed)),
		view:        map[ID]*entry{},
		hist:        map[ID]Info{},
		lastSeq:     map[ID]int64{},
		lastAdvance: map[ID]int64{},
		heardMs:     map[ID]int64{},

		rounds:           reg.Counter("cluster/gossip_rounds"),
		gossipOK:         reg.Counter("cluster/gossip_exchanges_ok"),
		gossipFail:       reg.Counter("cluster/gossip_exchanges_failed"),
		removed:          reg.Counter("cluster/peers_removed"),
		rebuilds:         reg.Counter("cluster/ring_rebuilds"),
		remoteHits:       reg.Counter("cluster/shard_get_remote_hits"),
		remoteMisses:     reg.Counter("cluster/shard_get_remote_misses"),
		remoteErrs:       reg.Counter("cluster/shard_get_remote_errors"),
		remotePuts:       reg.Counter("cluster/shard_put_remote"),
		remotePutErrs:    reg.Counter("cluster/shard_put_remote_errors"),
		forwards:         reg.Counter("cluster/forwards_out"),
		forwardErrs:      reg.Counter("cluster/forward_errors"),
		peersGauge:       reg.Gauge("cluster/peers_live"),
		ringMembersGauge: reg.Gauge("cluster/ring_members"),
	}
	for _, s := range cfg.Seeds {
		if s.ID == "" || s.ID == cfg.Self.ID {
			continue
		}
		n.view[s.ID] = &entry{info: Info{Peer: s}}
		n.hist[s.ID] = Info{Peer: s}
	}
	n.rebuildRingLocked()
	return n
}

// SetLocal installs the daemon-side handler the transports dispatch to
// (shard-cache access, forwarded submissions, health/load). Must be
// set before serving cluster traffic; internal/service does it in New.
func (n *Node) SetLocal(l Local) {
	n.mu.Lock()
	n.local = l
	n.mu.Unlock()
}

// Self returns this node's identity.
func (n *Node) Self() Peer { return n.cfg.Self }

// IsSelf reports whether id names this node.
func (n *Node) IsSelf(id ID) bool { return id == n.cfg.Self.ID }

// selfInfoLocked stamps a fresh heartbeat with the daemon's live
// health and load.
func (n *Node) selfInfoLocked() Info {
	info := Info{Peer: n.cfg.Self, Seq: n.cfg.Epoch + n.tick, WallMs: time.Now().UnixMilli()}
	if n.local != nil {
		info.Ready, info.Load = n.local.Status()
	}
	return info
}

// Members returns the live membership — this node plus its view —
// sorted by ID.
func (n *Node) Members() []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Info, 0, len(n.view)+1)
	out = append(out, n.selfInfoLocked())
	for _, e := range n.view {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Owner returns the ring owner of key (a netio.ContentHash) among the
// live members. ok is false only when the ring is empty (then the
// caller is on its own — serve locally).
func (n *Node) Owner(key string) (Peer, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, ok := n.ring.Owner(key)
	if !ok {
		return Peer{}, false
	}
	return n.peerLocked(id), true
}

// Successors returns up to k distinct live members after key's owner
// in ring order — the failover candidates for a down owner.
func (n *Node) Successors(key string, k int) []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := n.ring.Successors(key, k)
	out := make([]Peer, 0, len(ids))
	for _, id := range ids {
		out = append(out, n.peerLocked(id))
	}
	return out
}

func (n *Node) peerLocked(id ID) Peer {
	if id == n.cfg.Self.ID {
		return n.cfg.Self
	}
	if e, ok := n.view[id]; ok {
		return e.info.Peer
	}
	if info, ok := n.hist[id]; ok {
		return info.Peer
	}
	return Peer{ID: id}
}

// LeastLoaded returns the ready view peer with the smallest gossiped
// load (ID order breaks ties), excluding the given IDs. ok is false
// when no ready peer remains — then there is nowhere to steal to.
func (n *Node) LeastLoaded(exclude ...ID) (Peer, bool) {
	skip := map[ID]bool{n.cfg.Self.ID: true}
	for _, id := range exclude {
		skip[id] = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var best *entry
	for _, e := range n.view {
		if skip[e.info.ID] || !e.info.Ready || e.fails > 0 {
			continue
		}
		if best == nil || e.info.Load < best.info.Load ||
			(e.info.Load == best.info.Load && e.info.ID < best.info.ID) {
			best = e
		}
	}
	if best == nil {
		return Peer{}, false
	}
	return best.info.Peer, true
}

// rebuildRingLocked re-derives the consistent-hash ring when the
// member set changed. Ring membership is the full live view plus self —
// draining (not-ready) peers keep their shards, because their cache
// still answers gets; only exchange-failing peers fall out (with the
// view itself).
func (n *Node) rebuildRingLocked() {
	ids := make([]ID, 0, len(n.view)+1)
	ids = append(ids, n.cfg.Self.ID)
	for id := range n.view {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := fmt.Sprint(ids)
	if key == n.ringKey && n.ring != nil {
		return
	}
	n.ring = NewRing(ids, n.prm.Vnodes)
	n.ringKey = key
	n.rebuilds.Inc()
	n.peersGauge.Set(int64(len(n.view)))
	n.ringMembersGauge.Set(int64(len(ids)))
}

// Start runs the gossip loop at Params.Interval until Stop.
func (n *Node) Start() {
	n.mu.Lock()
	if n.stop != nil {
		n.mu.Unlock()
		return
	}
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	stop, done := n.stop, n.done
	n.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(n.prm.Interval)
		defer t.Stop()
		n.Tick()
		for {
			select {
			case <-t.C:
				n.Tick()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the gossip loop; the node keeps answering exchanges.
func (n *Node) Stop() {
	n.mu.Lock()
	stop, done := n.stop, n.done
	n.stop, n.done = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// StateBody is the JSON shape of GET /cluster/members and of the
// postmortem bundle's cluster.json: everything a client needs to build
// the same ring this node routes by.
type StateBody struct {
	Schema  string `json:"schema"`
	Self    Info   `json:"self"`
	Members []Info `json:"members"`
	// Vnodes is the ring's virtual-node count; clients must build
	// their ring with the same value or routing disagrees.
	Vnodes int   `json:"vnodes"`
	Tick   int64 `json:"tick"`
	// HeardMs maps peer ID → this node's wall clock (Unix ms) when that
	// peer's heartbeat Seq last advanced. Combined with the peer's own
	// Info.WallMs it lets the span collector use this node as a clock
	// witness for peers it cannot probe directly.
	HeardMs map[ID]int64 `json:"heard_ms,omitempty"`
}

// State snapshots the membership for /cluster/members, msrnetctl
// -members and postmortem bundles.
func (n *Node) State() StateBody {
	members := n.Members()
	n.mu.Lock()
	self := n.selfInfoLocked()
	tick := n.tick
	heard := make(map[ID]int64, len(n.heardMs))
	for id, ms := range n.heardMs {
		heard[id] = ms
	}
	n.mu.Unlock()
	return StateBody{Schema: Schema, Self: self, Members: members, Vnodes: n.prm.Vnodes, Tick: tick, HeardMs: heard}
}

// Vnodes reports the ring's virtual-node count.
func (n *Node) Vnodes() int { return n.prm.Vnodes }
