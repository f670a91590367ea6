package cluster

import (
	"context"
	"sort"
	"time"
)

// GossipMsg is one push/pull exchange request: the sender's identity
// and its annotated view (including the sender's own fresh Info, which
// is what makes the exchange a push).
type GossipMsg struct {
	From Peer `json:"from"`
	View View `json:"view"`
}

// The Brahms view-mix split: the fractions of the next view's candidate
// slots drawn from pushed-in peers (α), pulled views (β) and the
// history sample (γ).
const (
	mixAlpha = 0.45
	mixBeta  = 0.45
	mixGamma = 0.10
)

// exchangeTimeout bounds one gossip exchange so a dead peer costs a
// round at most this much wall clock.
const exchangeTimeout = 2 * time.Second

// Tick runs one gossip round: push/pull exchanges with up to Fanout
// view peers, then the Brahms-style view mix — α slots from peers that
// pushed to us since the last round, β from the views we pulled, γ
// from a history sample — with failed and stale peers dropped. Rounds
// are driven by Start in production and called directly by tests.
func (n *Node) Tick() {
	n.rounds.Inc()
	n.mu.Lock()
	n.tick++
	self := n.selfInfoLocked()
	push := n.liveViewLocked()
	push[self.ID] = self
	targets := n.targetsLocked()
	// Claim the pushes received since the last round; exchanges below
	// run unlocked, so fresh pushes land in the next round's mix.
	pushes := n.pushes
	n.pushes = nil
	n.mu.Unlock()

	var pulls []View
	failed := map[ID]bool{}
	for _, p := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout)
		reply, err := n.tr.Gossip(ctx, n.cfg.Self, p, GossipMsg{From: n.cfg.Self, View: push})
		cancel()
		if err != nil {
			n.gossipFail.Inc()
			failed[p.ID] = true
			continue
		}
		n.gossipOK.Inc()
		pulls = append(pulls, reply)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range failed {
		if e, ok := n.view[id]; ok {
			e.fails++
		}
	}
	n.mixLocked(pushes, pulls)
	n.rebuildRingLocked()
}

// HandleGossip answers one exchange: record the sender as a push
// candidate, absorb its view into history, and reply with our live
// view plus our own fresh Info (the pull half).
func (n *Node) HandleGossip(msg GossipMsg) View {
	n.mu.Lock()
	defer n.mu.Unlock()
	if from, ok := msg.View[msg.From.ID]; ok && from.ID != n.cfg.Self.ID {
		n.pushes = append(n.pushes, from)
	} else if msg.From.ID != "" && msg.From.ID != n.cfg.Self.ID {
		n.pushes = append(n.pushes, Info{Peer: msg.From})
	}
	for id, info := range msg.View {
		if id == n.cfg.Self.ID {
			continue
		}
		n.recordHistLocked(info)
	}
	reply := n.liveViewLocked()
	reply[n.cfg.Self.ID] = n.selfInfoLocked()
	return reply
}

// liveViewLocked copies the current view as an exchangeable View.
func (n *Node) liveViewLocked() View {
	v := make(View, len(n.view)+1)
	for id, e := range n.view {
		v[id] = e.info
	}
	return v
}

// targetsLocked samples up to Fanout distinct exchange targets from
// the view, falling back to the seed/history address book when the
// view is empty (bootstrap, or every member temporarily lost).
func (n *Node) targetsLocked() []Peer {
	pool := make([]Peer, 0, len(n.view))
	for _, e := range n.view {
		pool = append(pool, e.info.Peer)
	}
	if len(pool) == 0 {
		for _, info := range n.hist {
			pool = append(pool, info.Peer)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	n.rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > n.prm.Fanout {
		pool = pool[:n.prm.Fanout]
	}
	return pool
}

// recordHistLocked remembers the freshest Info seen for a peer and
// advances its staleness fence when the heartbeat moved.
func (n *Node) recordHistLocked(info Info) {
	if info.ID == "" || info.ID == n.cfg.Self.ID {
		return
	}
	if cur, ok := n.hist[info.ID]; !ok || info.Seq > cur.Seq {
		n.hist[info.ID] = info
	}
	if info.Seq > n.lastSeq[info.ID] {
		n.lastSeq[info.ID] = info.Seq
		n.lastAdvance[info.ID] = n.tick
		// Witness stamp: our wall clock at the moment this peer's
		// heartbeat advanced, paired with the WallMs the peer put in it.
		n.heardMs[info.ID] = time.Now().UnixMilli()
		// An advancing heartbeat proves the peer is alive, even when our
		// own exchanges with it fail (one cut link, not a dead process):
		// gossip relayed through third parties clears the suspicion.
		if e, ok := n.view[info.ID]; ok {
			e.fails = 0
		}
	}
}

// admissibleLocked reports whether a candidate may (re)enter the view:
// its heartbeat must have advanced within the staleness window. A dead
// peer's echo keeps its last Seq forever and is fenced out once every
// node has seen no advance for staleTicks rounds.
func (n *Node) admissibleLocked(info Info) bool {
	if info.ID == "" || info.ID == n.cfg.Self.ID {
		return false
	}
	last, seen := n.lastAdvance[info.ID]
	if !seen {
		// Never heard a heartbeat: a bootstrap seed or a brand-new peer.
		// Admit it and let the fence judge it from here on.
		return true
	}
	return n.tick-last <= staleTicks
}

// mixLocked computes the next view from this round's evidence.
func (n *Node) mixLocked(pushes []Info, pulls []View) {
	for _, info := range pushes {
		n.recordHistLocked(info)
	}
	for _, v := range pulls {
		for _, info := range v {
			n.recordHistLocked(info)
		}
	}

	l := n.prm.ViewSize
	slots := func(f float64) int {
		k := int(f*float64(l) + 0.5)
		if k < 1 {
			k = 1
		}
		return k
	}
	cands := View{}
	take := func(pool []Info, limit int) {
		n.rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		taken := 0
		for _, info := range pool {
			if taken >= limit {
				break
			}
			if !n.admissibleLocked(info) {
				continue
			}
			if cands.merge(info) {
				taken++
			}
		}
	}

	// α: peers that pushed to us.
	take(append([]Info(nil), pushes...), slots(mixAlpha))
	// β: peers from the views we pulled.
	var pulled []Info
	for _, v := range pulls {
		for _, info := range v {
			pulled = append(pulled, info)
		}
	}
	sort.Slice(pulled, func(i, j int) bool {
		if pulled[i].ID != pulled[j].ID {
			return pulled[i].ID < pulled[j].ID
		}
		return pulled[i].Seq > pulled[j].Seq
	})
	take(pulled, slots(mixBeta))
	// γ: a uniform sample of everyone ever seen.
	histPool := make([]Info, 0, len(n.hist))
	for _, info := range n.hist {
		histPool = append(histPool, info)
	}
	sort.Slice(histPool, func(i, j int) bool { return histPool[i].ID < histPool[j].ID })
	take(histPool, slots(mixGamma))

	// Carry over current members not re-drawn this round (keeps the
	// view stable in small fleets where one round's sample is sparse),
	// unless they are suspect or stale.
	next := map[ID]*entry{}
	for id, info := range cands {
		e := &entry{info: info}
		if old, ok := n.view[id]; ok {
			e.fails = old.fails
			if info.Seq < old.info.Seq {
				e.info = old.info
			}
		}
		next[id] = e
	}
	for id, old := range n.view {
		if _, ok := next[id]; !ok && n.admissibleLocked(old.info) {
			next[id] = old
		}
	}
	for id, e := range next {
		if e.fails >= suspectAfter || !n.admissibleLocked(e.info) {
			delete(next, id)
			n.removed.Inc()
			n.log.Info("cluster: peer removed", "peer", id, "fails", e.fails, "seq", e.info.Seq)
		}
	}
	// Cap at ViewSize, preferring the freshest heartbeats.
	if len(next) > l {
		ids := make([]ID, 0, len(next))
		for id := range next {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			a, b := next[ids[i]], next[ids[j]]
			if a.info.Seq != b.info.Seq {
				return a.info.Seq > b.info.Seq
			}
			return ids[i] < ids[j]
		})
		for _, id := range ids[l:] {
			delete(next, id)
		}
	}
	n.view = next
}
