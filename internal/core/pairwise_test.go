package core_test

// This file implements the "arbitrary pair-wise constraints"
// formulation that §II of Lillis & Cheng (TCAD'99) contrasts with the
// ARD: instead of one spec derived from per-terminal arrival times and
// requirements, every (source, sink) pair may carry its own delay bound.
//
// The paper makes two points about this formulation, both of which this
// file makes concrete:
//
//   - Verification alone costs Θ(s·n): all pairs must be examined
//     (footnote 8). Check implements exactly that.
//   - The dynamic-programming decomposition behind the optimal ARD
//     algorithm breaks: with arbitrary bounds, different external sinks
//     can have different critical sources inside the same subtree
//     (footnote 10), so no single per-subtree arrival function suffices.
//     The tests exhibit such an instance.
//
// For small instances the file still solves the constrained min-cost
// problem exactly — by exhaustive enumeration — which doubles as a
// consistency check: with uniform bounds the answer must coincide with
// the ARD machinery's Problem 2.1 solution.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/geom"
	"msrnet/internal/rctree"
	"msrnet/internal/testnet"
	"msrnet/internal/topo"
)

// Constraints maps (source node id, sink node id) to a maximum allowed
// augmented delay AAT(u) + PD(u,v) + Q(v). Pairs not present are
// unconstrained. Self pairs are ignored.
type Constraints map[[2]int]float64

// Uniform builds constraints bounding every source/sink pair by the same
// spec — the special case equivalent to ARD ≤ spec.
func Uniform(tr *topo.Tree, spec float64) Constraints {
	c := Constraints{}
	for _, u := range tr.Sources() {
		for _, v := range tr.Sinks() {
			if u != v {
				c[[2]int{u, v}] = spec
			}
		}
	}
	return c
}

// Violation reports one failed constraint.
type Violation struct {
	Src, Sink int
	Delay     float64
	Limit     float64
}

// Check verifies an assignment against the constraints by the necessary
// Θ(s·n) sweep: one Elmore propagation per constrained source. It returns
// all violations, sorted by excess.
func Check(n *rctree.Net, c Constraints) []Violation {
	t := n.R.Tree
	bySrc := map[int][][2]int{}
	for pair := range c {
		bySrc[pair[0]] = append(bySrc[pair[0]], pair)
	}
	var out []Violation
	for src, pairs := range bySrc {
		nd := t.Node(src)
		if nd.Kind != topo.Terminal || !nd.Term.IsSource {
			continue
		}
		dist := n.DelaysFrom(src)
		for _, pair := range pairs {
			sink := pair[1]
			if sink == src {
				continue
			}
			snd := t.Node(sink)
			if snd.Kind != topo.Terminal || !snd.Term.IsSink {
				continue
			}
			d := nd.Term.AAT + dist[sink] + snd.Term.Q
			if limit := c[pair]; d > limit+1e-12 {
				out = append(out, Violation{Src: src, Sink: sink, Delay: d, Limit: limit})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Delay-out[i].Limit > out[j].Delay-out[j].Limit
	})
	return out
}

// MinCost exhaustively finds the minimum-cost repeater assignment (over
// the insertion points of rt, with the repeaters and orientations of
// tech) that satisfies all pairwise constraints. Exponential; intended
// for small instances and for cross-validating the ARD machinery on
// uniform constraints. Returns ok=false when no assignment is feasible.
func MinCost(rt *topo.Rooted, tech buslib.Tech, c Constraints) (rctree.Assignment, float64, bool) {
	type choice struct {
		placed *rctree.Placed
		cost   float64
	}
	choices := []choice{{}}
	for _, rep := range tech.Repeaters {
		orientations := []bool{true}
		if !rep.Symmetric() {
			orientations = []bool{true, false}
		}
		for _, aUp := range orientations {
			r := rep
			choices = append(choices, choice{placed: &rctree.Placed{Rep: r, ASideUp: aUp}, cost: rep.Cost})
		}
	}
	ins := rt.Tree.Insertions()
	bestCost := math.Inf(1)
	var best rctree.Assignment
	found := false
	var rec func(i int, asg rctree.Assignment, cost float64)
	rec = func(i int, asg rctree.Assignment, cost float64) {
		if cost >= bestCost {
			return // branch and bound on cost
		}
		if i == len(ins) {
			n := rctree.NewNet(rt, tech, asg)
			if len(Check(n, c)) == 0 {
				bestCost = cost
				best = asg.Clone()
				found = true
			}
			return
		}
		for _, ch := range choices {
			na := asg
			if ch.placed != nil {
				na = asg.Clone()
				if na.Repeaters == nil {
					na.Repeaters = map[int]rctree.Placed{}
				}
				na.Repeaters[ins[i]] = *ch.placed
			}
			rec(i+1, na, cost+ch.cost)
		}
	}
	rec(0, rctree.Assignment{}, 0)
	return best, bestCost, found
}

// CriticalSources returns, for each given external sink, the source
// inside the subtree rooted at `sub` with the *least slack* to that sink
// — slack being the pair's constraint minus its achieved augmented delay
// (unconstrained pairs have infinite slack). Under the ARD formulation
// the delay-critical source of a subtree is the same for every external
// sink, which is exactly what makes the A(c_E) decomposition sound; with
// arbitrary pairwise limits, slack-criticality differs across sinks —
// the obstruction of the paper's footnote 10, exhibited by the tests.
func CriticalSources(n *rctree.Net, sub int, sinks []int, c Constraints) (map[int]int, error) {
	t := n.R.Tree
	// Collect source terminals inside the subtree.
	var internal []int
	var walk func(v int)
	walk = func(v int) {
		nd := t.Node(v)
		if nd.Kind == topo.Terminal && nd.Term.IsSource {
			internal = append(internal, v)
		}
		for _, ch := range n.R.Children[v] {
			walk(ch)
		}
	}
	walk(sub)
	if len(internal) == 0 {
		return nil, fmt.Errorf("pairwise: subtree %d has no sources", sub)
	}
	slackOf := func(u, snk int, dist []float64) float64 {
		d := t.Node(u).Term.AAT + dist[snk] + t.Node(snk).Term.Q
		limit, ok := c[[2]int{u, snk}]
		if !ok {
			if c == nil {
				// No constraints given: fall back to pure delay
				// criticality (most delay = least "slack").
				return -d
			}
			limit = math.Inf(1)
		}
		return limit - d
	}
	out := map[int]int{}
	bestSlack := map[int]float64{}
	for _, u := range internal {
		dist := n.DelaysFrom(u)
		for _, snk := range sinks {
			sl := slackOf(u, snk, dist)
			if cur, ok := bestSlack[snk]; !ok || sl < cur {
				bestSlack[snk] = sl
				out[snk] = u
			}
		}
	}
	return out, nil
}

// UniformEquivalence cross-checks the two formulations on one instance:
// the min-cost assignment under uniform pairwise bounds must cost the
// same as the ARD machinery's Problem 2.1 answer. Returns both costs.
func UniformEquivalence(rt *topo.Rooted, tech buslib.Tech, spec float64) (pairwiseCost, ardCost float64, err error) {
	_, pc, ok := MinCost(rt, tech, Uniform(rt.Tree, spec))
	res, oerr := core.Optimize(rt, tech, core.Options{Repeaters: true})
	if oerr != nil {
		return 0, 0, oerr
	}
	sol, ok2 := res.Suite.MinCost(spec)
	switch {
	case !ok && !ok2:
		return math.Inf(1), math.Inf(1), nil
	case ok != ok2:
		return 0, 0, fmt.Errorf("pairwise: feasibility disagreement (brute %v, dp %v)", ok, ok2)
	}
	return pc, sol.Cost, nil
}

// TestUniformEquivalence: with every pair bounded by the same spec, the
// exhaustive pairwise solver and the ARD dynamic program must agree on
// the minimum feasible cost — the two formulations coincide exactly in
// this special case (§II).
func TestUniformEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3001))
	checked := 0
	for trial := 0; trial < 20; trial++ {
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 1 + r.Intn(3)
		cfg.InsSpacing = 0
		cfg.AllRoles = true
		tr := testnet.RandTree(r, cfg)
		for i := 0; i < 3 && i < tr.NumEdges(); i++ {
			eid := r.Intn(tr.NumEdges())
			if tr.Edge(eid).Length > 0 {
				tr.SplitEdge(eid, 0.3+0.4*r.Float64(), topo.Insertion)
			}
		}
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		// Pick a spec between best and worst achievable.
		base := rctree.NewNet(rt, tech, rctree.Assignment{})
		worst, _, _ := base.NaiveARD(false)
		spec := worst * (0.85 + 0.2*r.Float64())
		pc, ac, err := UniformEquivalence(rt, tech, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(pc, 1) {
			continue // spec infeasible for both: consistent
		}
		if math.Abs(pc-ac) > 1e-9 {
			t.Fatalf("trial %d: pairwise min cost %g != ARD min cost %g (spec %g)",
				trial, pc, ac, spec)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("too few feasible trials: %d", checked)
	}
}

// TestCheckFindsViolations: constraints tighter than the achieved delays
// must be reported, ordered by excess.
func TestCheckFindsViolations(t *testing.T) {
	tr := topo.New()
	a := tr.AddTerminal(geom.Pt(0, 0), buslib.DefaultTerminal("a"))
	b := tr.AddTerminal(geom.Pt(5000, 0), buslib.DefaultTerminal("b"))
	tr.AddEdge(a, b, 5000)
	tech := buslib.Default()
	n := rctree.NewNet(tr.RootAt(a), tech, rctree.Assignment{})
	// Actual delay a→b:
	actual := tr.Node(a).Term.AAT + n.PathDelay(a, b) + tr.Node(b).Term.Q
	c := Constraints{
		{a, b}: actual / 2, // violated
		{b, a}: 1e9,        // satisfied
	}
	v := Check(n, c)
	if len(v) != 1 || v[0].Src != a || v[0].Sink != b {
		t.Fatalf("violations = %+v", v)
	}
	if v[0].Delay <= v[0].Limit {
		t.Error("violation not actually violating")
	}
	// Loose constraints: clean.
	if v := Check(n, Uniform(tr, actual*2)); len(v) != 0 {
		t.Errorf("unexpected violations: %+v", v)
	}
}

// TestFootnote10Obstruction exhibits the structural reason the ARD
// decomposition fails under arbitrary pairwise constraints. Under the
// ARD formulation the *delay*-critical source of a subtree is the same
// for every external sink (the delay splits as arrival-at-join plus a
// source-independent tail, which is what makes A(c_E) well defined) —
// the first half of the test verifies that. Under arbitrary pairwise
// limits, criticality is *slack* (limit − delay), and the second half
// shows two external sinks with different slack-critical sources in the
// same subtree: no single per-subtree function can summarize them.
func TestFootnote10Obstruction(t *testing.T) {
	tr := topo.New()
	t1 := buslib.DefaultTerminal("s1")
	t1.IsSink = false
	t2 := buslib.DefaultTerminal("s2")
	t2.IsSink = false
	t2.AAT = 0.5 // s2 launches later: the delay-critical source everywhere
	s1 := tr.AddTerminal(geom.Pt(0, 0), t1)
	s2 := tr.AddTerminal(geom.Pt(2000, 0), t2)
	j := tr.AddSteiner(geom.Pt(1000, 500))
	tr.AddEdge(s1, j, 1000)
	tr.AddEdge(s2, j, 1000)
	near := buslib.DefaultTerminal("near")
	near.IsSource = false
	far := buslib.DefaultTerminal("far")
	far.IsSource = false
	nid := tr.AddTerminal(geom.Pt(1000, 1000), near)
	fid := tr.AddTerminal(geom.Pt(1000, 20000), far)
	tr.AddEdge(j, nid, 500)
	tr.AddEdge(j, fid, 19000)
	rt := tr.RootAt(nid) // subtree under j contains s1, s2
	tech := buslib.Default()
	n := rctree.NewNet(rt, tech, rctree.Assignment{})

	// (1) Pure delay criticality: identical across external sinks.
	delayCrit, err := CriticalSources(n, j, []int{nid, fid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delayCrit[nid] != delayCrit[fid] || delayCrit[nid] != s2 {
		t.Fatalf("delay-critical sources should both be s2: %v", delayCrit)
	}

	// (2) Arbitrary pairwise limits: tighten s1→far and loosen s2→far,
	// so the far sink's least-slack source flips to s1 while the near
	// sink's stays s2.
	d := func(u, v int) float64 {
		return tr.Node(u).Term.AAT + n.PathDelay(u, v) + tr.Node(v).Term.Q
	}
	c := Constraints{
		{s1, nid}: d(s1, nid) + 1.0,  // lots of slack
		{s2, nid}: d(s2, nid) + 0.1,  // tight: s2 critical at near
		{s1, fid}: d(s1, fid) + 0.05, // very tight: s1 critical at far
		{s2, fid}: d(s2, fid) + 2.0,  // loose
	}
	slackCrit, err := CriticalSources(n, j, []int{nid, fid}, c)
	if err != nil {
		t.Fatal(err)
	}
	if slackCrit[nid] != s2 || slackCrit[fid] != s1 {
		t.Fatalf("slack-critical sources: near=%d far=%d, want near=s2(%d) far=s1(%d)",
			slackCrit[nid], slackCrit[fid], s2, s1)
	}
}

// TestMinCostInfeasible returns ok=false for impossible bounds.
func TestMinCostInfeasible(t *testing.T) {
	tr := topo.New()
	a := tr.AddTerminal(geom.Pt(0, 0), buslib.DefaultTerminal("a"))
	b := tr.AddTerminal(geom.Pt(5000, 0), buslib.DefaultTerminal("b"))
	e := tr.AddEdge(a, b, 5000)
	tr.SplitEdge(e, 0.5, topo.Insertion)
	tech := buslib.Default()
	rt := tr.RootAt(a)
	if _, _, ok := MinCost(rt, tech, Uniform(tr, 1e-6)); ok {
		t.Error("impossible spec reported feasible")
	}
}

// TestCriticalSourcesErrors rejects sourceless subtrees.
func TestCriticalSourcesErrors(t *testing.T) {
	tr := topo.New()
	src := buslib.DefaultTerminal("src")
	snk := buslib.DefaultTerminal("snk")
	snk.IsSource = false
	a := tr.AddTerminal(geom.Pt(0, 0), src)
	b := tr.AddTerminal(geom.Pt(100, 0), snk)
	tr.AddEdge(a, b, 100)
	rt := tr.RootAt(a)
	n := rctree.NewNet(rt, buslib.Default(), rctree.Assignment{})
	if _, err := CriticalSources(n, b, []int{a}, nil); err == nil {
		t.Error("sourceless subtree accepted")
	}
}
