// Package ptree implements multisource timing-driven topology synthesis —
// the future-work direction named in §VII of Lillis & Cheng (TCAD'99):
// "given the results in this paper, a multisource version of the P-Tree
// timing-driven Steiner router [16] is now possible."
//
// Following the P-Tree recipe, terminals are first arranged in a tour
// order (nearest-neighbor + 2-opt on the rectilinear metric); a dynamic
// program over contiguous intervals of that order then builds candidate
// routing trees whose internal nodes come from a candidate point set
// (the Hanan grid for small nets, the terminal locations for larger
// ones). The wirelength DP yields low-cost topologies; the multisource
// step plugs the repeater-insertion optimizer of package core underneath
// it — candidate topologies are scored by their *optimized* augmented
// RC-diameter, so the router sees through buffering exactly as the paper
// envisions.
package ptree

import (
	"fmt"
	"math"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/geom"
	"msrnet/internal/rsmt"
	"msrnet/internal/topo"
)

const (
	// maxHananTerminals bounds the net size for which the full Hanan
	// grid is used as the candidate set; larger nets use the terminal
	// locations only.
	maxHananTerminals = 10
	// twoOptRounds bounds the tour improvement passes of WirelengthTree.
	twoOptRounds = 20
)

// Order returns a tour order of the points: nearest-neighbor
// construction followed by 2-opt improvement under the rectilinear
// metric. P-Tree restricts its trees to contiguous intervals of this
// order, which is what makes the interval DP complete enough in
// practice.
func Order(pts []geom.Point, rounds int) []int {
	n := len(pts)
	order := make([]int, 0, n)
	used := make([]bool, n)
	cur := 0
	used[0] = true
	order = append(order, 0)
	for len(order) < n {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !used[i] {
				if d := geom.Dist(pts[cur], pts[i]); d < bestD {
					best, bestD = i, d
				}
			}
		}
		used[best] = true
		order = append(order, best)
		cur = best
	}
	// 2-opt on the open tour.
	for round := 0; round < rounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// Reverse order[i..j]; delta on an open tour.
				var before, after float64
				if i > 0 {
					before += geom.Dist(pts[order[i-1]], pts[order[i]])
					after += geom.Dist(pts[order[i-1]], pts[order[j]])
				}
				if j < n-1 {
					before += geom.Dist(pts[order[j]], pts[order[j+1]])
					after += geom.Dist(pts[order[i]], pts[order[j+1]])
				}
				if after < before-1e-9 {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						order[a], order[b] = order[b], order[a]
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return order
}

// WirelengthTree runs the interval DP and returns the minimum-wirelength
// P-Tree topology over the given candidate order.
func WirelengthTree(pts []geom.Point) rsmt.Tree {
	if len(pts) < 2 {
		panic("ptree: need at least two terminals")
	}
	order := Order(pts, twoOptRounds)
	return dpTree(pts, order, candidates(pts))
}

// candidates picks the internal-node candidate set.
func candidates(pts []geom.Point) []geom.Point {
	if len(pts) <= maxHananTerminals {
		return rsmt.HananGrid(pts)
	}
	return append([]geom.Point(nil), pts...)
}

// dpTree is the P-Tree interval dynamic program. State: cost[i][j][p] =
// minimum wirelength of a tree spanning terminals order[i..j] whose root
// hangs at candidate point p. Transition: split [i..j] at k, join the
// two subtrees at a point q, and run a wire q→p:
//
//	cost[i][j][p] = min over q of ( M[i][j][q] + d(q, p) )
//	M[i][j][q]    = min over k of ( cost[i][k][q] + cost[k+1][j][q] )
//
// Base: cost[i][i][p] = d(terminal_i, p).
func dpTree(pts []geom.Point, order []int, cands []geom.Point) rsmt.Tree {
	n := len(order)
	h := len(cands)
	// cost[i][j][p]; choice tracking for reconstruction.
	type choice struct {
		k int // split (or -1 for leaf)
		q int // join candidate
	}
	idx := func(i, j int) int { return i*n + j }
	cost := make([][]float64, n*n)
	ch := make([][]choice, n*n)
	for i := 0; i < n; i++ {
		c := make([]float64, h)
		cc := make([]choice, h)
		for p := 0; p < h; p++ {
			c[p] = geom.Dist(pts[order[i]], cands[p])
			cc[p] = choice{k: -1, q: -1}
		}
		cost[idx(i, i)] = c
		ch[idx(i, i)] = cc
	}
	m := make([]float64, h)
	mk := make([]int, h)
	for span := 2; span <= n; span++ {
		for i := 0; i+span-1 < n; i++ {
			j := i + span - 1
			// M over q.
			for q := 0; q < h; q++ {
				m[q] = math.Inf(1)
				mk[q] = -1
			}
			for k := i; k < j; k++ {
				a := cost[idx(i, k)]
				b := cost[idx(k+1, j)]
				for q := 0; q < h; q++ {
					if v := a[q] + b[q]; v < m[q] {
						m[q] = v
						mk[q] = k
					}
				}
			}
			// cost over p.
			c := make([]float64, h)
			cc := make([]choice, h)
			for p := 0; p < h; p++ {
				best := math.Inf(1)
				bq := -1
				for q := 0; q < h; q++ {
					if v := m[q] + geom.Dist(cands[q], cands[p]); v < best {
						best = v
						bq = q
					}
				}
				c[p] = best
				cc[p] = choice{k: mk[bq], q: bq}
			}
			cost[idx(i, j)] = c
			ch[idx(i, j)] = cc
		}
	}
	// Root: the candidate minimizing the full-interval cost (distance to
	// the root point itself is zero when p is chosen as the hang point).
	rootP, best := 0, math.Inf(1)
	for p := 0; p < h; p++ {
		if cost[idx(0, n-1)][p] < best {
			best = cost[idx(0, n-1)][p]
			rootP = p
		}
	}
	// Reconstruct.
	t := rsmt.Tree{NumTerminals: len(pts)}
	t.Points = append(t.Points, pts...)
	// Each structural use of a candidate gets its own tree node (sharing
	// across subtrees would create cycles); coincident copies end up as
	// zero-length edges that Simplify splices away.
	newCand := func(p int) int {
		t.Points = append(t.Points, cands[p])
		return len(t.Points) - 1
	}
	var build func(i, j, p, pNode int)
	build = func(i, j, p, pNode int) {
		if i == j {
			t.Edges = append(t.Edges, [2]int{order[i], pNode})
			return
		}
		c := ch[idx(i, j)][p]
		qNode := newCand(c.q)
		t.Edges = append(t.Edges, [2]int{qNode, pNode})
		build(i, c.k, c.q, qNode)
		build(c.k+1, j, c.q, qNode)
	}
	rootNode := newCand(rootP)
	build(0, n-1, rootP, rootNode)
	return rsmt.Simplify(t)
}

// Result is a synthesized, optimized topology.
type Result struct {
	Tree  *topo.Tree
	Suite core.Suite
	// WirelengthUm is the routed wirelength of the chosen topology.
	WirelengthUm float64
}

// TimingDriven synthesizes a topology for the given terminals and
// electrical parameters, then runs optimal repeater insertion on it.
// Candidate topologies (the P-Tree and, as a baseline, the iterated
// 1-Steiner tree) are scored by their optimized minimum ARD; the best is
// returned with its full tradeoff suite. insertionSpacing follows the
// paper's 800 µm rule; pass 0 to skip insertion points.
func TimingDriven(pts []geom.Point, terms []buslib.Terminal, tech buslib.Tech,
	insertionSpacing float64) (*Result, error) {
	if len(pts) != len(terms) {
		return nil, fmt.Errorf("ptree: %d points but %d terminals", len(pts), len(terms))
	}
	if len(pts) < 2 {
		return nil, fmt.Errorf("ptree: need at least two terminals")
	}
	cands := []rsmt.Tree{
		WirelengthTree(pts),
		rsmt.Steiner(pts),
	}
	var best *Result
	for _, st := range cands {
		tr, err := toTopo(st, terms)
		if err != nil {
			return nil, err
		}
		if insertionSpacing > 0 {
			tr.PlaceInsertionPoints(insertionSpacing)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("ptree: synthesized topology invalid: %w", err)
		}
		rt := tr.RootAt(tr.Terminals()[0])
		res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			return nil, err
		}
		cand := &Result{Tree: tr, Suite: res.Suite, WirelengthUm: tr.TotalWireLength()}
		candBest, err := cand.Suite.MinARD()
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = cand
			continue
		}
		bestBest, err := best.Suite.MinARD()
		if err != nil {
			return nil, err
		}
		if candBest.ARD < bestBest.ARD {
			best = cand
		}
	}
	return best, nil
}

func toTopo(st rsmt.Tree, terms []buslib.Terminal) (*topo.Tree, error) {
	tr := topo.New()
	ids := make([]int, len(st.Points))
	for i, pt := range st.Points {
		if i < st.NumTerminals {
			ids[i] = tr.AddTerminal(pt, terms[i])
		} else {
			ids[i] = tr.AddSteiner(pt)
		}
	}
	for _, e := range st.Edges {
		tr.AddEdge(ids[e[0]], ids[e[1]], geom.Dist(st.Points[e[0]], st.Points[e[1]]))
	}
	tr.EnsureTerminalLeaves()
	return tr, nil
}
