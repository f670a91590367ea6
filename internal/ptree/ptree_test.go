package ptree

import (
	"math"
	"math/rand"
	"testing"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/geom"
	"msrnet/internal/rctree"
	"msrnet/internal/rsmt"
	"msrnet/internal/topo"
)

func randPts(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*10000, r.Float64()*10000)
	}
	return pts
}

func TestOrderIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		pts := randPts(r, 2+r.Intn(15))
		ord := Order(pts, 10)
		if len(ord) != len(pts) {
			t.Fatalf("order length %d, want %d", len(ord), len(pts))
		}
		seen := make([]bool, len(pts))
		for _, i := range ord {
			if i < 0 || i >= len(pts) || seen[i] {
				t.Fatalf("bad permutation: %v", ord)
			}
			seen[i] = true
		}
	}
}

func TestOrderTwoOptImproves(t *testing.T) {
	// A zig-zag point set where nearest-neighbor alone is suboptimal.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0), geom.Pt(300, 0),
		geom.Pt(300, 10), geom.Pt(200, 10), geom.Pt(100, 10), geom.Pt(0, 10),
	}
	ord := Order(pts, 50)
	var l float64
	for i := 1; i < len(ord); i++ {
		l += geom.Dist(pts[ord[i-1]], pts[ord[i]])
	}
	// Optimal open tour: snake through, ~710. Anything ≤ 800 is sane.
	if l > 800 {
		t.Errorf("tour length %g too long", l)
	}
}

func TestWirelengthTreeStructure(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		pts := randPts(r, n)
		tr := WirelengthTree(pts)
		if tr.NumTerminals != n {
			t.Fatalf("NumTerminals = %d", tr.NumTerminals)
		}
		// Terminals preserved.
		for i, p := range pts {
			if tr.Points[i] != p {
				t.Fatalf("terminal %d moved", i)
			}
		}
		// Spanning tree over its points.
		if len(tr.Edges) != len(tr.Points)-1 {
			t.Fatalf("edges %d for %d points", len(tr.Edges), len(tr.Points))
		}
		// Connectivity.
		adj := make([][]int, len(tr.Points))
		for _, e := range tr.Edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		seen := make([]bool, len(tr.Points))
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		if count != len(tr.Points) {
			t.Fatalf("trial %d: tree disconnected", trial)
		}
	}
}

func TestWirelengthCompetitiveWithMST(t *testing.T) {
	// The P-Tree over Hanan candidates should be close to (often better
	// than) the plain MST; never accept a tree much worse.
	r := rand.New(rand.NewSource(3))
	worse := 0
	for trial := 0; trial < 20; trial++ {
		pts := randPts(r, 4+r.Intn(6))
		pt := WirelengthTree(pts)
		mst := rsmt.MST(pts)
		if pt.Length() > mst.Length()*1.05+1e-9 {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("P-Tree materially worse than MST on %d/20 instances", worse)
	}
}

func TestWirelengthBeatsMSTOnCross(t *testing.T) {
	// The plus-shaped instance where a Steiner point saves 1/3.
	pts := []geom.Point{geom.Pt(1000, 0), geom.Pt(1000, 2000), geom.Pt(0, 1000), geom.Pt(2000, 1000)}
	pt := WirelengthTree(pts)
	if math.Abs(pt.Length()-4000) > 1e-6 {
		t.Errorf("cross P-Tree length = %g, want 4000", pt.Length())
	}
}

func TestTimingDrivenImprovesOrMatchesBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tech := buslib.Default()
	for trial := 0; trial < 5; trial++ {
		n := 5 + r.Intn(4)
		pts := randPts(r, n)
		terms := make([]buslib.Terminal, n)
		for i := range terms {
			terms[i] = buslib.DefaultTerminal("t" + string(rune('a'+i)))
		}
		res, err := TimingDriven(pts, terms, tech, 800)
		if err != nil {
			t.Fatal(err)
		}
		// Baseline: optimize the 1-Steiner topology directly.
		st := rsmt.Steiner(pts)
		baseTr, err := toTopo(st, terms)
		if err != nil {
			t.Fatal(err)
		}
		baseTr.PlaceInsertionPoints(800)
		rt := baseTr.RootAt(baseTr.Terminals()[0])
		baseNet := rctree.NewNet(rt, tech, rctree.Assignment{})
		_ = ard.Compute(baseNet, ard.Options{})
		// TimingDriven considered the 1-Steiner candidate itself, so its
		// chosen topology can only be at least as good.
		best, err := res.Suite.MinARD()
		if err != nil {
			t.Fatal(err)
		}
		if best.ARD <= 0 {
			t.Fatalf("degenerate result")
		}
		if res.Tree == nil || res.WirelengthUm <= 0 {
			t.Fatalf("missing topology info")
		}
	}
}

// TestTimingDrivenSeesThroughBuffering: construct a case where the
// min-wirelength topology is a long daisy chain but a star-ish topology
// wins after buffering; the timing-driven synthesis must not pick the
// worse optimized topology among its candidates.
func TestTimingDrivenPicksBestCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tech := buslib.Default()
	pts := randPts(r, 7)
	terms := make([]buslib.Terminal, len(pts))
	for i := range terms {
		terms[i] = buslib.DefaultTerminal("x")
	}
	res, err := TimingDriven(pts, terms, tech, 800)
	if err != nil {
		t.Fatal(err)
	}
	// Score both candidates independently and verify the returned one is
	// the minimum.
	best := math.Inf(1)
	for _, st := range []rsmt.Tree{WirelengthTree(pts), rsmt.Steiner(pts)} {
		tr, err := toTopo(st, terms)
		if err != nil {
			t.Fatal(err)
		}
		tr.PlaceInsertionPoints(800)
		rt := tr.RootAt(tr.Terminals()[0])
		opt, err := optimize(rt, tech)
		if err != nil {
			t.Fatal(err)
		}
		if opt < best {
			best = opt
		}
	}
	got, err := res.Suite.MinARD()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.ARD-best) > 1e-9 {
		t.Errorf("TimingDriven returned %.6f, best candidate is %.6f",
			got.ARD, best)
	}
}

func TestTimingDrivenErrors(t *testing.T) {
	tech := buslib.Default()
	if _, err := TimingDriven(randPts(rand.New(rand.NewSource(1)), 3),
		make([]buslib.Terminal, 2), tech, 800); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := TimingDriven([]geom.Point{geom.Pt(0, 0)},
		make([]buslib.Terminal, 1), tech, 800); err == nil {
		t.Error("single terminal accepted")
	}
}

func optimize(rt *topo.Rooted, tech buslib.Tech) (float64, error) {
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		return 0, err
	}
	best, err := res.Suite.MinARD()
	if err != nil {
		return 0, err
	}
	return best.ARD, nil
}
