package core

import (
	"math/rand"
	"testing"
)

// minimaNaive returns the non-dominated points of pts by quadratic
// pairwise comparison under tolerance eps: a point survives unless
// another is no worse in both coordinates and better in one, and of a
// set of equal points only the earliest survives.
func minimaNaive(pts []CostARD, eps float64) []CostARD {
	le := func(a, b float64) bool { return a <= b+eps }
	lt := func(a, b float64) bool { return a < b-eps }
	var out []CostARD
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j || !le(q.Cost, p.Cost) || !le(q.ARD, p.ARD) {
				continue
			}
			if lt(q.Cost, p.Cost) || lt(q.ARD, p.ARD) || j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// TestParetoPointsMatchesKLPMinima cross-validates the suite's frontier
// rule against the point dominance problem of Kung, Luccio and
// Preparata (the paper's reference [14]), solved by the quadratic
// definition: the surviving (cost, ARD) pairs must be exactly the 2-D
// minima of the candidate set.
func TestParetoPointsMatchesKLPMinima(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		pts := make([]CostARD, n)
		for i := range pts {
			// Grid values to force ties and duplicates.
			pts[i] = CostARD{Cost: float64(r.Intn(12)) * 2, ARD: float64(r.Intn(20)) * 0.25}
		}
		wantSet := map[CostARD]bool{}
		for _, p := range minimaNaive(pts, 1e-12) {
			wantSet[p] = true
		}
		got := ParetoPoints(pts)
		if len(got) != len(wantSet) {
			t.Fatalf("trial %d: frontier size %d, minima size %d\ngot %v",
				trial, len(got), len(wantSet), got)
		}
		for _, p := range got {
			if !wantSet[p] {
				t.Fatalf("trial %d: frontier point %v not in the minima", trial, p)
			}
		}
	}
}
