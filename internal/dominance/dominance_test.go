package dominance

import (
	"math/rand"
	"testing"
)

func randPts(r *rand.Rand, n, d int, dupProb float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		if i > 0 && r.Float64() < dupProb {
			// Exact duplicate of an earlier point.
			cp := make(Point, d)
			copy(cp, pts[r.Intn(i)])
			pts[i] = cp
			continue
		}
		p := make(Point, d)
		for k := range p {
			p[k] = float64(r.Intn(50)) // small grid: plenty of ties
		}
		pts[i] = p
	}
	return pts
}

func sameIndexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMinima2DAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		pts := randPts(r, 1+r.Intn(60), 2, 0.2)
		want := MinimaNaive(pts, 0)
		got := Minima2D(pts, 0)
		if !sameIndexSet(got, want) {
			t.Fatalf("trial %d: got %v, want %v\npts=%v", trial, got, want, pts)
		}
	}
}

func TestMinima3DAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		pts := randPts(r, 1+r.Intn(80), 3, 0.15)
		want := MinimaNaive(pts, 0)
		got := Minima3D(pts, 0)
		if !sameIndexSet(got, want) {
			t.Fatalf("trial %d: got %v, want %v\npts=%v", trial, got, want, pts)
		}
	}
}

func TestMinimaKDAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 2 + r.Intn(4) // dimensions 2..5
		pts := randPts(r, 1+r.Intn(60), d, 0.1)
		want := MinimaNaive(pts, 0)
		got := MinimaKD(pts, 0)
		if !sameIndexSet(got, want) {
			t.Fatalf("trial %d (d=%d): got %v, want %v", trial, d, got, want)
		}
	}
}

func TestMinimaProperties(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		pts := randPts(r, 2+r.Intn(50), 3, 0.1)
		surv := Minima3D(pts, 0)
		inSurv := map[int]bool{}
		for _, i := range surv {
			inSurv[i] = true
		}
		// No survivor dominates another survivor.
		for _, i := range surv {
			for _, j := range surv {
				if i != j && dominates(pts[i], pts[j], 0) {
					t.Fatalf("survivor %d dominates survivor %d", i, j)
				}
			}
		}
		// Every eliminated point is dominated by (or duplicates) a survivor.
		for i := range pts {
			if inSurv[i] {
				continue
			}
			covered := false
			for _, j := range surv {
				if dominates(pts[j], pts[i], 0) || equal(pts[j], pts[i], 0) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("eliminated point %d not covered by any survivor", i)
			}
		}
	}
}

func TestSinglePointAndEmpty(t *testing.T) {
	if got := MinimaKD(nil, 0); got != nil {
		t.Errorf("empty: %v", got)
	}
	one := []Point{{1, 2}}
	if got := Minima2D(one, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("single 2d: %v", got)
	}
	if got := Minima3D([]Point{{1, 2, 3}}, 0); len(got) != 1 {
		t.Errorf("single 3d: %v", got)
	}
}

func TestKnownFrontier2D(t *testing.T) {
	pts := []Point{
		{1, 5}, // frontier
		{2, 3}, // frontier
		{3, 3}, // dominated by {2,3}
		{4, 1}, // frontier
		{4, 1}, // duplicate (earliest kept)
		{0, 9}, // frontier
		{5, 5}, // dominated
	}
	got := Minima2D(pts, 0)
	want := []int{0, 1, 3, 5}
	if !sameIndexSet(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEpsTolerance(t *testing.T) {
	// With eps = 0.5, {1.1, 1.1} is treated as a duplicate of {1, 1}.
	pts := []Point{{1, 1}, {1.1, 1.1}}
	got := Minima2D(pts, 0.5)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("eps duplicate handling: %v", got)
	}
	// With eps = 0 both survive... no: {1,1} dominates {1.1,1.1} strictly.
	got0 := Minima2D(pts, 0)
	if len(got0) != 1 || got0[0] != 0 {
		t.Errorf("strict dominance handling: %v", got0)
	}
}

func BenchmarkMinima3D(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	pts := randPts(r, 2000, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minima3D(pts, 0)
	}
}

func BenchmarkMinimaNaive3D(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	pts := randPts(r, 2000, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinimaNaive(pts, 0)
	}
}
