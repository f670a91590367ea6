package solveprof_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/solveprof"
)

func profiled(t *testing.T, pins int, seed int64) *core.Result {
	t.Helper()
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	res, err := core.Optimize(rt, buslib.Default(), core.Options{Repeaters: true, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestArtifactByteIdentical is the acceptance-criteria determinism
// check: the same input must yield byte-identical msrnet-solveprof/v1
// artifacts across runs.
func TestArtifactByteIdentical(t *testing.T) {
	tr, err := netgen.Generate(3, netgen.Defaults(12))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	var encs [][]byte
	for range 3 {
		res, err := core.Optimize(rt, buslib.Default(), core.Options{Repeaters: true, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		p := solveprof.FromResult(res, "test", "msri/12pin")
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, b)
	}
	for i := 1; i < len(encs); i++ {
		if !bytes.Equal(encs[0], encs[i]) {
			t.Errorf("artifact %d differs from artifact 0:\n%s\nvs\n%s", i, encs[i], encs[0])
		}
	}
}

// TestRoundTrip: WriteFile then Load preserves the artifact and its
// validation invariants.
func TestRoundTrip(t *testing.T) {
	res := profiled(t, 12, 3)
	p := solveprof.FromResult(res, "test", "msri/12pin")
	path := filepath.Join(t.TempDir(), "prof.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := solveprof.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != solveprof.Schema || got.Totals != p.Totals || got.Waste != p.Waste {
		t.Errorf("round trip changed the profile: %+v vs %+v", got, p)
	}
	b1, _ := p.Encode()
	b2, _ := got.Encode()
	if !bytes.Equal(b1, b2) {
		t.Error("round trip is not byte-stable")
	}
}

// TestReconcilesWithStats: the artifact echoes and reconciles with the
// solver stats — matrix deaths == Stats.Dropped, survivors == suite
// points (the ISSUE acceptance numbers).
func TestReconcilesWithStats(t *testing.T) {
	res := profiled(t, 12, 3)
	p := solveprof.FromResult(res, "test", "msri/12pin")
	deaths := 0
	for _, row := range p.Matrix {
		deaths += row.TotalDeaths()
	}
	if deaths != res.Stats.Dropped {
		t.Errorf("matrix deaths %d != Stats.Dropped %d", deaths, res.Stats.Dropped)
	}
	if p.Totals.Survived != len(res.Suite) {
		t.Errorf("survivors %d != suite points %d", p.Totals.Survived, len(res.Suite))
	}
	if p.SuitePoints != len(res.Suite) || p.Stats == nil || p.Stats.Dropped != res.Stats.Dropped {
		t.Errorf("stats echo wrong: %+v", p)
	}
}

// TestValidateCatchesCorruption: a tampered artifact fails to load.
func TestValidateCatchesCorruption(t *testing.T) {
	res := profiled(t, 10, 1)
	p := solveprof.FromResult(res, "test", "msri/10pin")
	p.Totals.Deaths++
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted inconsistent totals")
	}
	p.Totals.Deaths--
	p.Schema = "bogus"
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted bad schema")
	}
}

// TestRenderAndDiff exercises the text surfaces for coverage and
// structural sanity (headline waste ratio, top sites, upper bound).
func TestRenderAndDiff(t *testing.T) {
	a := solveprof.FromResult(profiled(t, 10, 1), "test", "msri/10pin")
	b := solveprof.FromResult(profiled(t, 12, 3), "test", "msri/12pin")
	var buf bytes.Buffer
	solveprof.Render(&buf, b, 5)
	out := buf.String()
	for _, want := range []string{"candidates:", "per-class churn", "top wasted sites", "predictive-pruning upper bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	d := solveprof.Compute(a, b)
	buf.Reset()
	d.Render(&buf, 5)
	if !strings.Contains(buf.String(), "waste ratio (seg ops)") {
		t.Errorf("diff render missing headline:\n%s", buf.String())
	}
	// Self-diff has no movement.
	self := solveprof.Compute(b, b)
	if len(self.Sites) != 0 || self.SegOpsPerMille != 0 {
		t.Errorf("self diff shows movement: %+v", self)
	}
}

// TestPerMille pins the rounding convention.
func TestPerMille(t *testing.T) {
	for _, tc := range []struct{ num, den, want int64 }{
		{0, 0, 0}, {1, 2, 500}, {1, 3, 333}, {2, 3, 667}, {999, 1000, 999}, {5, 5, 1000},
	} {
		if got := solveprof.PerMille(tc.num, tc.den); got != tc.want {
			t.Errorf("PerMille(%d,%d) = %d, want %d", tc.num, tc.den, got, tc.want)
		}
	}
}

// TestMergedProfileArtifact: a merged multi-run profile converts and
// validates (no Stats echo).
func TestMergedProfileArtifact(t *testing.T) {
	m := core.NewLifecycleProfile()
	m.Merge(profiled(t, 10, 1).Profile)
	m.Merge(profiled(t, 12, 3).Profile)
	p := solveprof.FromProfile(m, "experiments", "study")
	if p.Runs != 2 {
		t.Errorf("Runs = %d, want 2", p.Runs)
	}
	if p.Stats != nil {
		t.Error("merged profile must not echo a single run's stats")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}
