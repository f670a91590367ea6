package core

import (
	"math/rand"
	"reflect"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/pwl"
	"msrnet/internal/testnet"
	"msrnet/internal/topo"
)

func profiledRun(t *testing.T, pins int, seed int64, opt Options) *Result {
	t.Helper()
	return mixCase{pins: pins, seed: seed, opt: opt}.run(t, opt)
}

// mixCase is one input of the instrumentation reconciliation checks: a
// net and an option mix.
type mixCase struct {
	name string
	pins int // netgen pins; 0 selects the compact testnet fixture
	seed int64
	opt  Options
}

// optionMix spans every construction and prune site: repeaters, driver
// sizing, wire widths, the naive pruner and a degraded (CoarseEps > 0)
// run. Driver and wire sizing run on the compact testnet fixture, since
// their solution space explodes on the netgen workloads.
var optionMix = []mixCase{
	{"repeaters/12pin", 12, 3, Options{Repeaters: true}},
	{"repeaters/10pin", 10, 1, Options{Repeaters: true}},
	{"sizing", 0, 1012, Options{Repeaters: true, SizeDrivers: true}},
	{"widths", 0, 1011, Options{Repeaters: true, WireWidths: []float64{1, 2}, WireCostPerUm: 1e-4}},
	{"naive", 10, 1, Options{Repeaters: true, Pruner: PruneNaive}},
	{"coarse", 12, 3, Options{Repeaters: true, CoarseEps: 0.05}},
}

// allOn is the instrumentation the reconciliation checks run under:
// every channel live at once.
func allOn(reg *obs.Registry, tcr *trace.Tracer) Options {
	return Options{Obs: reg, Trace: tcr, TraceArgs: []trace.Arg{trace.S("trace_id", "mix")}, Profile: true}
}

// run solves the case with the instrumentation fields of on (Obs, Trace,
// TraceArgs, Profile) added to its options.
func (c mixCase) run(t *testing.T, on Options) *Result {
	t.Helper()
	opt := c.opt
	opt.Obs, opt.Trace, opt.TraceArgs, opt.Profile = on.Obs, on.Trace, on.TraceArgs, on.Profile
	var rt *topo.Rooted
	tech := buslib.Default()
	if c.pins == 0 {
		r := rand.New(rand.NewSource(c.seed))
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 3
		tr := testnet.RandTree(r, cfg)
		tech = testnet.RandTech(r, 2, 3)
		rt = tr.RootAt(testnet.RootTerminal(tr))
	} else {
		tr, err := netgen.Generate(c.seed, netgen.Defaults(c.pins))
		if err != nil {
			t.Fatal(err)
		}
		rt = tr.RootAt(tr.Terminals()[0])
	}
	res, err := Optimize(rt, tech, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProfileDeathsReconcile is the core acceptance invariant: every
// candidate the pruners drop is attributed to exactly one (site, cause)
// cell, every suite point to exactly one birth site, and the derived
// histograms agree with the primary counters.
func TestProfileDeathsReconcile(t *testing.T) {
	for _, tc := range optionMix {
		t.Run(tc.name, func(t *testing.T) {
			tcr := trace.New(0)
			res := tc.run(t, allOn(obs.New(), tcr))
			p := res.Profile
			if p == nil {
				t.Fatal("Options.Profile set but Result.Profile is nil")
			}
			if p.Runs != 1 {
				t.Errorf("Runs = %d, want 1", p.Runs)
			}
			// Every candidate Stats counts is born once, except the
			// unbuffered set each repeater prune carries through, which
			// Stats counts again: the repeater prunes' inputs minus the
			// repeater births.
			carried := 0
			for _, ev := range tcr.Events() {
				if ints, strs := evArgs(ev); ev.Name == "dp/prune" && strs["site"] == ClassRepeater {
					carried += int(ints["pre"])
				}
			}
			for k, st := range p.Sites {
				if k.Class == ClassRepeater {
					carried -= st.Born
				}
			}
			if got := p.TotalBorn() + carried; got != res.Stats.SolutionsCreated {
				t.Errorf("born %d + carried %d != Stats.SolutionsCreated %d", p.TotalBorn(), carried, res.Stats.SolutionsCreated)
			}
			if got := p.TotalDeaths(); got != res.Stats.Dropped {
				t.Errorf("attributed deaths %d != Stats.Dropped %d", got, res.Stats.Dropped)
			}
			if got := p.TotalSurvived(); got != len(res.Suite) {
				t.Errorf("attributed survivors %d != suite points %d", got, len(res.Suite))
			}
			// Depth histogram is a repartition of the same deaths.
			depthDeaths, depthSegs := 0, int64(0)
			for _, c := range p.Depth {
				depthDeaths += c.Deaths
				depthSegs += c.SegOps
			}
			if depthDeaths != res.Stats.Dropped {
				t.Errorf("depth histogram holds %d deaths, want %d", depthDeaths, res.Stats.Dropped)
			}
			if depthSegs != p.WastedSegOps {
				t.Errorf("depth histogram holds %d wasted seg ops, totals say %d", depthSegs, p.WastedSegOps)
			}
			// So is the wavefront's died axis.
			waveDied := 0
			for _, w := range p.Wave {
				waveDied += w.Died
			}
			if waveDied != res.Stats.Dropped {
				t.Errorf("wavefront died %d, want %d", waveDied, res.Stats.Dropped)
			}
			// One candidate tuple per death; wasted never exceeds total.
			if p.WastedAllocs != int64(res.Stats.Dropped) {
				t.Errorf("WastedAllocs %d, want %d", p.WastedAllocs, res.Stats.Dropped)
			}
			if p.WastedSegOps > p.TotalSegOps || p.WastedAllocs > p.TotalAllocs {
				t.Errorf("wasted work exceeds totals: %+v", p)
			}
			known := map[string]bool{}
			for _, c := range DeathCauses {
				known[c] = true
			}
			for k, st := range p.Sites {
				if k.Class == "" {
					t.Errorf("death or survival attributed to an unstamped candidate: %+v", st)
				}
				for cause, c := range st.Deaths {
					if !known[cause] {
						t.Errorf("site %v: unknown death cause %q", k, cause)
					}
					if cause == CauseEps && tc.opt.CoarseEps == 0 {
						t.Errorf("site %v: %d eps_coarse deaths on an exact run", k, c.Deaths)
					}
				}
			}
			if res.Stats.Dropped > 0 && p.JoinPairings == 0 && res.Stats.PruneSites["join"].Calls > 0 {
				t.Error("join prunes ran but no pairings were counted")
			}
		})
	}
}

// TestProfileDoesNotChangeRun: profiling is pure observation — suite and
// stats must be bit-identical with Profile on and off.
func TestProfileDoesNotChangeRun(t *testing.T) {
	tr, err := netgen.Generate(3, netgen.Defaults(12))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	off, err := Optimize(rt, tech, Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Optimize(rt, tech, Options{Repeaters: true, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Stats, on.Stats) {
		t.Errorf("profiling changed stats: %+v vs %+v", off.Stats, on.Stats)
	}
	if len(off.Suite) != len(on.Suite) {
		t.Fatalf("profiling changed suite size: %d vs %d", len(off.Suite), len(on.Suite))
	}
	for i := range off.Suite {
		if off.Suite[i].Cost != on.Suite[i].Cost || off.Suite[i].ARD != on.Suite[i].ARD {
			t.Errorf("suite point %d differs under profiling", i)
		}
	}
	if off.Profile != nil {
		t.Error("Result.Profile non-nil without Options.Profile")
	}
}

// TestProfileDeterministic: two profiled runs of the same input produce
// deeply equal profiles (the artifact layer then guarantees byte
// equality).
func TestProfileDeterministic(t *testing.T) {
	opt := Options{Repeaters: true, Profile: true}
	a := profiledRun(t, 12, 3, opt)
	b := profiledRun(t, 12, 3, opt)
	if !reflect.DeepEqual(a.Profile, b.Profile) {
		t.Errorf("profiles differ across identical runs:\n%+v\nvs\n%+v", a.Profile, b.Profile)
	}
}

// TestProfileEpsCause: under CoarseEps, deaths that needed the
// relaxation are classified eps_coarse, and the reconciliation
// invariants still hold.
func TestProfileEpsCause(t *testing.T) {
	exact := profiledRun(t, 12, 3, Options{Repeaters: true, Profile: true})
	coarse := profiledRun(t, 12, 3, Options{Repeaters: true, Profile: true, CoarseEps: 0.05})
	p := coarse.Profile
	if got := p.TotalDeaths(); got != coarse.Stats.Dropped {
		t.Errorf("coarse deaths %d != Dropped %d", got, coarse.Stats.Dropped)
	}
	epsDeaths := 0
	for _, st := range p.Sites {
		epsDeaths += st.Deaths[CauseEps].Deaths
	}
	// The relaxation exists to kill more: if coarse pruning dropped more
	// candidates than the exact run created headroom for, some of those
	// kills must be attributed to eps.
	if coarse.Stats.Dropped > exact.Stats.Dropped && epsDeaths == 0 {
		t.Errorf("coarse run dropped %d (exact %d) but no eps_coarse deaths attributed",
			coarse.Stats.Dropped, exact.Stats.Dropped)
	}
}

// TestProfileMergeAdds: Merge is the aggregation path the experiments
// sink and the bench runner use; totals must add component-wise.
func TestProfileMergeAdds(t *testing.T) {
	a := profiledRun(t, 10, 1, Options{Repeaters: true, Profile: true}).Profile
	b := profiledRun(t, 12, 3, Options{Repeaters: true, Profile: true}).Profile
	m := NewLifecycleProfile()
	m.Merge(a)
	m.Merge(b)
	if m.Runs != 2 {
		t.Errorf("merged Runs = %d, want 2", m.Runs)
	}
	if got, want := m.TotalDeaths(), a.TotalDeaths()+b.TotalDeaths(); got != want {
		t.Errorf("merged deaths %d, want %d", got, want)
	}
	if got, want := m.TotalBorn(), a.TotalBorn()+b.TotalBorn(); got != want {
		t.Errorf("merged born %d, want %d", got, want)
	}
	if got, want := m.TotalSegOps, a.TotalSegOps+b.TotalSegOps; got != want {
		t.Errorf("merged TotalSegOps %d, want %d", got, want)
	}
	if got, want := m.JoinPairings, a.JoinPairings+b.JoinPairings; got != want {
		t.Errorf("merged JoinPairings %d, want %d", got, want)
	}
}

// TestKillsExactly pins the eps discriminator on a hand-built pair: t
// survives exact dominance but dies under a relaxed comparison.
func TestKillsExactly(t *testing.T) {
	a := &Solution{Cost: 1, Cap: 1, Q: 1, A: pwl.NegInf(), D: pwl.NegInf(), Dom: pwl.Full()}
	b := &Solution{Cost: 1, Cap: 1, Q: 1.02, A: pwl.NegInf(), D: pwl.NegInf(), Dom: pwl.Full()}
	if !killsExactly(a, b) {
		t.Error("a should kill b exactly (Q 1 <= 1.02)")
	}
	c := &Solution{Cost: 1, Cap: 1, Q: 0.99, A: pwl.NegInf(), D: pwl.NegInf(), Dom: pwl.Full()}
	if killsExactly(b, c) {
		t.Error("b must not kill c exactly (Q 1.02 > 0.99)")
	}
	if dominatedRegion(b, c, 0.05).IsEmpty() {
		t.Error("b should dominate c under eps=0.05")
	}
}

// TestProfileZeroAllocWhenOff extends the zero-alloc guard to the
// lifecycle paths of the event sink: with profiling off (nil profile),
// a node's events and the run's close must neither allocate nor stamp
// candidates.
func TestProfileZeroAllocWhenOff(t *testing.T) {
	s, sols := offSink()
	suite := Suite{{sol: sols[0]}}
	if n := testing.AllocsPerRun(1000, func() {
		sinkEvents(s, sols, 1)
		if s.finish(0, 1, suite) != nil {
			t.Fatal("profile returned with profiling off")
		}
	}); n != 0 {
		t.Errorf("nil-profile lifecycle paths allocate %.2f per node, want 0", n)
	}
	if sols[0].lc != nil {
		t.Error("candidate stamped with profiling off")
	}
}
