// Benchmark harness: one benchmark per table and figure of Lillis & Cheng
// (TCAD'99, §VI), plus micro-benchmarks for the §III linear-time ARD
// claim, the Fig. 4 pruning scheme, and ablations of the design choices
// called out in DESIGN.md. Each table/figure benchmark prints its
// regenerated rows once (the same rows cmd/experiments prints), so
//
//	go test -bench=. -benchmem
//
// both times the pipeline and reproduces the paper's evaluation.
package msrnet_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/experiments"
	"msrnet/internal/geom"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/ptree"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

var printOnce sync.Map

func printTable(key, content string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, content)
	}
}

// BenchmarkTable1Params regenerates Table I (technology parameters).
func BenchmarkTable1Params(b *testing.B) {
	tech := buslib.Default()
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.FormatTable1(tech)
	}
	printTable("Table I", s)
}

// benchNets holds pre-generated topologies so the benchmarks time the
// optimizer, not the router.
var benchNets = struct {
	once sync.Once
	t10  []*topo.Tree
	t20  []*topo.Tree
	tech buslib.Tech
}{}

func loadBenchNets(b *testing.B) {
	benchNets.once.Do(func() {
		benchNets.tech = buslib.Default()
		for seed := int64(1); seed <= 3; seed++ {
			tr10, err := netgen.Generate(seed, netgen.Defaults(10))
			if err != nil {
				b.Fatal(err)
			}
			benchNets.t10 = append(benchNets.t10, tr10)
			tr20, err := netgen.Generate(seed, netgen.Defaults(20))
			if err != nil {
				b.Fatal(err)
			}
			benchNets.t20 = append(benchNets.t20, tr20)
		}
	})
}

// BenchmarkOptimize measures the core dynamic program on the 10-pin
// benchmark net with the no-op recorder ("norec", the production default
// — instrumentation must cost nothing here), with a live registry
// ("obs"), and with a live ring tracer ("trace", budgeted at ≤5% over
// norec), so the overhead of full observability is itself observable.
func BenchmarkOptimize(b *testing.B) {
	loadBenchNets(b)
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	b.Run("norec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("obs", func(b *testing.B) {
		reg := obs.New()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true, Obs: reg}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		tcr := trace.New(0)
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true, Trace: tcr}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2RepeaterInsertion times the repeater-insertion half of
// Table II (10-pin nets) and prints the regenerated Table II rows once.
func BenchmarkTable2RepeaterInsertion(b *testing.B) {
	loadBenchNets(b)
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable2(b)
}

// BenchmarkTable2DriverSizing times the driver-sizing half of Table II.
func BenchmarkTable2DriverSizing(b *testing.B) {
	loadBenchNets(b)
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, benchNets.tech, core.Options{SizeDrivers: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable2(b)
}

var table2Rows []experiments.Table2Row

func printTable2(b *testing.B) {
	if _, loaded := printOnce.LoadOrStore("Table II+IV compute", true); !loaded {
		for _, pins := range []int{10, 20} {
			row, _, err := experiments.Table2(pins, 5, 1, buslib.Default())
			if err != nil {
				b.Fatal(err)
			}
			table2Rows = append(table2Rows, row)
		}
		printTable("Table II", experiments.FormatTable2(table2Rows))
		printTable("Table IV", experiments.FormatTable4(table2Rows))
	}
}

// BenchmarkTable3FastestSolutions regenerates Table III.
func BenchmarkTable3FastestSolutions(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(buslib.Default())
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Table III", experiments.FormatTable3(rows))
}

// BenchmarkTable4Runtime10Pin and ...20Pin are the Table IV measurement
// itself: the per-net optimizer runtime at each size (the printed Table
// IV seconds come from the Table II pass).
func BenchmarkTable4Runtime10Pin(b *testing.B) { benchRuntime(b, 10) }

// BenchmarkTable4Runtime20Pin times 20-pin repeater insertion.
func BenchmarkTable4Runtime20Pin(b *testing.B) { benchRuntime(b, 20) }

func benchRuntime(b *testing.B, pins int) {
	loadBenchNets(b)
	nets := benchNets.t10
	if pins == 20 {
		nets = benchNets.t20
	}
	roots := make([]*topo.Rooted, len(nets))
	for i, tr := range nets {
		roots[i] = tr.RootAt(tr.Terminals()[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := roots[i%len(roots)]
		if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11EightPinNet regenerates Fig. 11 (the 8-pin example with
// its 2- and 5-repeater solutions).
func BenchmarkFig11EightPinNet(b *testing.B) {
	var f *experiments.Fig11Result
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.Fig11(8, buslib.Default(), []int{2, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Fig. 11", experiments.FormatFig11(f))
}

// BenchmarkARDLinear and BenchmarkARDNaive back the §III claim: the
// linear-time ARD against the |sources| single-source propagations, on a
// large multisource net.
func BenchmarkARDLinear(b *testing.B) { benchARDScaling(b, true) }

// BenchmarkARDNaive is the O(s·n) baseline.
func BenchmarkARDNaive(b *testing.B) { benchARDScaling(b, false) }

func benchARDScaling(b *testing.B, linear bool) {
	tr, err := netgen.Generate(5, netgen.Defaults(60))
	if err != nil {
		b.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	n := rctree.NewNet(rt, buslib.Default(), rctree.Assignment{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if linear {
			ard.Compute(n, ard.Options{})
		} else {
			n.NaiveARD(false)
		}
	}
}

// BenchmarkMFSDivideConquer and BenchmarkMFSNaive compare the Fig. 4
// divide-and-conquer minimal-functional-subset scheme with quadratic
// pairwise pruning inside a full optimizer run.
func BenchmarkMFSDivideConquer(b *testing.B) { benchPruner(b, core.PruneDivide) }

// BenchmarkMFSNaive uses the quadratic pruner.
func BenchmarkMFSNaive(b *testing.B) { benchPruner(b, core.PruneNaive) }

func benchPruner(b *testing.B, p core.Pruner) {
	loadBenchNets(b)
	rt := benchNets.t20[0].RootAt(benchNets.t20[0].Terminals()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true, Pruner: p}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoPruning quantifies what the MFS buys: the same DP
// with pruning disabled on a deliberately small net (anything larger
// explodes — which is the point).
func BenchmarkAblationNoPruning(b *testing.B) {
	tr := smallLineNet(b, 12)
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: core.PruneOff}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWithPruning is the same small net with the default
// pruner, for direct comparison with BenchmarkAblationNoPruning.
func BenchmarkAblationWithPruning(b *testing.B) {
	tr := smallLineNet(b, 12)
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, tech, core.Options{Repeaters: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func smallLineNet(b *testing.B, ins int) *topo.Tree {
	tr := topo.New()
	a := tr.AddTerminal(geom.Pt(0, 0), buslib.DefaultTerminal("a"))
	c := tr.AddTerminal(geom.Pt(float64(ins+1)*700, 0), buslib.DefaultTerminal("b"))
	tr.AddEdge(a, c, float64(ins+1)*700)
	tr.PlaceInsertionPoints(700)
	if got := len(tr.Insertions()); got < ins {
		b.Fatalf("expected ≥%d insertion points, got %d", ins, got)
	}
	return tr
}

// BenchmarkAblationWireSizing measures the cost of enabling the
// wire-sizing extension (width options {1, 2}) relative to plain
// repeater insertion (BenchmarkTable2RepeaterInsertion).
func BenchmarkAblationWireSizing(b *testing.B) {
	// Wire sizing multiplies the solution space per wire; a long two-pin
	// line with 10 insertion points keeps the ablation tractable while
	// still exercising width choice on every segment.
	tr := smallLineNet(b, 10)
	rt := tr.RootAt(tr.Terminals()[0])
	opt := core.Options{Repeaters: true, WireWidths: []float64{1, 2}, WireCostPerUm: 1e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, benchNets.tech, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInvertingRepeaters measures the polarity-tracking
// variant (§V extension) with an inverter library.
func BenchmarkAblationInvertingRepeaters(b *testing.B) {
	loadBenchNets(b)
	tech := benchNets.tech
	inv := tech.Repeaters[0]
	inv.Name = "inv"
	inv.Cost = 1
	inv.Inverting = true
	tech.Repeaters = append([]buslib.Repeater{}, tech.Repeaters...)
	tech.Repeaters = append(tech.Repeaters, inv)
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	opt := core.Options{Repeaters: true, AllowInverting: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, tech, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsymmetricRoles regenerates the §VII asymmetric-distribution
// study and prints it once.
func BenchmarkAsymmetricRoles(b *testing.B) {
	var rows []experiments.AsymRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Asymmetric(10, 3, 50, buslib.Default(), []float64{0.2, 0.5, 1.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Asymmetric roles (§VII)", experiments.FormatAsym(rows))
}

// BenchmarkTopologySynthesis measures the §VII extension: multisource
// timing-driven topology synthesis (P-Tree interval DP + optimizer-scored
// candidate selection) on a 9-terminal net.
func BenchmarkTopologySynthesis(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	pts := make([]geom.Point, 9)
	terms := make([]buslib.Terminal, 9)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*10000, r.Float64()*10000)
		terms[i] = buslib.DefaultTerminal(fmt.Sprintf("t%d", i))
	}
	tech := buslib.Default()
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := ptree.TimingDriven(pts, terms, tech, 800)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := res.Suite.MinARD()
		if err != nil {
			b.Fatal(err)
		}
		last = sol.ARD
	}
	printTable("Topology synthesis (§VII)",
		fmt.Sprintf("9-terminal net: best optimized ARD %.4f ns\n", last))
}

// BenchmarkSpacingStudy regenerates the footnote-15 spacing table.
func BenchmarkSpacingStudy(b *testing.B) {
	var rows []experiments.SpacingRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.SpacingStudy(10, 3, 1, buslib.Default(), []float64{800, 450})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Spacing study (footnote 15)", experiments.FormatSpacing(rows))
}

// BenchmarkBaselineGreedy times the greedy insertion baseline on the
// 10-pin benchmark net and prints its optimality gap against the DP once.
func BenchmarkBaselineGreedy(b *testing.B) {
	loadBenchNets(b)
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	opt := core.Options{Repeaters: true}
	b.ResetTimer()
	var greedy []core.CostARD
	for i := 0; i < b.N; i++ {
		greedy, _ = core.GreedyInsertion(rt, benchNets.tech, opt)
	}
	b.StopTimer()
	if _, loaded := printOnce.LoadOrStore("greedy-gap", true); !loaded {
		res, err := core.Optimize(rt, benchNets.tech, opt)
		if err != nil {
			b.Fatal(err)
		}
		gap := core.CompareGreedy(greedy, res.Suite)
		printTable("Greedy baseline vs optimal DP",
			fmt.Sprintf("greedy points %d, worst ARD gap %.4f ns, total gap %.4f ns\n",
				gap.GreedyPoints, gap.WorstARDGapNs, gap.TotalARDGapNs))
	}
}

// BenchmarkAblationRichRepeaterLibrary measures the DP with a three-size
// repeater library ({1X,2X,4X} pairs) against the single-type default —
// richer libraries give finer tradeoff curves at higher DP cost.
func BenchmarkAblationRichRepeaterLibrary(b *testing.B) {
	loadBenchNets(b)
	base := buslib.Buffer1X()
	tech := benchNets.tech
	tech.Repeaters = []buslib.Repeater{
		buslib.RepeaterFromPair(base),
		buslib.RepeaterFromPair(base.Scale(2)),
		buslib.RepeaterFromPair(base.Scale(4)),
	}
	rt := benchNets.t10[0].RootAt(benchNets.t10[0].Terminals()[0])
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			b.Fatal(err)
		}
		pts = len(res.Suite)
	}
	b.StopTimer()
	printTable("Rich repeater library ablation",
		fmt.Sprintf("3-size library: %d Pareto points (single-size default: compare BenchmarkTable2RepeaterInsertion)\n", pts))
}

// BenchmarkOptimizeShape times the DP on two topology shapes: a wide,
// shallow star, whose joins all sit at one high-fanout hub, and a random
// 20-pin net.
func BenchmarkOptimizeShape(b *testing.B) {
	b.Run("star", benchStar)
	b.Run("rand20", benchRand20)
}

func benchRand20(b *testing.B) {
	loadBenchNets(b)
	rt := benchNets.t20[0].RootAt(benchNets.t20[0].Terminals()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, benchNets.tech, core.Options{Repeaters: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStar(b *testing.B) {
	// Eight 6 mm arms from a central hub: wide and shallow.
	tr := topo.New()
	hub := tr.AddSteiner(geom.Pt(0, 0))
	root := tr.AddTerminal(geom.Pt(0, 100), buslib.DefaultTerminal("root"))
	tr.AddEdge(hub, root, 100)
	for i := 0; i < 8; i++ {
		id := tr.AddTerminal(geom.Pt(6000, float64(i)*100), buslib.DefaultTerminal(fmt.Sprintf("t%d", i)))
		tr.AddEdge(hub, id, 6000)
	}
	tr.PlaceInsertionPoints(800)
	rt := tr.RootAt(root)
	tech := buslib.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(rt, tech, core.Options{Repeaters: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombinedMode regenerates the joint sizing+repeater study.
func BenchmarkCombinedMode(b *testing.B) {
	var row experiments.CombinedRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.Combined(10, 3, 1, buslib.Default())
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Combined sizing+repeaters",
		experiments.FormatCombined([]experiments.CombinedRow{row}))
}
