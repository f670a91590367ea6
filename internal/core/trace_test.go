package core

import (
	"math"
	"reflect"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/pwl"
)

// TestOptimizeTracesPerNode is the tentpole acceptance check at the
// library level: a 16-terminal run with a live tracer must record one
// DP slice per non-root topology node, each carrying the set-size and
// segment-count args, plus prune slices — and tracing must not change
// the result.
func TestOptimizeTracesPerNode(t *testing.T) {
	tr, err := netgen.Generate(7, netgen.Defaults(16))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()

	base, err := Optimize(rt, tech, Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	tcr := trace.New(0)
	res, err := Optimize(rt, tech, Options{Repeaters: true, Trace: tcr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suite) != len(base.Suite) || !reflect.DeepEqual(res.Stats, base.Stats) {
		t.Errorf("tracing changed the run: %+v vs %+v", res.Stats, base.Stats)
	}

	nodeEvents := map[int]trace.Event{}
	prunes := 0
	for _, ev := range tcr.Events() {
		switch ev.Name {
		case "dp/leaf", "dp/steiner", "dp/insertion":
			if ev.Phase != 'X' {
				t.Fatalf("node event not a complete slice: %+v", ev)
			}
			args := map[string]int64{}
			for i := 0; i < int(ev.NArgs); i++ {
				args[ev.Args[i].Key] = ev.Args[i].Val
			}
			for _, key := range []string{"node", "set", "segs"} {
				if _, ok := args[key]; !ok {
					t.Fatalf("node event missing %q arg: %+v", key, ev)
				}
			}
			nodeEvents[int(args["node"])] = ev
		case "dp/prune":
			prunes++
		}
	}
	// Every node except the root (a leaf handled by rootSolutions) is
	// solved exactly once.
	want := tr.NumNodes() - 1
	if len(nodeEvents) != want {
		t.Errorf("traced %d distinct DP nodes, want %d", len(nodeEvents), want)
	}
	if prunes != res.Stats.PruneCalls {
		t.Errorf("traced %d prune slices, stats say %d calls", prunes, res.Stats.PruneCalls)
	}
	// The traced set sizes must be plausible: max equals Stats.MaxSetSize
	// somewhere in the walk is too strong (the max can occur pre-root-
	// augment), but no traced set may exceed it.
	for node, ev := range nodeEvents {
		var set int64
		for i := 0; i < int(ev.NArgs); i++ {
			if ev.Args[i].Key == "set" {
				set = ev.Args[i].Val
			}
		}
		if set > int64(res.Stats.MaxSetSize) {
			t.Errorf("node %d traced set size %d > Stats.MaxSetSize %d", node, set, res.Stats.MaxSetSize)
		}
	}
	// With every channel on, over the option mix, the dp/* slices
	// reconcile with Stats exactly: one node slice per subtree solve, one
	// dp/prune slice per prune call whose per-site sums are
	// Stats.PruneSites, and the run's identity tag on every event.
	for _, tc := range optionMix {
		t.Run(tc.name, func(t *testing.T) { checkTraceReconciles(t, tc) })
	}
}

// evArgs returns an event's integer args by key, and its string args in
// a second map.
func evArgs(ev trace.Event) (map[string]int64, map[string]string) {
	ints, strs := map[string]int64{}, map[string]string{}
	for _, a := range ev.Args[:ev.NArgs] {
		if a.IsStr {
			strs[a.Key] = a.Str
		} else {
			ints[a.Key] = a.Val
		}
	}
	return ints, strs
}

// checkTraceReconciles runs one option-mix case with every channel on
// and reconciles its dp/* slices with Stats.
func checkTraceReconciles(t *testing.T, tc mixCase) {
	tcr := trace.New(0)
	res := tc.run(t, allOn(obs.New(), tcr))
	if tcr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", tcr.Dropped())
	}
	nodes := map[int64]int{}
	sites := map[string]PruneSiteStats{}
	prunes := 0
	for _, ev := range tcr.Events() {
		ints, strs := evArgs(ev)
		if strs["trace_id"] != "mix" {
			t.Fatalf("event lacks the run's trace_id tag: %+v", ev)
		}
		switch ev.Name {
		case "dp/leaf", "dp/steiner", "dp/insertion":
			nodes[ints["node"]]++
		case "dp/prune":
			prunes++
			ps := sites[strs["site"]]
			ps.Calls++
			ps.Drops += int(ints["drops"])
			sites[strs["site"]] = ps
			if ints["pre"]-ints["post"] != ints["drops"] {
				t.Errorf("prune slice args inconsistent: %+v", ev)
			}
		}
	}
	if len(nodes) != res.Stats.NodesVisited {
		t.Errorf("traced %d distinct nodes, Stats.NodesVisited %d", len(nodes), res.Stats.NodesVisited)
	}
	for node, n := range nodes {
		if n != 1 {
			t.Errorf("node %d traced %d times, want once", node, n)
		}
	}
	if prunes != res.Stats.PruneCalls {
		t.Errorf("traced %d dp/prune slices, Stats.PruneCalls %d", prunes, res.Stats.PruneCalls)
	}
	if !reflect.DeepEqual(sites, res.Stats.PruneSites) {
		t.Errorf("per-site prune slices %v != Stats.PruneSites %v", sites, res.Stats.PruneSites)
	}
}

// TestWavefrontReconcilesWithMaxSetSize: with Profile and Trace both
// on, the "dp/wavefront" instants sample the per-node set size at
// exactly the sites that feed Stats.MaxSetSize, so over the option mix
// the max over the timeline equals the stat exactly — the reconciliation
// the solveprof wavefront summary depends on.
func TestWavefrontReconcilesWithMaxSetSize(t *testing.T) {
	for _, tc := range optionMix {
		t.Run(tc.name, func(t *testing.T) {
			tcr := trace.New(0)
			res := tc.run(t, allOn(obs.New(), tcr))
			maxSet, events := int64(0), 0
			for _, ev := range tcr.Events() {
				if ev.Name != "dp/wavefront" {
					continue
				}
				if ev.Phase != 'i' {
					t.Fatalf("wavefront event not an instant: %+v", ev)
				}
				events++
				ints, _ := evArgs(ev)
				set, ok1 := ints["set"]
				_, ok2 := ints["node"]
				if !ok1 || !ok2 {
					t.Fatalf("wavefront event missing node/set args: %+v", ev)
				}
				maxSet = max(maxSet, set)
			}
			if events == 0 {
				t.Fatal("profiled traced run emitted no dp/wavefront instants")
			}
			if maxSet != int64(res.Stats.MaxSetSize) {
				t.Errorf("wavefront max set %d != Stats.MaxSetSize %d", maxSet, res.Stats.MaxSetSize)
			}
		})
	}
	// Without Profile the wavefront channel stays silent.
	tcr := trace.New(0)
	optionMix[0].run(t, Options{Trace: tcr})
	for _, ev := range tcr.Events() {
		if ev.Name == "dp/wavefront" {
			t.Fatal("dp/wavefront emitted without Options.Profile")
		}
	}
}

// TestInstrumentationZeroAllocWhenOff is the nil-registry fast-path
// guard: with Options.Obs, Trace and Profile all off, every method of
// the DP's event sink — the one path each construction, set-forming,
// prune and subtree-finish site reports through — must not allocate.
func TestInstrumentationZeroAllocWhenOff(t *testing.T) {
	s, sols := offSink()
	if n := testing.AllocsPerRun(1000, func() { sinkEvents(s, sols, 1) }); n != 0 {
		t.Errorf("uninstrumented event sink allocates %.2f per node, want 0", n)
	}
}

// BenchmarkInstrumentationOff is the benchmark form of the same guard,
// so `go test -bench Instrumentation -benchmem` shows 0 B/op.
func BenchmarkInstrumentationOff(b *testing.B) {
	s, sols := offSink()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEvents(s, sols, i)
	}
}

// offSink is the event sink of a run with every instrumentation channel
// off, plus a one-candidate set to report.
func offSink() (*sink, []*Solution) {
	s := newSink(nil, Options{})
	return &s, []*Solution{{
		Cost: 1, Cap: 0.5, Q: math.Inf(-1),
		A: pwl.Linear(1, 2), D: pwl.NegInf(), Dom: pwl.Full(),
	}}
}

// sinkEvents reports one node's worth of DP events through s: a
// subtree walk with a construction, a set formed, and a prune.
func sinkEvents(s *sink, sols []*Solution, v int) {
	rg := s.enter(v)
	s.created(sols, 0, ClassWire, v, 0)
	s.formed(v, len(sols))
	s.pruned(s.tr.Begin("dp/prune", "core"), "join", v, 2, sols)
	s.done(rg, v, sols)
}
