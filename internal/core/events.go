package core

import (
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/topo"
)

// sink is the DP's one event path. Every construction, set-forming,
// prune and subtree-finish site of the walk makes at most one call into
// it ("created", "formed", "pruned", "done"), and every view of the run
// is derived here from those events: Stats, the core/* metrics
// (Options.Obs), the dp/* trace slices (Options.Trace) and the
// candidate-lifecycle profile (Options.Profile). The walk is serial, so
// the sink is plain per-run state. With Obs, Trace and Profile off it
// only updates Stats: every metric handle is nil (nil-safe no-ops), and
// the trace and profile paths cost one nil check each.
type sink struct {
	tree  *topo.Tree
	stats Stats

	// Metric handles, resolved once per run; all nil without Options.Obs.
	solutions  *obs.Counter
	pruneCalls *obs.Counter
	pruneDrops *obs.Counter
	preSize    *obs.Histogram
	postSize   *obs.Histogram
	segs       *obs.Histogram
	maxSet     *obs.Gauge

	tr   *trace.Tracer
	tags []trace.Arg       // Options.TraceArgs, appended to every event
	prof *LifecycleProfile // nil unless Options.Profile
}

func newSink(t *topo.Tree, opt Options) sink {
	s := sink{tree: t, tr: opt.Trace, tags: opt.TraceArgs}
	if opt.Profile {
		s.prof = NewLifecycleProfile()
	}
	if r := opt.Obs; r != nil {
		kind := opt.Pruner.String()
		s.solutions = r.Counter("core/solutions_created")
		s.pruneCalls = r.Counter("core/prune/" + kind + "/calls")
		s.pruneDrops = r.Counter("core/prune/" + kind + "/drops")
		s.preSize = r.Histogram("core/set_size/pre_prune", nil)
		s.postSize = r.Histogram("core/set_size/post_prune", nil)
		s.segs = r.Histogram("core/pwl_segments", nil)
		s.maxSet = r.Gauge("core/max_set_size")
	}
	return s
}

// kindName maps a topology node kind to its DP event names: the
// wavefront kind of the lifecycle profile and the node's trace slice.
func kindName(k topo.Kind) (wave, slice string) {
	switch k {
	case topo.Terminal:
		return "leaf", "dp/leaf"
	case topo.Insertion:
		return "insertion", "dp/insertion"
	default:
		return "steiner", "dp/steiner"
	}
}

// targs appends the run's identity tags (Options.TraceArgs) to an
// event's own args. Trace-only, so the append cost is paid only with a
// live tracer.
func (s *sink) targs(args ...trace.Arg) []trace.Arg {
	return append(args, s.tags...)
}

// created records one construction step at node v. out is the batch the
// step hands on; out[:carried] passed through unchanged (RepeaterSolutions
// keeps the unbuffered set), so it counts toward Stats and the metrics
// again but keeps its birth stamp. The rest is stamped with class and v.
// pairs is the number of JoinSets pairings examined, built or skipped (0
// elsewhere).
func (s *sink) created(out []*Solution, carried int, class string, v int, pairs int64) {
	s.stats.SolutionsCreated += len(out)
	s.solutions.Add(int64(len(out)))
	var segSum int64
	for i, c := range out {
		a, d := c.A.NumSegs(), c.D.NumSegs()
		s.stats.MaxSegs = max(s.stats.MaxSegs, a, d)
		s.segs.ObserveInt(a)
		s.segs.ObserveInt(d)
		if s.prof != nil && i >= carried {
			c.lc = &lifeRec{class: class, node: v, segs: int32(a + d), depth: lineageDepth(c)}
			segSum += int64(a + d)
		}
	}
	if s.prof == nil {
		return
	}
	p := s.prof
	p.JoinPairings += pairs
	born := len(out) - carried
	if born == 0 {
		return
	}
	st := p.site(SiteKey{Class: class, Node: v})
	st.Born += born
	st.SegOps += segSum
	st.Allocs += int64(born)
	p.TotalSegOps += segSum
	p.TotalAllocs += int64(born)
	w := p.waveAt(v)
	if w.Kind == "" {
		w.Kind, _ = kindName(s.tree.Node(v).Kind)
	}
	w.Born += born
}

// formed records a finished per-node set of n candidates at node v. The
// sites that call it (sets that skip pruning, and every prune through
// pruned) are exactly the emitters of dp/wavefront instants, so the
// traced wavefront maxima reconcile with Stats.MaxSetSize.
func (s *sink) formed(v, n int) {
	s.stats.MaxSetSize = max(s.stats.MaxSetSize, n)
	s.maxSet.SetMax(int64(n))
	if s.prof != nil && s.tr != nil {
		s.tr.Instant("dp/wavefront", "core", s.targs(trace.I("node", v), trace.I("set", n))...)
	}
}

// pruned records one prune call at node v: pre candidates went in, out
// survived. site is the dominance rule's call point ("drivers",
// "wire_widths", "join", "repeater"); rg is the call's open dp/prune
// slice. Deaths were attributed candidate by candidate inside the pruner.
func (s *sink) pruned(rg trace.Region, site string, v, pre int, out []*Solution) {
	drops := pre - len(out)
	if s.prof != nil {
		for _, c := range out {
			if c.lc != nil {
				c.lc.depth++
			}
		}
		if drops != 0 {
			s.prof.waveAt(v).Died += drops
		}
	}
	s.formed(v, len(out))
	s.stats.PruneCalls++
	s.stats.Dropped += drops
	if s.stats.PruneSites == nil {
		s.stats.PruneSites = map[string]PruneSiteStats{}
	}
	ps := s.stats.PruneSites[site]
	ps.Calls++
	ps.Drops += drops
	s.stats.PruneSites[site] = ps
	s.pruneCalls.Inc()
	s.pruneDrops.Add(int64(drops))
	s.preSize.ObserveInt(pre)
	s.postSize.ObserveInt(len(out))
	if s.tr != nil {
		rg.End(s.targs(trace.S("site", site), trace.I("pre", pre),
			trace.I("post", len(out)), trace.I("drops", drops))...)
	}
}

// enter opens node v's subtree slice (dp/leaf, dp/steiner or
// dp/insertion); the zero Region without a tracer.
func (s *sink) enter(v int) trace.Region {
	if s.tr == nil {
		return trace.Region{}
	}
	_, name := kindName(s.tree.Node(v).Kind)
	return s.tr.Begin(name, "core")
}

// done records one completed subtree solve at node v with final set
// out, closing the slice enter opened. Its args carry the quantities
// Tables I–IV are governed by: the final set size and the largest PWL
// segment count in the set.
func (s *sink) done(rg trace.Region, v int, out []*Solution) {
	s.stats.NodesVisited++
	s.stats.SetSizeSum += len(out)
	if s.prof != nil {
		s.prof.waveAt(v).Final = len(out)
	}
	if s.tr != nil {
		rg.End(s.targs(trace.I("node", v), trace.I("set", len(out)), trace.I("segs", maxSegsOf(out)))...)
	}
}

// finish closes a profiled run at the root: it records the root's final
// set size on the wavefront, credits every suite point to the birth site
// of its closing solution, and returns the profile (nil unless
// Options.Profile).
func (s *sink) finish(root, n int, suite Suite) *LifecycleProfile {
	p := s.prof
	if p == nil {
		return nil
	}
	p.waveAt(root).Final = n
	for _, rs := range suite {
		p.site(siteOf(rs.sol)).Survived++
	}
	p.Runs = 1
	return p
}

// maxSegsOf returns the largest PWL segment count (over A and D) in the
// set — trace-only, so the cost is paid only with a live tracer.
func maxSegsOf(sols []*Solution) int {
	m := 0
	for _, s := range sols {
		m = max(m, s.A.NumSegs(), s.D.NumSegs())
	}
	return m
}
