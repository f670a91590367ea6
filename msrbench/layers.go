package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/bench"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/jobstore"
	"msrnet/internal/netio"
	"msrnet/internal/obs/spans"
	"msrnet/internal/rctree"
	"msrnet/internal/service"
	"msrnet/internal/topo"
)

// Units of the per-layer metrics.
const (
	unitMs    = "ms"
	unitUs    = "us"
	unitCount = "count"
	unitFrac  = "frac"
)

// spanClasses are the daemon span classes self time is reported for
// (spans.ClassOf).
var spanClasses = []string{spans.ClassQueue, spans.ClassSolve, spans.ClassFsync,
	spans.ClassHop, spans.ClassRemoteCache, spans.ClassOther}

// layerSample is how many of the workload's own nets each direct layer
// call runs on; the first ones in plan order, so the sample is fixed
// by the seed.
const layerSample = 24

// anchorWorkloads are the committed BENCH_msrnet.json MSRI nets the
// layer pass re-runs, so the benchmark's core/pwl counts and the CI
// counter gate measure the same solver.
var anchorWorkloads = []string{"msri/10pin", "msri/12pin", "msri/20pin"}

// baselineFile is the committed counter baseline, read from the root of
// the checkout the benchmark runs in.
const baselineFile = "BENCH_msrnet.json"

// layerRun is what the per-layer computation reads: the traced run's
// plan, daemons, measurements and checked answers.
type layerRun struct {
	w  workload
	p  *plan
	ds []*daemon
	lr *loadResult
	v  verdict
	tr *benchTracer
	ms map[string]metric
}

func (l *layerRun) set(name, unit string, v float64) { l.ms[name] = metric{Value: v, Unit: unit} }

// perLayer computes every per-layer metric of a traced run: counters
// and span summaries the daemons expose, plus direct calls into each
// layer's public functions on the workload's own inputs. A nil map
// means a direct call could not run; a map with an error means the
// anchor counts disagree with the committed baseline.
func perLayer(w workload, p *plan, ds []*daemon, lr *loadResult, v verdict, tr *benchTracer) (map[string]metric, error) {
	l := &layerRun{w: w, p: p, ds: ds, lr: lr, v: v, tr: tr, ms: map[string]metric{}}
	l.daemonCounts()
	l.harness()
	start := time.Now()
	parent := tr.add(benchSpan{Name: "layers"}, start)
	defer func() { tr.end(parent, time.Since(start)) }()
	idx := l.sample()
	l.codec(parent, idx, l.core(parent, idx))
	if err := l.wal(parent); err != nil {
		return nil, err
	}
	return l.ms, l.anchor(parent)
}

// counters sums one registry counter over the daemons.
func (l *layerRun) counter(name string) int64 {
	var n int64
	for _, d := range l.ds {
		n += d.reg.Counter(name).Value()
	}
	return n
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// daemonCounts reads the service, jobstore and cluster layers from the
// daemons' registries and span summaries, and core from the Stats the
// daemons returned.
func (l *layerRun) daemonCounts() {
	for _, c := range spanClasses {
		l.set("service.self_ms_per_job."+c, unitMs, l.lr.self[c]/float64(max(l.v.jobs, 1)))
	}
	// Window quantiles cannot be merged across daemons; a fleet reports
	// its worst member.
	var qp50, qp99 float64
	for _, d := range l.ds {
		q := d.reg.Snapshot().Quantiles["svc/latency/queue/ok"]
		qp50, qp99 = max(qp50, q.P50), max(qp99, q.P99)
	}
	l.set("service.queue_wait_p50_ms", unitMs, qp50)
	l.set("service.queue_wait_p99_ms", unitMs, qp99)
	hits, misses := l.counter("svc/cache_hits"), l.counter("svc/cache_misses")
	l.set("service.cache_hit_ratio", unitFrac, ratio(hits, hits+misses))
	l.set("service.cache_lookups", unitCount, float64(hits+misses))
	l.set("service.cache_hits", unitCount, float64(hits))
	l.set("service.rejected", unitCount, float64(l.counter("svc/jobs_rejected")))
	l.set("service.degraded", unitCount, float64(l.counter("svc/jobs_degraded")))
	l.set("service.shed", unitCount, float64(l.counter("svc/jobs_shed")))

	l.set("jobstore.appends_per_net", unitCount, ratio(l.counter("wal/appends"), int64(max(l.v.okNets, 1))))
	l.set("jobstore.appends_per_fsync", unitCount, ratio(l.counter("wal/appends"), l.counter("wal/fsync_batches")))

	rh, rm := l.counter("cluster/shard_get_remote_hits"), l.counter("cluster/shard_get_remote_misses")
	l.set("cluster.remote_hit_ratio", unitFrac, ratio(rh, rh+rm))
	l.set("cluster.remote_lookups", unitCount, float64(rh+rm))
	l.set("cluster.remote_hits", unitCount, float64(rh))
	l.set("cluster.forwards_per_batch", unitCount, ratio(l.counter("cluster/forwards_out"), int64(l.v.attempted)))
	l.set("cluster.forward_errors", unitCount, float64(l.counter("cluster/forward_errors")))

	dp := l.v.dp
	n := int64(dp.solves)
	l.set("core.solves", unitCount, float64(n))
	l.set("core.solutions_created_per_net", unitCount, ratio(int64(dp.created), n))
	l.set("core.prune_calls_per_net", unitCount, ratio(int64(dp.prunes), n))
	l.set("core.max_set_size", unitCount, float64(dp.maxSet))
	l.set("core.dropped_per_mille", unitCount, 1000*ratio(int64(dp.dropped), int64(dp.created)))
}

// harness reads the Go runtime around the run and the request count.
func (l *layerRun) harness() {
	d := func(i int) float64 { return l.lr.rt1[i].Value.Float64() - l.lr.rt0[i].Value.Float64() }
	if total := d(1); total > 0 {
		l.set("go.gc_cpu_frac", unitFrac, d(0)/total)
	} else {
		l.set("go.gc_cpu_frac", unitFrac, 0)
	}
	allocs := l.lr.rt1[2].Value.Uint64() - l.lr.rt0[2].Value.Uint64()
	l.set("go.alloc_kb_per_net", "KiB", float64(allocs)/1024/float64(max(l.v.okNets, 1)))
	l.set("gen.requests", unitCount, float64(l.v.attempted))
}

// sample picks the direct-call inputs: the first distinct nets in plan
// order, all of which the daemons solved with the DP.
func (l *layerRun) sample() []int {
	seen := map[int]bool{}
	var idx []int
	for _, st := range l.p.steps {
		for _, rq := range st {
			for _, i := range rq.nets {
				if !seen[i] && len(idx) < layerSample {
					seen[i] = true
					idx = append(idx, i)
				}
			}
		}
	}
	return idx
}

// decodedNet is one input as the daemon sees it after decoding.
type decodedNet struct {
	rt   *topo.Rooted
	tech buslib.Tech
	net  *rctree.Net // unassigned, for the ARD pass
}

// decode decodes input i and roots it where msrnetd roots it.
func (l *layerRun) decode(i int) decodedNet {
	tr, tech, err := netio.Decode(l.p.inputs[i].file)
	if err != nil {
		panic(fmt.Sprintf("input %d does not decode: %v", i, err)) // the daemon decoded it
	}
	rt := tr.RootAt(tr.Terminals()[0])
	return decodedNet{rt: rt, tech: tech, net: rctree.NewNet(rt, tech, rctree.Assignment{})}
}

// core times serial core.Optimize calls on the workload's nets, with
// allocation counts around them, then repeats them profiled for the pwl
// segment operations. It returns the results for the encode timing.
func (l *layerRun) core(parent int, idx []int) []*core.Result {
	nets := make([]decodedNet, len(idx))
	for k, i := range idx {
		nets[k] = l.decode(i)
	}
	optimize := func(k int, profile bool) *core.Result {
		res, err := core.Optimize(nets[k].rt, nets[k].tech, core.Options{Repeaters: true, Profile: profile})
		if err != nil {
			panic(fmt.Sprintf("direct core.Optimize: %v", err)) // the daemon solved the same net
		}
		return res
	}
	results := make([]*core.Result, len(nets))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	us := l.tr.timed("layer/core.Optimize", parent, len(nets), func(k int) {
		results[k] = optimize(k, false)
	})
	runtime.ReadMemStats(&m1)
	n := float64(len(nets))
	l.set("core.optimize_ms_per_net", unitMs, us/1000)
	// The DP's share of the run's CPU: the serial solve time of the
	// run's fresh solves over the process CPU time.
	l.set("core.cpu_share", unitFrac, us/1000*float64(l.v.dp.solves)/ms(l.lr.cpu))
	l.set("core.allocs_per_net", unitCount, float64(m1.Mallocs-m0.Mallocs)/n)
	l.set("core.alloc_mb_per_net", "MiB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n)
	var total, wasted int64
	l.tr.timed("layer/core.Optimize+Profile", parent, len(nets), func(k int) {
		p := optimize(k, true).Profile
		total += p.TotalSegOps
		wasted += p.WastedSegOps
	})
	l.set("pwl.seg_ops_per_net", unitCount, float64(total)/n)
	l.set("pwl.wasted_seg_ops_per_mille", unitCount, 1000*ratio(wasted, total))
	return results
}

// codecReps repeats the microsecond-scale calls so each timed span
// covers enough work to measure.
const codecReps = 8

// codec times netio's hash, decode and result encoding and the ARD pass
// on the workload's own nets. Encoding covers what the daemon encodes
// per job: EncodeAssignment plus the result JSON, from the direct
// solves, with the ARD half on workloads of "both" jobs.
func (l *layerRun) codec(parent int, all []int, solved []*core.Result) {
	files := make([]netio.NetFile, len(all))
	nets := make([]decodedNet, len(all))
	for k, i := range all {
		files[k], nets[k] = l.p.inputs[i].file, l.decode(i)
	}
	n := len(all) * codecReps
	l.set("netio.hash_us_per_net", unitUs, l.tr.timed("layer/netio.ContentHash", parent, n, func(i int) {
		if _, err := netio.ContentHash(files[i%len(files)]); err != nil {
			panic(err) // the daemon hashed the same net
		}
	}))
	l.set("netio.decode_us_per_net", unitUs, l.tr.timed("layer/netio.Decode", parent, n, func(i int) {
		if _, _, err := netio.Decode(files[i%len(files)]); err != nil {
			panic(err) // the daemon decoded the same net
		}
	}))
	ards := make([]ard.Result, len(nets))
	l.set("ard.compute_us_per_net", unitUs, l.tr.timed("layer/ard.Compute", parent, n, func(i int) {
		ards[i%len(nets)] = ard.Compute(nets[i%len(nets)].net, ard.Options{})
	}))
	both := l.p.steps[0][0].mode == "both"
	l.set("netio.encode_us_per_net", unitUs, l.tr.timed("layer/netio.encode", parent, len(solved)*codecReps, func(i int) {
		out := solved[i%len(solved)]
		chosen, err := out.Suite.MinARD()
		if err != nil {
			panic(err) // Optimize never returns an empty suite
		}
		opt := &service.OptResult{Chosen: service.SuitePoint{Cost: chosen.Cost, ARD: chosen.ARD, Repeaters: chosen.Repeaters()},
			Assign: netio.EncodeAssignment(chosen.Cost, chosen.ARD, chosen.Assignment()), Stats: out.Stats}
		for _, s := range out.Suite {
			opt.Suite = append(opt.Suite, service.SuitePoint{Cost: s.Cost, ARD: s.ARD, Repeaters: s.Repeaters()})
		}
		res := service.Result{ID: "j0", Status: service.StatusOK, Opt: opt}
		if both {
			res.ARD = &service.ARDResult{ARD: ards[i%len(ards)].ARD}
		}
		if _, err := json.Marshal(res); err != nil {
			panic(err)
		}
	}))
}

// walAppends is how many single-record appends the direct WAL timing
// makes; the median is reported.
const walAppends = 32

// wal times a direct jobstore Append of one representative accepted
// record — a job of this workload — including its group fsync, on the
// workloads that run with a WAL.
func (l *layerRun) wal(parent int) error {
	l.set("jobstore.append_fsync_us", unitUs, 0)
	if !l.w.wal {
		return nil
	}
	dir, err := tempDir("wal-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Logger: quietLogger()})
	if err != nil {
		return fmt.Errorf("open direct wal: %w", err)
	}
	job, err := json.Marshal(service.Job{ID: "j0", Mode: l.p.steps[0][0].mode, Net: l.p.inputs[0].file})
	if err != nil {
		return err
	}
	var ds []time.Duration
	start := time.Now()
	for i := 0; i < walAppends; i++ {
		t := time.Now()
		if err := store.Append(context.Background(), &jobstore.Record{Type: jobstore.TypeAccepted, Job: job}); err != nil {
			store.Close()
			return fmt.Errorf("direct wal append: %w", err)
		}
		ds = append(ds, time.Since(t))
	}
	l.tr.add(benchSpan{Name: "layer/jobstore.Append", Parent: parent, Dur: time.Since(start),
		Attrs: map[string]any{"calls": walAppends}}, start)
	if err := store.Close(); err != nil {
		return fmt.Errorf("close direct wal: %w", err)
	}
	l.set("jobstore.append_fsync_us", unitUs, float64(quantile(ds, 0.5))/float64(time.Microsecond))
	return nil
}

// anchor re-runs the committed MSRI nets and compares the DP counters
// with the committed baseline.
func (l *layerRun) anchor(parent int) error {
	base, err := bench.Load(baselineFile)
	if err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	want := map[string]map[string]int64{}
	for _, w := range base.Workloads {
		want[w.Name] = w.Counters
	}
	for _, name := range anchorWorkloads {
		var res *core.Result
		l.tr.timed("layer/bench.ProfileMSRI:"+name, parent, 1, func(int) {
			res, err = bench.ProfileMSRI(name)
		})
		if err != nil {
			return fmt.Errorf("anchor %s: %w", name, err)
		}
		got := map[string]int64{"solutions_created": int64(res.Stats.SolutionsCreated),
			"total_seg_ops": res.Profile.TotalSegOps}
		for k, g := range got {
			if w, ok := want[name][k]; !ok || w != g {
				return fmt.Errorf("anchor %s: %s = %d, %s has %d", name, k, g, baselineFile, w)
			}
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
