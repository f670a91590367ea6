package experiments

import (
	"sync"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/topo"
)

// Package-level profiling sink: the studies in this package call
// core.Optimize from many places (and, under Table2Parallel, from many
// goroutines), so per-call plumbing of a profile collector would touch
// every study signature. Instead the
// CLI opts in once (EnableProfiling), every solve runs with
// Options.Profile, and the per-run lifecycle profiles merge into one
// session aggregate the CLI collects at exit. Merging is commutative,
// so the aggregate is deterministic for a fixed set of solves even
// when workers race.
var (
	profMu   sync.Mutex
	profSink *core.LifecycleProfile
)

// EnableProfiling turns on candidate-lifecycle profiling for every
// subsequent solve in this package, resetting any prior aggregate.
func EnableProfiling() {
	profMu.Lock()
	profSink = core.NewLifecycleProfile()
	profMu.Unlock()
}

// CollectProfile returns the aggregated profile of all solves since
// EnableProfiling, or nil when profiling is off.
func CollectProfile() *core.LifecycleProfile {
	profMu.Lock()
	defer profMu.Unlock()
	return profSink
}

// optimize is the package's single gateway to core.Optimize: it applies
// the profiling opt-in and folds the run's profile into the session
// aggregate.
func optimize(rt *topo.Rooted, tech buslib.Tech, opt core.Options) (*core.Result, error) {
	profMu.Lock()
	on := profSink != nil
	profMu.Unlock()
	if on {
		opt.Profile = true
	}
	res, err := core.Optimize(rt, tech, opt)
	if err == nil && res.Profile != nil {
		profMu.Lock()
		if profSink != nil {
			profSink.Merge(res.Profile)
		}
		profMu.Unlock()
	}
	return res, err
}
