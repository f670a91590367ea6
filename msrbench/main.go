// Command msrbench is the repository's end-to-end benchmark. It runs
// one named workload against msrnetd's own serving code, all in one
// process: daemons built as cmd/msrnetd builds them, served over
// loopback HTTP, driven by at most two raw net/http clients, with every
// answer checked. It prints one JSON object as the last line of its
// standard output.
//
// Usage (from the root of the repository, see run.sh):
//
//	bash msrbench/run.sh --workload dp-solve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one timed run.
// With --trace 1 it runs the workload untraced and then traced for half
// the time each and reports the per-layer metrics: the daemons'
// counters and span summaries, direct timed calls into each layer on
// the workload's own inputs, and the tracing overhead. The traced run's
// spans are written to .bench_build/msrbench-traces/. README.md lists
// the workloads and the end-to-end metric each layer metric should
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// buildDir holds everything a run leaves behind, inside the checkout.
const buildDir = ".bench_build"

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median.
const setupRepeats = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dp-solve or fleet-steal")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "length of the timed run in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "msrbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if _, err := os.Stat(baselineFile); err != nil {
		fmt.Fprintf(os.Stderr, "msrbench: run from the root of the repository: %v\n", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, dur, 0)
	} else {
		res, err = runUntraced(w, *seed, dur, 0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "msrbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msrbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env is one set-up workload: its inputs and running daemons.
type env struct {
	p      *plan
	ds     []*daemon
	dir    string
	closed bool
}

// setup generates the inputs and starts the daemons, converging fleet
// gossip; setup_s times exactly this.
func setup(w workload, seed int64) (*env, error) {
	p, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	ds, dir, err := w.start()
	if err != nil {
		return nil, fmt.Errorf("start daemons: %w", err)
	}
	return &env{p: p, ds: ds, dir: dir}, nil
}

// close stops every daemon and removes the scratch directory. The
// daemons' registries and span indexes stay readable.
func (e *env) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	for _, d := range e.ds {
		errs = append(errs, d.stop())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// run is one set-up, loaded and checked workload.
type run struct {
	e     *env
	lr    *loadResult
	v     verdict
	setup time.Duration
}

// measure sets up, runs the load for dur (or maxSteps steps), checking
// every answer, and stops the daemons.
func measure(w workload, seed int64, dur time.Duration, maxSteps int, tr *benchTracer) (*run, error) {
	t := time.Now()
	e, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	r := &run{e: e, setup: time.Since(t)}
	defer e.close()
	r.lr = runLoad(e.p, e.ds, dur, maxSteps, w.heapStep, tr)
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("stop daemons: %w", err)
	}
	r.v = r.lr.v
	fmt.Fprintf(os.Stderr, "msrbench: %s: %d requests (%d failed: %d refused, %d wrong), %d nets ok in %.2fs\n",
		w.name, r.v.attempted, r.v.failed, r.v.refused, r.v.wrong, r.v.okNets, r.lr.elapsed.Seconds())
	if r.v.firstMsg != "" {
		fmt.Fprintf(os.Stderr, "msrbench: first failure: %s\n", r.v.firstMsg)
	}
	if r.v.okNets == 0 {
		return nil, fmt.Errorf("no request answered correctly")
	}
	return r, nil
}

// cpuPerNet is process CPU milliseconds per net answered.
func (r *run) cpuPerNet() float64 { return ms(r.lr.cpu) / float64(r.v.okNets) }

// endToEnd computes the metrics a user of the daemon sees.
func (r *run) endToEnd() map[string]metric {
	lat := r.lr.lat
	return map[string]metric{
		"nets_per_s":      {float64(r.v.okNets) / r.lr.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {ms(quantile(lat, 0.50)), unitMs},
		"latency_p99_ms":  {ms(quantile(lat, 0.99)), unitMs},
		"ok_frac":         {float64(r.v.attempted-r.v.failed) / float64(r.v.attempted), unitFrac},
		"cpu_ms_per_net":  {r.cpuPerNet(), unitMs},
		"mem_retained_mb": {float64(r.lr.retained) / (1 << 20), "MiB"},
	}
}

// runUntraced times setupRepeats set-ups, keeps the last for one timed
// run and reports the end-to-end metrics. maxSteps, when positive,
// caps the run's length in steps (see runLoad).
func runUntraced(w workload, seed int64, dur time.Duration, maxSteps int) (*result, error) {
	var setups []time.Duration
	for i := 0; i < setupRepeats-1; i++ {
		t := time.Now()
		e, err := setup(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("stop daemons: %w", err)
		}
	}
	r, err := measure(w, seed, dur, maxSteps, nil)
	if err != nil {
		return nil, err
	}
	m := r.endToEnd()
	m["setup_s"] = metric{quantile(append(setups, r.setup), 0.5).Seconds(), "s"}
	return &result{Correct: r.v.wrong == 0, Attempted: r.v.attempted, Failed: r.v.failed, Metrics: m}, nil
}

// runTraced runs the workload untraced, then traced, for half the time
// each, and reports the per-layer metrics of the traced run.
func runTraced(w workload, seed int64, dur time.Duration, maxSteps int) (*result, error) {
	plain, err := measure(w, seed, dur/2, maxSteps, nil)
	if err != nil {
		return nil, err
	}
	tr := newBenchTracer()
	traced, err := measure(w, seed, dur/2, maxSteps, tr)
	if err != nil {
		return nil, err
	}
	m, anchorErr := perLayer(w, traced.e.p, traced.e.ds, traced.lr, traced.v, tr)
	if m == nil {
		return nil, anchorErr
	}
	if anchorErr != nil {
		fmt.Fprintf(os.Stderr, "msrbench: %v\n", anchorErr)
	}
	m["obs.trace_overhead_frac"] = metric{traced.cpuPerNet()/plain.cpuPerNet() - 1, unitFrac}
	path := filepath.Join(buildDir, "msrbench-traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path, map[string]any{"workload": w.name, "seed": seed,
		"seconds": (dur / 2).Seconds()}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return &result{
		Correct:   plain.v.wrong == 0 && traced.v.wrong == 0 && anchorErr == nil,
		Attempted: plain.v.attempted + traced.v.attempted,
		Failed:    plain.v.failed + traced.v.failed,
		Metrics:   m,
	}, nil
}
