package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
)

// outcome is one attempted request as the client saw it. It lives
// only until its answer is checked, right after its latency is
// recorded, so the heap never holds the run's response bodies.
type outcome struct {
	req     *request
	traceID string
	status  int
	body    []byte
	err     error
}

// tally is what one client accumulates over a run.
type tally struct {
	lat []time.Duration // per request
	v   verdict
	// self sums the daemons' per-class self time of every request's
	// trace (traced runs only).
	self map[string]float64
}

// loadResult is what one timed run measured.
type loadResult struct {
	lat     []time.Duration // per request, in no particular order
	v       verdict
	self    map[string]float64
	elapsed time.Duration
	cpu     time.Duration // process user+system CPU during the run
	// retained is the live heap the daemons keep after a fixed number
	// of steps, with no request in flight, above the pre-run baseline
	// (see heapProbe).
	retained uint64
	rt0, rt1 []metrics.Sample
}

// runtimeSamples are the Go runtime counters read around a run.
func runtimeSamples() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap the last garbage collection found reachable.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapProbe pauses the closed loop once, before step at, and reads the
// heap the daemons keep. The reading is taken at a fixed step rather
// than at the end of the run because the daemons' memory grows with
// the requests they have seen (the tracer interns every trace ID), so
// a reading at the end would grow with throughput. It is taken with no
// request in flight because a collection under load counts the objects
// allocated while it marks as live. The pause is left out of the run's
// time and CPU.
type heapProbe struct {
	at      int
	earlier sync.WaitGroup // steps before at, not yet finished
	done    chan struct{}  // closed after the reading
	live    uint64
	pause   atomic.Int64 // wall time of the pause, ns
	cpu     time.Duration
}

func newHeapProbe(at int) *heapProbe {
	h := &heapProbe{at: at, done: make(chan struct{})}
	h.earlier.Add(at)
	return h
}

// before is called by a client about to run step i. At step at it takes
// the reading; past it, it waits for the reading.
func (h *heapProbe) before(i int) {
	switch {
	case i == h.at:
		h.take()
	case i > h.at:
		<-h.done
	}
}

// take waits for every step before at to finish and reads the heap. The
// client that drew step at calls it, whether it runs the step or stops,
// so a client waiting for the reading is always released.
func (h *heapProbe) take() {
	h.earlier.Wait()
	t, cpu := time.Now(), processCPU()
	runtime.GC()
	h.live = liveHeap()
	h.cpu = processCPU() - cpu
	h.pause.Store(int64(time.Since(t)))
	close(h.done)
}

// after is called by a client that finished step i.
func (h *heapProbe) after(i int) {
	if i < h.at {
		h.earlier.Done()
	}
}

// stop is called by a client that drew step i and stops without running
// it.
func (h *heapProbe) stop(i int) {
	if i == h.at {
		h.take()
	} else {
		h.after(i)
	}
}

// read returns the reading, or, when no client drew step at, takes it
// now that every step has finished.
func (h *heapProbe) read() uint64 {
	select {
	case <-h.done:
	default:
		runtime.GC()
		h.live = liveHeap()
	}
	return h.live
}

// runLoad drives the plan against the daemons in a closed loop: each
// client takes the next step, cycling through the plan, until dur has
// passed, or until maxSteps steps are taken when that is positive — the
// fixed-length mode the tests use. Each answer is checked in the client
// right after its latency is recorded; the check's CPU time counts in
// the run's. The heap is read before step heapAt.
func runLoad(p *plan, ds []*daemon, dur time.Duration, maxSteps, heapAt int, tr *benchTracer) *loadResult {
	tallies := make([]tally, clients)
	for c := range tallies {
		// Room for every latency up to the heap reading, so the
		// clients' own records are in the baseline, not in the reading.
		tallies[c].lat = make([]time.Duration, 0, heapAt*len(p.steps[0]))
	}
	// Every run starts from the same heap state, and the heap reported
	// is what the run adds to it, not the generated inputs.
	runtime.GC()
	base := liveHeap()
	res := &loadResult{rt0: runtimeSamples()}

	probe := newHeapProbe(heapAt)
	cpu0 := processCPU()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConns: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if maxSteps > 0 && i >= maxSteps ||
					maxSteps == 0 && time.Since(start)-time.Duration(probe.pause.Load()) >= dur {
					probe.stop(i)
					return
				}
				probe.before(i)
				st := p.steps[i%len(p.steps)]
				for j := range st {
					o := outcome{req: &st[j], traceID: fmt.Sprintf("bench-%d-%d", i, j)}
					sent := time.Since(start)
					o.status, o.body, o.err = send(client, ds[o.req.entry].url, o.req, o.traceID)
					lat := time.Since(start) - sent
					t.lat = append(t.lat, lat)
					if tr != nil {
						t.trace(tr, ds, &o, start.Add(sent), lat)
					}
					t.v.check(p, &o)
				}
				probe.after(i)
			}
		}(&tallies[c])
	}
	wg.Wait()
	res.elapsed = time.Since(start) - time.Duration(probe.pause.Load())
	res.cpu = processCPU() - cpu0 - probe.cpu
	res.rt1 = runtimeSamples()
	kept := probe.read()
	res.retained = kept - min(base, kept)
	res.self = map[string]float64{}
	for _, t := range tallies {
		res.lat = append(res.lat, t.lat...)
		res.v.merge(t.v)
		for class, ms := range t.self {
			res.self[class] += ms
		}
	}
	return res
}

// trace records a benchmark-side span for one request, with the
// daemons' own summaries of its trace, and adds their per-class self
// time to t.
func (t *tally) trace(tr *benchTracer, ds []*daemon, o *outcome, start time.Time, lat time.Duration) {
	var sums []*spans.Summary
	for _, d := range ds {
		if s := d.spans.Summarize(o.traceID); s != nil {
			sums = append(sums, s)
		}
	}
	if t.self == nil {
		t.self = map[string]float64{}
	}
	for _, s := range sums {
		for class, ms := range s.ByClassMs {
			t.self[class] += ms
		}
	}
	tr.add(benchSpan{Name: "http/request", TraceID: o.traceID, Dur: lat,
		Attrs: map[string]any{"entry": o.req.entry, "status": o.status,
			"jobs": len(o.req.nets), "first": o.req.first},
		Daemon: sums}, start)
}

// send posts one msrnet-job/v1 body with raw net/http: no retries, so
// every refusal reaches the result.
func send(c *http.Client, base string, rq *request, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqctx.HeaderTraceID, traceID)
	if rq.apiKey != "" {
		req.Header.Set(reqctx.HeaderAPIKey, rq.apiKey)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
