package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"msrnet/internal/netio"
)

// TestMain runs the tests from the root of the repository, where the
// benchmark itself runs: the anchor reads BENCH_msrnet.json there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// Reduced-length runs: a fixed number of closed-loop steps, so the set
// of requests does not depend on speed.
const (
	testSteps   = 24
	testSeconds = 1.0
)

// deterministic lists the per-layer metrics that must repeat exactly
// for a seed: DP work, request counts, WAL records, cache and remote
// lookups and hits, and forwards, which the schedule, not the timing,
// decides.
var deterministic = []string{
	"core.solves", "core.solutions_created_per_net", "core.prune_calls_per_net",
	"core.max_set_size", "core.dropped_per_mille",
	"pwl.seg_ops_per_net", "pwl.wasted_seg_ops_per_mille",
	"gen.requests", "jobstore.appends_per_net",
	"service.cache_hit_ratio", "service.cache_lookups", "service.cache_hits",
	"cluster.remote_hit_ratio", "cluster.remote_lookups", "cluster.remote_hits",
	"cluster.forwards_per_batch", "cluster.forward_errors",
}

func deterministicCounts(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	res, err := runTraced(w, seed, 2*time.Duration(testSeconds*float64(time.Second)), testSteps)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d of %d", w.name, seed, res.Correct, res.Failed, res.Attempted)
	}
	out := map[string]float64{}
	for _, k := range deterministic {
		out[k] = res.Metrics[k].Value
	}
	return out
}

// TestSameSeedSameCounts: two reduced-length runs with one seed agree
// on every deterministic count, and the layers each workload targets
// do work.
func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := deterministicCounts(t, w, 7)
			b := deterministicCounts(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different counts:\n%v\n%v", a, b)
			}
			switch w.name {
			case "dp-solve":
				if a["core.solves"] != testSteps || a["service.cache_hit_ratio"] != 0 ||
					a["jobstore.appends_per_net"] != 0 || a["cluster.remote_lookups"] != 0 {
					t.Errorf("dp-solve must solve every request fresh, without a WAL or a fleet: %v", a)
				}
			case "fleet-steal":
				// Every first send is solved once and logged as accepted,
				// result and ack; the two later sends hit a cache; every
				// first send entering member 0 is work-stolen.
				p, err := w.build(7)
				if err != nil {
					t.Fatal(err)
				}
				stolen := 0
				for _, st := range p.steps[:testSteps] {
					if st[0].entry == 0 {
						stolen++
					}
				}
				jobs := float64(testSteps * fleetBatch)
				if a["core.solves"] != jobs || a["jobstore.appends_per_net"] != 1 || a["service.cache_hits"] != 2*jobs {
					t.Errorf("fleet-steal: want %v solves, 3 WAL records per first send and %v cache hits: %v", jobs, 2*jobs, a)
				}
				if want := float64(stolen) / float64(3*testSteps); stolen == 0 || a["cluster.forwards_per_batch"] != want {
					t.Errorf("fleet-steal: %d of %d first sends enter member 0, want forwards_per_batch %v: %v",
						stolen, testSteps, want, a)
				}
				if a["cluster.remote_hits"] == 0 {
					t.Errorf("fleet-steal: no remote cache hit: %v", a)
				}
			}
		})
	}
}

// TestSeedChangesInputsNotShape: another seed gives other nets in a
// workload of the same shape.
func TestSeedChangesInputsNotShape(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.build(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.build(2)
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.build(1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.steps[0][0].body, again.steps[0][0].body) {
				t.Fatal("same seed generated different inputs")
			}
			if bytes.Equal(a.steps[0][0].body, b.steps[0][0].body) {
				t.Fatal("seeds 1 and 2 generated the same first request")
			}
			sa, sb := shape(a), shape(b)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("shapes differ:\n%v\n%v", sa, sb)
			}
		})
	}
}

// shape summarizes a plan independently of its nets: the step layout
// (job modes, batch sizes, which sends are first) and the pin counts
// used.
func shape(p *plan) map[string]any {
	layout := map[string]int{}
	pins := map[int]bool{}
	for _, st := range p.steps {
		key := ""
		for _, rq := range st {
			key += rq.mode + ":" + strconv.Itoa(len(rq.nets)) + ":" + strconv.FormatBool(rq.first) + " "
			for _, i := range rq.nets {
				pins[countTerminals(p.inputs[i].file.Nodes)] = true
			}
		}
		layout[key]++
	}
	var pinList []int
	for n := range pins {
		pinList = append(pinList, n)
	}
	sort.Ints(pinList)
	return map[string]any{"layout": layout, "pins_min": pinList[0], "pins_max": pinList[len(pinList)-1]}
}

func countTerminals(nodes []netio.NodeJSON) int {
	n := 0
	for _, x := range nodes {
		if x.Kind == "terminal" {
			n++
		}
	}
	return n
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames fails unless the reported metrics are exactly the listed
// ones, with the listed units.
func checkNames(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: reported %+v (present %v), BENCHMARK.json unit %q", m.Name, g, ok, m.Unit)
		}
	}
}

// TestOutputMatchesBenchmarkJSON: the workloads, and the metrics each
// mode prints, are exactly the ones BENCHMARK.json declares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark implements %d workloads", names, len(workloads))
	}
	w, _ := workloadByName("fleet-steal")
	res, err := runUntraced(w, 3, time.Duration(testSeconds*float64(time.Second)), testSteps)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res.Metrics, spec.EndToEnd)
	res, err = runTraced(w, 3, 2*time.Duration(testSeconds*float64(time.Second)), testSteps)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res.Metrics, spec.PerLayer)
}
