package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/cluster"
	"msrnet/internal/netgen"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/rctree"
	"msrnet/internal/service"
	"msrnet/internal/topo"
)

// Workload shapes. The pin counts and batch sizes are chosen so a 30 s
// run carries well over 1000 requests on a 2-core machine even when its
// CPUs are shared, which gives latency_p99_ms at least ten samples
// beyond it; the DP's solve time grows steeply with pin count (footnote
// 13), so larger nets would leave p99 unmeasurable.
const (
	// clients is the number of load-generating goroutines, each with
	// its own single-connection HTTP transport.
	clients = 2

	// dpPins is the size of every dp-solve net. One size keeps the
	// latency tail set by the spread of solve times within a size, not
	// by the few largest nets of a mix (footnote 13).
	dpPins = 5
	// dpPlanNets is the number of nets dp-solve generates. The closed
	// loop cycles through them as long as the run lasts; a net comes
	// back only after dpPlanNets-1 others, far more than the daemon's
	// 512-entry cache holds, so every request still misses the cache.
	dpPlanNets = 4096

	fleetSize = 3
	fleetPins = 5
	// fleetBatch is the jobs per batch.
	fleetBatch = 4
	// fleetPlanBatches is the number of batches fleet-steal generates,
	// cycled like dp-solve's nets. Each member caches the nets it owns,
	// about a third of fleetPlanBatches*fleetBatch, so a net has left
	// every cache before the loop returns to it.
	fleetPlanBatches = 1024
	// fleetSmallQueue is member 0's queue depth (msrnetd -queue): less
	// than a batch, so every batch of new nets entering member 0 is
	// work-stolen by a peer. fleetQueue, the other members' depth, holds
	// both clients' batches at once, so they never overflow.
	fleetSmallQueue = fleetBatch - 1
	fleetQueue      = clients * fleetBatch
)

// fleetTenants are the fleet's tenants: different fair-share weights,
// no quotas, so admission and stride dispatch run without refusing.
var fleetTenants = []service.TenantConfig{
	{Name: "heavy", APIKey: "key-heavy", Weight: 3},
	{Name: "light", APIKey: "key-light", Weight: 1},
}

// input is one generated net plus what verification needs about it.
type input struct {
	file netio.NetFile
	// ard is the ARD of the unoptimized net, computed in setup by a
	// direct ard.Compute; the expected answer of a "both" job's ard half.
	ard float64
}

// request is one HTTP submission.
type request struct {
	body   []byte
	entry  int    // index of the daemon it is sent to
	apiKey string // X-Msrnet-Api-Key, "" on single-tenant daemons
	mode   string // job mode of every job in the body
	nets   []int  // input index of each job, in body order
	// first marks a request that carries nets no earlier request
	// carried (the cache-miss path).
	first bool
}

// plan is a workload's generated inputs and load schedule: steps are
// the closed loop's units of work; a client runs one step's requests in
// order, then takes the next step.
type plan struct {
	inputs []input
	steps  [][]request
}

// workload is one named traffic mix.
type workload struct {
	name  string
	build func(seed int64) (*plan, error)
	start func() (ds []*daemon, dir string, err error)
	wal   bool // the daemons run with a write-ahead job log
	// heapStep is the step before which mem_retained_mb is read: early
	// enough that every 30 s run reaches it on a loaded 2-core machine,
	// late enough that the caches and rings have filled.
	heapStep int
}

var workloads = []workload{
	{name: "dp-solve", build: buildDPSolve, start: startSingle, heapStep: 2000},
	{name: "fleet-steal", build: buildFleetSteal, start: startFleetSteal, wal: true, heapStep: 500},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// startSingle starts one daemon with no deployment flags.
func startSingle() ([]*daemon, string, error) {
	d, err := startDaemon(daemonOpts{})
	if err != nil {
		return nil, "", err
	}
	return []*daemon{d}, "", nil
}

// startFleetSteal starts the fleet, each member with its own WAL
// directory and the two tenants.
func startFleetSteal() ([]*daemon, string, error) {
	dir, err := tempDir("fleet-")
	if err != nil {
		return nil, "", err
	}
	ds, err := startFleet(fleetSize, func(i int, node *cluster.Node, reg *obs.Registry) daemonOpts {
		queue := fleetQueue
		if i == 0 {
			queue = fleetSmallQueue
		}
		return daemonOpts{node: node, reg: reg, queue: queue, tenants: fleetTenants,
			walDir: filepath.Join(dir, fmt.Sprintf("wal-%d", i))}
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return ds, dir, nil
}

// netSeed derives the netgen seed of input i from the run seed.
func netSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// genNet generates one default-technology net.
func genNet(seed int64, pins int, name string) (netio.NetFile, error) {
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		return netio.NetFile{}, err
	}
	return netio.Encode(name, tr, buslib.Default()), nil
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallelFor(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobBody marshals a msrnet-job/v1 request of one job per net.
func jobBody(mode string, files ...netio.NetFile) ([]byte, error) {
	req := service.Request{Version: service.SchemaVersion}
	for i, f := range files {
		req.Jobs = append(req.Jobs, service.Job{ID: fmt.Sprintf("j%d", i), Mode: mode, Net: f})
	}
	return json.Marshal(&req)
}

// buildDPSolve: a closed loop of single msri jobs, each on a net the
// cache no longer holds, so every request runs the DP.
func buildDPSolve(seed int64) (*plan, error) {
	n := dpPlanNets
	p := &plan{inputs: make([]input, n), steps: make([][]request, n)}
	err := parallelFor(n, func(i int) error {
		f, err := genNet(netSeed(seed, i), dpPins, fmt.Sprintf("dp-%d-%d", seed, i))
		if err != nil {
			return err
		}
		body, err := jobBody("msri", f)
		if err != nil {
			return err
		}
		p.inputs[i] = input{file: f}
		p.steps[i] = []request{{body: body, mode: "msri", nets: []int{i}, first: true}}
		return nil
	})
	return p, err
}

// buildFleetSteal: closed-loop triples of batches of "both" jobs (ARD
// plus the DP). A step sends a batch of new nets through one entry
// daemon, then the same batch through each of the other two, so the
// later sends are cache hits — remote unless their entry owns the net.
// Two hits per miss put latency_p50_ms on the cache-hit path; with one
// of each it would fall on the boundary between the hit and the miss
// latencies and jump between them from run to run. A batch of new nets
// entering member 0 is work-stolen (see fleetSmallQueue); the first
// entries are drawn at random, so about a third of the first sends
// are. Each step belongs to one of the two tenants, drawn at random.
func buildFleetSteal(seed int64) (*plan, error) {
	n := fleetPlanBatches
	p := &plan{inputs: make([]input, n*fleetBatch), steps: make([][]request, n)}
	err := parallelFor(n, func(k int) error {
		r := rand.New(rand.NewSource(netSeed(seed, k)))
		files := make([]netio.NetFile, fleetBatch)
		nets := make([]int, fleetBatch)
		for j := range files {
			i := k*fleetBatch + j
			f, err := genNet(r.Int63(), fleetPins, fmt.Sprintf("fleet-%d-%d", seed, i))
			if err != nil {
				return err
			}
			tr, tech, err := netio.Decode(f)
			if err != nil {
				return err
			}
			files[j], nets[j] = f, i
			p.inputs[i] = input{file: f, ard: directARD(tr, tech, rctree.Assignment{})}
		}
		body, err := jobBody("both", files...)
		if err != nil {
			return err
		}
		// The three sends go through the three members, first one in
		// random order.
		e1 := r.Intn(fleetSize)
		e2 := (e1 + 1 + r.Intn(fleetSize-1)) % fleetSize
		key := fleetTenants[r.Intn(len(fleetTenants))].APIKey
		p.steps[k] = []request{
			{body: body, entry: e1, apiKey: key, mode: "both", nets: nets, first: true},
			{body: body, entry: e2, apiKey: key, mode: "both", nets: nets},
			{body: body, entry: 3 - e1 - e2, apiKey: key, mode: "both", nets: nets},
		}
		return nil
	})
	return p, err
}

// directARD evaluates the ARD of a net under an assignment, rooted
// where msrnetd roots it (the ARD is root-invariant either way).
func directARD(tr *topo.Tree, tech buslib.Tech, asg rctree.Assignment) float64 {
	rt := tr.RootAt(tr.Terminals()[0])
	return ard.Compute(rctree.NewNet(rt, tech, asg), ard.Options{}).ARD
}
