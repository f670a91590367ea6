package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"time"

	"msrnet/internal/cluster"
	"msrnet/internal/jobstore"
	"msrnet/internal/obs"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
	"msrnet/internal/obs/trace"
	"msrnet/internal/service"
)

// daemon is one in-process msrnetd: the service.Daemon with the
// observability surface cmd/msrnetd builds by default, served over
// loopback HTTP.
type daemon struct {
	url   string
	reg   *obs.Registry
	spans *spans.Index
	rec   *recorder.FlightRecorder
	store *jobstore.Store
	srv   *service.HTTPServer
}

// daemonOpts are the per-workload deviations from msrnetd's defaults:
// the flags a deployment would pass (-wal-dir, -tenants, -cluster-*).
type daemonOpts struct {
	walDir  string
	tenants []service.TenantConfig
	node    *cluster.Node
	reg     *obs.Registry // required when node is set: the node shares it
	queue   int           // -queue; 0 keeps the default 4×workers
}

// quietLogger formats every line like msrnetd's stderr logger does, so
// logging costs what it costs in production, but discards the output.
func quietLogger() *slog.Logger {
	return reqctx.Logger(slog.NewTextHandler(io.Discard, nil))
}

// startDaemon builds a daemon exactly as cmd/msrnetd does with its
// default flags — a registry with runtime sampling, an always-on ring
// tracer, a started flight recorder, a span index, a 512-entry cache, a
// 30 s job timeout and GOMAXPROCS workers — and serves it on a fresh
// loopback port.
func startDaemon(o daemonOpts) (*daemon, error) {
	logger := quietLogger()
	reg := o.reg
	if reg == nil {
		reg = obs.New()
	}
	reg.EnableRuntime()
	tracer := trace.New(0)
	rec := recorder.New(recorder.Config{Reg: reg, Tracer: tracer, Logger: logger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	process := "msrnetd@" + ln.Addr().String()
	if o.node != nil {
		process = string(o.node.Self().ID)
	}
	idx := spans.NewIndex(spans.Options{Process: process})
	rec.SetSpans(func() any { return idx.Dump() })
	var store *jobstore.Store
	if o.walDir != "" {
		store, _, err = jobstore.Open(jobstore.Options{Dir: o.walDir, Reg: reg, Spans: idx, Logger: logger})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("open wal: %w", err)
		}
	}
	d := service.New(service.Config{
		QueueDepth: o.queue,
		JobTimeout: 30 * time.Second,
		CacheSize:  512,
		Reg:        reg,
		Logger:     logger,
		Tracer:     tracer,
		Recorder:   rec,
		Cluster:    o.node,
		Tenants:    o.tenants,
		Store:      store,
		Spans:      idx,
	})
	rec.Start()
	srv := service.ServeListener(ln, d, logger)
	return &daemon{url: "http://" + ln.Addr().String(), reg: reg, spans: idx,
		rec: rec, store: store, srv: srv}, nil
}

// stop drains the daemon the way msrnetd's SIGTERM path does and
// releases the WAL.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.rec.Stop()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// fleetID names fleet member i; it is both the cluster identity and the
// in-memory transport address.
func fleetID(i int) cluster.ID { return cluster.ID(fmt.Sprintf("node-%d", i)) }

// startFleet builds n clustered daemons on one in-memory transport,
// member i configured by opts, seeded in a ring so membership must
// spread by gossip, then ticks gossip by hand until every member sees
// all n and freezes it: no gossip loop runs during the measurement, so
// routing and stealing targets stay fixed.
func startFleet(n int, opts func(i int, node *cluster.Node, reg *obs.Registry) daemonOpts) ([]*daemon, error) {
	tr := cluster.NewMemTransport()
	var ds []*daemon
	var nodes []*cluster.Node
	fail := func(err error) ([]*daemon, error) {
		for _, d := range ds {
			d.stop()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		reg := obs.New()
		next := fleetID((i + 1) % n)
		node := cluster.NewNode(cluster.Config{
			Self:      cluster.Peer{ID: fleetID(i), Addr: string(fleetID(i))},
			Seeds:     []cluster.Peer{{ID: next, Addr: string(next)}},
			Params:    cluster.Params{ViewSize: 8, Fanout: 2},
			Transport: tr,
			Seed:      int64(i + 1),
			Epoch:     int64(i+1) * 1000,
			Reg:       reg,
			Logger:    quietLogger(),
		})
		d, err := startDaemon(opts(i, node, reg))
		if err != nil {
			return fail(err)
		}
		tr.Add(node) // after startDaemon: service.New installs the node's handler
		ds = append(ds, d)
		nodes = append(nodes, node)
	}
	for round := 0; ; round++ {
		if round == 50 {
			return fail(fmt.Errorf("fleet gossip did not converge on %d members in %d rounds", n, round))
		}
		for _, node := range nodes {
			node.Tick()
		}
		converged := true
		for _, node := range nodes {
			converged = converged && len(node.Members()) == n
		}
		if converged {
			return ds, nil
		}
	}
}

// tempDir makes a scratch directory under the build directory, inside
// the checkout the benchmark runs from.
func tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, pattern)
}
