package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	presto "repro"
	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/httpapi"
	"repro/internal/optimizer"
	"repro/internal/serving"
	"repro/internal/spill"
)

// Every cluster the benchmark measures has this shape: the box it is tuned
// for has two cores, and the load generator shares them with the engine.
const (
	benchWorkers = 2
	benchThreads = 1
)

// opDeadline bounds one statement. A statement that passes it is cancelled
// and counted as failed.
const opDeadline = 10 * time.Second

// engine is one deployment of the program under test, reduced to what the
// benchmark calls: the coordinator (statements, stats, planning replay) and
// the workers (page-cache counters).
type engine struct {
	coord   *coordinator.Coordinator
	workers []*exec.Worker
	// transport counts coordinator<->worker HTTP traffic; nil in-process.
	transport *countingTransport
	closers   []func()
}

func (e *engine) Close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

func (e *engine) pageCacheStats() cache.Stats {
	var total cache.Stats
	for _, w := range e.workers {
		s := w.CacheStats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
	}
	return total
}

// newLocalEngine starts an in-process cluster of the benchmark's shape over
// the given connectors. cfg carries only what a workload changes from the
// shipped defaults.
func newLocalEngine(cfg presto.ClusterConfig, conns ...connector.Connector) *engine {
	cfg.Workers, cfg.ThreadsPerWorker = benchWorkers, benchThreads
	c := presto.NewCluster(cfg)
	for _, conn := range conns {
		c.Register(conn)
	}
	return &engine{coord: c.Coordinator, workers: c.Workers(), closers: []func(){c.Close}}
}

// newOracle starts the reference engine: one single-threaded worker running
// the tree-walking interpreter with every kernel, scheduler feature and cache
// of the measured configuration switched off. It shares the measured
// engine's connector objects, so both read the same data.
func newOracle(conns ...connector.Connector) *engine {
	c := presto.NewCluster(presto.ClusterConfig{
		Workers: 1, ThreadsPerWorker: 1,
		Interpreted:              true,
		DisableVectorKernels:     true,
		DisableVectorProjections: true,
		DisableMorsels:           true,
		DisableDynamicFilters:    true,
		DisablePlanCache:         true,
		DisableResultCache:       true,
		DisableSharedScans:       true,
		PageCacheBytes:           -1,
		MetadataCacheTTL:         -1,
	})
	for _, conn := range conns {
		c.Register(conn)
	}
	return &engine{coord: c.Coordinator, workers: c.Workers(), closers: []func(){c.Close}}
}

// reference returns the oracle's rows for sql.
func (e *engine) reference(sql string) ([][]cell, error) {
	r := e.run(sql)
	return r.rows, r.err
}

// countingTransport counts the requests and bytes that cross the loopback
// between coordinator and workers (and between workers, for shuffles).
type countingTransport struct {
	base     *http.Transport
	requests atomic.Int64
	bytes    atomic.Int64
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b countingBody) Close() error { return b.rc.Close() }

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{rc: resp.Body, n: &t.bytes}
	return resp, nil
}

// newHTTPEngine starts the HTTP-distributed deployment on loopback: workers
// behind the task API on httptest servers, and a coordinator that knows them
// only by URL, all sharing one transport (wired as newDistCluster in
// distributed_test.go). The coordinator gets the same plan cache an
// in-process cluster has by default, so join_http differs from join_local
// only by what crosses the wire.
func newHTTPEngine(conns ...connector.Connector) *engine {
	catalog := coordinator.NewCatalogManager()
	for _, conn := range conns {
		catalog.Register(conn)
	}
	reg := coordinator.NewWorkerRegistry()
	reg.TTL = time.Hour // registration at construction stands in for heartbeats

	base := &http.Transport{}
	e := &engine{transport: &countingTransport{base: base}}
	client := &http.Client{Transport: e.transport}
	for i := 0; i < benchWorkers; i++ {
		w := exec.NewWorker(i, catalog, exec.WorkerConfig{Threads: benchThreads})
		ws := httpapi.NewWorkerServer(w, catalog)
		ws.Client = client
		ts := httptest.NewServer(ws.Handler())
		reg.Register(ts.URL)
		e.workers = append(e.workers, w)
		e.closers = append(e.closers, func() { ts.Close(); ws.Close(); w.Close() })
	}
	e.closers = append(e.closers, base.CloseIdleConnections)
	e.coord = coordinator.New(catalog, nil, coordinator.Config{
		Optimizer:    optimizer.DefaultConfig(),
		Registry:     reg,
		WorkerClient: client,
		Serving:      &serving.Tier{Plans: serving.NewPlanCache(serving.PlanCacheConfig{})},
	})
	return e
}

// opResult is one statement as the client saw it.
type opResult struct {
	start, executed, firstPage, end time.Time
	queryID                         string
	rows                            [][]cell
	err                             error
	// spill is what the process-wide spill counters moved by while the
	// statement ran (exact when statements run one at a time).
	spill spill.Stats
}

func (r *opResult) latency() time.Duration { return r.end.Sub(r.start) }

var errDeadline = errors.New("statement passed its deadline and was cancelled")

// run submits sql with the default session (every statement names its tables
// in full) and drains the result: the latency is submit to last row.
// The deadline covers admission through ctx and the running query through
// Result.Close, which cancels it.
func (e *engine) run(sql string) (r opResult) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	spillBefore := spill.CurrentStats()
	defer func() {
		after := spill.CurrentStats()
		r.spill = spill.Stats{
			FilesCreated: after.FilesCreated - spillBefore.FilesCreated,
			BytesWritten: after.BytesWritten - spillBefore.BytesWritten,
			BytesRead:    after.BytesRead - spillBefore.BytesRead,
		}
	}()
	r.start = time.Now()
	res, err := e.coord.ExecuteCtx(ctx, sql, coordinator.Session{})
	r.executed = time.Now()
	if err != nil {
		r.firstPage, r.end, r.err = r.executed, r.executed, err
		if ctx.Err() != nil {
			r.err = errDeadline
		}
		return r
	}
	r.queryID = res.QueryID
	var expired atomic.Bool
	watchdog := time.AfterFunc(time.Until(r.start.Add(opDeadline)), func() {
		expired.Store(true)
		res.Close()
	})
	defer watchdog.Stop()
	for {
		p, err := res.NextPage()
		if r.firstPage.IsZero() {
			r.firstPage = time.Now()
		}
		if err != nil {
			r.err = err
			if expired.Load() {
				r.err = errDeadline
			}
			break
		}
		if p == nil {
			break
		}
		for i := 0; i < p.RowCount(); i++ {
			row := p.Row(i)
			cells := make([]cell, len(row))
			for j, v := range row {
				cells[j] = cellOf(v)
			}
			r.rows = append(r.rows, cells)
		}
	}
	r.end = time.Now()
	return r
}
