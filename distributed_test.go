package presto

// Distributed-mode tests: a coordinator with zero local workers drives real
// worker processes over loopback HTTP — serialized fragments, encoded split
// batches, and the binary-page shuffle protocol (paper §III, §IV-E2). The
// suite is differential: every query must return exactly what the embedded
// in-process engine returns, cold and warm, with and without injected
// transport faults.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// distCluster is a multi-node deployment inside one test binary: N
// exec.Workers served by httptest servers behind the worker task API, and a
// coordinator that knows them only by URL. The catalog manager is shared
// across nodes, standing in for the shared external storage a real
// deployment reads.
type distCluster struct {
	Coord   *coordinator.Coordinator
	catalog *coordinator.CatalogManager
	mem     *memconn.Connector
	workers []*exec.Worker
	servers []*httpapi.WorkerServer
	// transport is shared by coordinator and workers so tests can drop idle
	// connections when counting goroutines.
	transport *http.Transport
}

func newDistCluster(t *testing.T, n int, inj *faultinject.Injector) *distCluster {
	t.Helper()
	return newDistClusterWith(t, n, distConfig{inj: inj})
}

// distSpillConfig caps each worker's per-node user memory and points spill
// at a directory, for the distributed larger-than-memory differential.
type distSpillConfig struct {
	dir        string
	perNodeCap int64
}

func newDistClusterSpill(t *testing.T, n int, inj *faultinject.Injector, sp *distSpillConfig) *distCluster {
	t.Helper()
	return newDistClusterWith(t, n, distConfig{inj: inj, spill: sp})
}

// distConfig is everything a test may vary about a distCluster.
type distConfig struct {
	inj   *faultinject.Injector
	spill *distSpillConfig
	// task is the coordinator's base task config (spill fields are filled
	// from spill).
	task exec.TaskConfig
	// wrap, when set, interposes on worker i's task-API handler.
	wrap func(i int, h http.Handler) http.Handler
	// broadcastRows overrides the optimizer's broadcast-join threshold
	// (1 forces partitioned joins).
	broadcastRows int64
	// observe, when set, sees every request the coordinator and the workers
	// send (the cluster's one client), retries included.
	observe func(*http.Request)
}

// observedTransport reports each request before sending it.
type observedTransport struct {
	base    http.RoundTripper
	observe func(*http.Request)
}

func (o observedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	o.observe(r)
	return o.base.RoundTrip(r)
}

func newDistClusterWith(t *testing.T, n int, dc distConfig) *distCluster {
	t.Helper()
	inj, sp := dc.inj, dc.spill
	catalog := coordinator.NewCatalogManager()
	mem := memconn.New("memory")
	catalog.Register(mem)
	reg := coordinator.NewWorkerRegistry()
	reg.TTL = time.Hour // registration at construction stands in for heartbeats

	d := &distCluster{catalog: catalog, mem: mem, transport: &http.Transport{}}
	client := &http.Client{Transport: d.transport}
	if dc.observe != nil {
		client.Transport = observedTransport{d.transport, dc.observe}
	}
	wcfg := exec.WorkerConfig{Threads: 2}
	if sp != nil {
		wcfg.Task = exec.TaskConfig{SpillEnabled: true, SpillDir: sp.dir}
	}
	for i := 0; i < n; i++ {
		w := exec.NewWorker(i, catalog, wcfg)
		ws := httpapi.NewWorkerServer(w, catalog)
		ws.Inject = inj
		ws.Client = client
		if sp != nil {
			ws.Limits = memory.QueryLimits{PerNodeUser: sp.perNodeCap, SpillEnabled: true}
		}
		h := ws.Handler()
		if dc.wrap != nil {
			h = dc.wrap(i, h)
		}
		ts := httptest.NewServer(h)
		reg.Register(ts.URL)
		d.workers = append(d.workers, w)
		d.servers = append(d.servers, ws)
		t.Cleanup(func() { ts.Close(); ws.Close(); w.Close() })
	}
	ccfg := coordinator.Config{
		Optimizer:    optimizer.DefaultConfig(),
		Registry:     reg,
		WorkerClient: client,
		Task:         dc.task,
		FaultInject:  inj, // rules are per site: the workers' HTTP faults never fire here
	}
	if dc.broadcastRows != 0 {
		ccfg.Optimizer.BroadcastThresholdRows = dc.broadcastRows
	}
	if sp != nil {
		ccfg.Task.SpillEnabled, ccfg.Task.SpillDir = true, sp.dir
		ccfg.MemoryLimits = memory.QueryLimits{PerNodeUser: sp.perNodeCap, SpillEnabled: true}
	}
	d.Coord = coordinator.New(catalog, nil, ccfg)
	// Registered last, so it runs before the workers close: a query that has
	// ended — drained, failed or cancelled — has been deleted on every worker.
	t.Cleanup(func() {
		for i, ws := range d.servers {
			if ids := ws.TaskIDs(); len(ids) != 0 && !t.Failed() {
				t.Errorf("worker %d still holds tasks %v after the test's queries ended", i, ids)
			}
		}
	})
	return d
}

func (d *distCluster) Query(sql string) ([][]Value, error) {
	res, err := d.Coord.Execute(sql, Session{})
	if err != nil {
		return nil, err
	}
	return res.All()
}

func (d *distCluster) mustQuery(t *testing.T, sql string) [][]Value {
	t.Helper()
	rows, err := d.Query(sql)
	if err != nil {
		t.Fatalf("distributed %q: %v", sql, err)
	}
	return rows
}

func (d *distCluster) cacheHits() int64 {
	var hits int64
	for _, w := range d.workers {
		hits += w.CacheStats().Hits
	}
	return hits
}

// loadRefTable creates a refRow table in the distributed cluster's shared
// catalog through the connector API directly (standing in for shared external
// storage): SQL writes into the process-local memory catalog are rejected in
// distributed mode.
func (d *distCluster) loadRefTable(t *testing.T, table string, rows []refRow) {
	t.Helper()
	if err := d.mem.CreateTable(table, []connector.Column{
		{Name: "k", T: types.Bigint},
		{Name: "v", T: types.Bigint},
		{Name: "s", T: types.Varchar},
	}); err != nil {
		t.Fatalf("create %s: %v", table, err)
	}
	vals := make([][]types.Value, len(rows))
	for i, r := range rows {
		v := types.BigintValue(r.v)
		if r.null {
			v = types.NullValue(types.Bigint)
		}
		vals[i] = []types.Value{types.BigintValue(r.k), v, types.VarcharValue(r.s)}
	}
	if err := d.mem.AppendRows(table, vals); err != nil {
		t.Fatalf("load %s: %v", table, err)
	}
}

// tableDDL builds the CREATE + INSERT statements for a refRow table, so the
// reference and distributed clusters load byte-identical data.
func tableDDL(table string, rows []refRow) []string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s SELECT * FROM (VALUES ", table)
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		v := fmt.Sprint(r.v)
		if r.null {
			v = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, '%s')", r.k, v, r.s)
	}
	sb.WriteString(")")
	return []string{
		fmt.Sprintf("CREATE TABLE %s (k BIGINT, v BIGINT, s VARCHAR)", table),
		sb.String(),
	}
}

// stringifyOrdered is stringifyRows without the sort, for ORDER BY results.
func stringifyOrdered(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// distDiffQueries cover the fragment shapes the wire codec and HTTP shuffle
// must carry: filtered scans, multi-stage grouped aggregation, repartitioned
// and semi joins, distinct, union, windows, and global sorts.
var distDiffQueries = []struct {
	sql     string
	ordered bool
}{
	{"SELECT count(*) FROM d WHERE k BETWEEN 3 AND 12 AND (v > 0 OR s = 'aa')", false},
	{"SELECT s, count(*), count(v), sum(v), min(v), max(v) FROM d GROUP BY s", false},
	{"SELECT count(*) FROM d JOIN e ON d.k = e.k", false},
	{"SELECT d.s, count(*), sum(e.v) FROM d JOIN e ON d.k = e.k GROUP BY d.s", false},
	{"SELECT count(*) FROM d WHERE k IN (SELECT k FROM e WHERE v > 0)", false},
	{"SELECT DISTINCT s FROM d", false},
	{"SELECT count(*) FROM (SELECT k FROM d UNION ALL SELECT k FROM e)", false},
	{"SELECT s, v, row_number() OVER (PARTITION BY s ORDER BY v, k) FROM d WHERE v IS NOT NULL", false},
	{"SELECT v FROM d WHERE v IS NOT NULL ORDER BY v DESC, k LIMIT 10", true},
}

// TestDistributedDifferential runs every query through the in-process engine
// and through the HTTP-distributed cluster, cold and warm; all four row sets
// must agree, and the warm distributed runs must have hit the worker page
// caches.
func TestDistributedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	left := randomRows(r, 200)
	right := randomRows(r, 80)

	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(ref.Close)
	d := newDistCluster(t, 2, nil)
	for _, ddl := range append(tableDDL("d", left), tableDDL("e", right)...) {
		mustExec(t, ref, ddl)
	}
	// The distributed cluster loads identical rows through the connector API
	// directly — its shared catalog stands in for external storage; SQL
	// writes into the process-local memory catalog are rejected in
	// distributed mode (see TestDistributedRejectsLocalWrites).
	d.loadRefTable(t, "d", left)
	d.loadRefTable(t, "e", right)
	coldCatalog(t, d.catalog, "memory")

	for _, q := range distDiffQueries {
		want := stringifyRows(mustExec(t, ref, q.sql))
		cold := d.mustQuery(t, q.sql)
		warm := d.mustQuery(t, q.sql)
		if q.ordered {
			assertRows(t, q.sql+" [cold]", stringifyOrdered(cold), stringifyOrdered(mustExec(t, ref, q.sql)))
			assertRows(t, q.sql+" [warm]", stringifyOrdered(warm), stringifyOrdered(cold))
			continue
		}
		assertRows(t, q.sql+" [cold]", stringifyRows(cold), want)
		assertRows(t, q.sql+" [warm]", stringifyRows(warm), want)
	}
	if hits := d.cacheHits(); hits == 0 {
		t.Errorf("warm distributed runs recorded no worker page-cache hits")
	}
}

// TestDistributedNonFiniteDoubles: NaN, ±Infinity and −0.0 reach HTTP
// workers everywhere a double constant travels in a fragment, in a projection
// and in a join, and the rows come back bit for bit what the in-process
// engine returns. SQL makes a non-finite constant only in VALUES rows; in a
// predicate's constant and a pushed-down domain point it can make −0.0, and
// the first predicate below keeps its rows only if the sign arrives. (The
// wire tests carry NaN and ±Infinity in those two places too.)
func TestDistributedNonFiniteDoubles(t *testing.T) {
	const special = "(VALUES (1, CAST('NaN' AS DOUBLE)), (2, CAST('Infinity' AS DOUBLE))," +
		" (3, CAST('-Infinity' AS DOUBLE)), (4, CAST('-0.0' AS DOUBLE)), (5, 1.5))"
	lake := func() *memconn.Connector {
		c := memconn.New("lake")
		if err := c.CreateTable("f", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "x", T: types.Double}}); err != nil {
			t.Fatal(err)
		}
		var rows [][]types.Value
		for k, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5} {
			rows = append(rows, []types.Value{types.BigintValue(int64(k + 1)), types.DoubleValue(x)})
		}
		if err := c.AppendRows("f", rows); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(ref.Close)
	ref.Register(lake())
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(lake())

	bits := func(rows [][]Value) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			for _, v := range row {
				out[i] += fmt.Sprintf("%s/%t/%d/%016x|", v.T, v.Null, v.I, math.Float64bits(v.F))
			}
		}
		sort.Strings(out)
		return out
	}
	for _, sql := range []string{
		"SELECT k, x FROM " + special + " t(k, x)",
		"SELECT k, x FROM lake.f WHERE CAST(-0.0 AS VARCHAR) = '-0'",
		"SELECT k, x FROM lake.f WHERE x = -0.0",
		"SELECT f.k, f.x, t.y FROM lake.f JOIN " + special + " t(k, y) ON f.k = t.k",
	} {
		want := mustExec(t, ref, sql)
		if len(want) == 0 {
			t.Fatalf("%s: no rows in process", sql)
		}
		assertRows(t, sql, bits(d.mustQuery(t, sql)), bits(want))
	}
}

// TestDistributedRejectsLocalWrites is the regression test for writes into
// process-local catalogs under remote scheduling: a CREATE TABLE AS or INSERT
// into the memory catalog would land rows in one worker's private storage,
// invisible (or inconsistent) everywhere else. The coordinator must reject the
// statement up front with an actionable error instead of "succeeding" with
// lost rows. Plain CREATE TABLE (a pure-metadata DDL) is rejected too: a
// table that can never be written to in this mode is a trap.
func TestDistributedRejectsLocalWrites(t *testing.T) {
	d := newDistCluster(t, 2, nil)
	d.loadRefTable(t, "src", randomRows(rand.New(rand.NewSource(7)), 20))

	for _, sql := range []string{
		"CREATE TABLE sink (k BIGINT)",
		"CREATE TABLE sink AS SELECT k FROM src",
		"INSERT INTO src SELECT * FROM src",
	} {
		_, err := d.Query(sql)
		if err == nil {
			t.Fatalf("%q succeeded in distributed mode against the process-local memory catalog", sql)
		}
		if !strings.Contains(err.Error(), "does not support writes in distributed mode") {
			t.Errorf("%q: unhelpful error %q", sql, err)
		}
	}

	// Reads are unaffected, and the failed writes left no phantom table.
	if got := len(d.mustQuery(t, "SELECT * FROM src")); got != 20 {
		t.Errorf("src has %d rows after rejected writes, want 20", got)
	}
	if _, err := d.Query("SELECT * FROM sink"); err == nil {
		t.Error("phantom table sink exists after rejected CREATE")
	}
}

// TestDistributedTPCHSmoke cross-checks the TPC-H chaos queries between the
// embedded baseline and a two-worker distributed cluster (the smoke run
// wired into scripts/check.sh).
func TestDistributedTPCHSmoke(t *testing.T) {
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	base := baselineRows(t)
	for _, q := range chaosQueries {
		assertRows(t, q, stringifyRows(d.mustQuery(t, q)), base[q])
	}
}

// TestDistributedDisableSharedScans: session toggles reach HTTP workers
// through the same Session→TaskConfig mapping as embedded tasks, so a query
// under DisableSharedScans opens no shared scan on any worker's hub.
func TestDistributedDisableSharedScans(t *testing.T) {
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	coldCatalog(t, d.catalog, "tpch")
	hubScans := func() int64 {
		var n int64
		for _, w := range d.workers {
			n += w.Shared.Stats().Scans
		}
		return n
	}
	run := func(s Session) {
		t.Helper()
		res, err := d.Coord.Execute("SELECT count(*) FROM tpch.orders", s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
	}
	// DisableCache keeps the page cache from answering the control run
	// before it reaches the hub.
	run(Session{Switches: exec.DisableSharedScans | exec.DisableCache})
	if n := hubScans(); n != 0 {
		t.Fatalf("query under DisableSharedScans opened %d shared scans on remote workers", n)
	}
	run(Session{Switches: exec.DisableCache})
	if hubScans() == 0 {
		t.Fatal("control: a default session opened no shared scan, so the check above proves nothing")
	}
}

// TestDistributedMetricsAggregation checks that one coordinator scrape
// covers the cluster: /v1/metrics must proxy every registered worker's
// gauges alongside the coordinator's own.
func TestDistributedMetricsAggregation(t *testing.T) {
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", 0.01))
	d.mustQuery(t, "SELECT count(*) FROM tpch.region")

	srv := httptest.NewServer(httpapi.NewServer(d.Coord).Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`presto_executor_utilization{worker="0"}`,
		`presto_executor_utilization{worker="1"}`,
		"presto_metadata_cache_hits_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics scrape missing %s", want)
		}
	}
}

// TestChaosHTTPTransportFaultsMasked injects dropped connections, truncated
// responses, and stalls into every worker HTTP response; the retry protocol
// (create batches idempotent by task id, sequenced split delivery, versioned
// status, token-acknowledged fetches, idempotent deletes) must mask all of it
// and return exactly the baseline rows.
func TestChaosHTTPTransportFaultsMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t),
		faultinject.Rule{Site: faultinject.SiteHTTPDrop, Kind: faultinject.KindError, Rate: 0.03, Transient: true},
		faultinject.Rule{Site: faultinject.SiteHTTPTruncate, Kind: faultinject.KindError, Rate: 0.03, Transient: true},
		faultinject.Rule{Site: faultinject.SiteHTTPDelay, Kind: faultinject.KindDelay, Rate: 0.05, Delay: 2 * time.Millisecond},
	)
	d := newDistCluster(t, 2, inj)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	base := baselineRows(t)
	for _, q := range chaosQueries {
		rows, err := d.Query(q)
		if err != nil {
			t.Fatalf("%s under transport faults: %v", q, err)
		}
		assertRows(t, q, stringifyRows(rows), base[q])
	}
}

// TestChaosHTTPHardFaultAborts turns the network off mid-query (every
// request dropped after the first 10, which is enough for both workers'
// create batches to land): the query must fail with a clear error, and
// coordinator-side goroutines and worker-side resources must wind down — no
// leaked status channels, pumps, or buffered pages.
func TestChaosHTTPHardFaultAborts(t *testing.T) {
	inj := faultinject.New(chaosSeed(t),
		faultinject.Rule{Site: faultinject.SiteHTTPDrop, Kind: faultinject.KindError, Rate: 1, After: 10})
	d := newDistCluster(t, 2, inj)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	goroutines := runtime.NumGoroutine()

	_, err := d.Query(chaosQueries[3])
	if err == nil {
		t.Fatal("query survived a dead network")
	}

	// The coordinator's DELETEs were dropped with everything else (each is
	// logged and counted), so the worker maps still hold orphaned tasks —
	// parked on split batches and fetches that can no longer arrive. Close
	// (the worker-shutdown path)
	// aborts them; after that, every goroutine on both sides of the wire
	// must exit (idle HTTP connections are closed explicitly so their read
	// loops don't count).
	var orphaned []string
	for _, ws := range d.servers {
		orphaned = append(orphaned, ws.TaskIDs()...)
		ws.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.transport.CloseIdleConnections()
		if g := runtime.NumGoroutine(); g <= goroutines+5 {
			break
		}
		if time.Now().After(deadline) {
			var live []int
			for _, w := range d.workers {
				live = append(live, w.TaskCount())
			}
			t.Fatalf("goroutines leaked after hard fault: %d (baseline %d); orphaned=%v live=%v",
				runtime.NumGoroutine(), goroutines, orphaned, live)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Abort must also have released every buffered page back to the pools.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var pooled int64
		for _, w := range d.workers {
			pooled += w.Pool.GeneralUsed() - w.CacheStats().Bytes
		}
		if pooled <= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker pools hold %d bytes after abort", pooled)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStatementCancelRacesLongPoll is the regression test for the Close
// deadlock: DELETE /v1/statement/{id} while a request is blocked inside
// Result.NextPage's long-poll must cancel promptly, not wait for the fetch
// to produce data. The connector is stalled so the first page is 1.5s away;
// the DELETE must return in a fraction of that, and the blocked request must
// then fail with the cancellation error.
func TestStatementCancelRacesLongPoll(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteConnectorNextBatch, Kind: faultinject.KindDelay,
		Rate: 1, Delay: 1500 * time.Millisecond,
	})
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, FaultInjector: inj})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", 0.01))
	srv := httptest.NewServer(httpapi.NewServer(c.Coordinator).Handler())
	t.Cleanup(srv.Close)

	// POST blocks in the first NextPage (the aggregate needs the stalled
	// scan); statement ids are deterministic, so the DELETE below can race
	// it without waiting for the response document.
	type postResult struct {
		doc     httpapi.StatementResponse
		elapsed time.Duration
	}
	postDone := make(chan postResult, 1)
	start := time.Now()
	go func() {
		resp, err := http.Post(srv.URL+"/v1/statement", "text/plain",
			strings.NewReader("SELECT count(*) FROM tpch.lineitem"))
		var pr postResult
		pr.elapsed = time.Since(start)
		if err == nil {
			if err := json.NewDecoder(resp.Body).Decode(&pr.doc); err != nil {
				t.Errorf("decode statement response: %v", err)
			}
			resp.Body.Close()
		} else {
			t.Errorf("POST /v1/statement: %v", err)
		}
		postDone <- pr
	}()

	time.Sleep(300 * time.Millisecond)
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/statement/s1", nil)
	delStart := time.Now()
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	delResp.Body.Close()
	if d := time.Since(delStart); d > 600*time.Millisecond {
		t.Errorf("DELETE blocked %v behind the in-flight long-poll", d)
	}
	if delResp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE status %d", delResp.StatusCode)
	}

	pr := <-postDone
	if pr.doc.State != "FAILED" || !strings.Contains(pr.doc.Error, "cancelled") {
		t.Errorf("racing statement finished as %q (%q), want FAILED/cancelled",
			pr.doc.State, pr.doc.Error)
	}
	if pr.elapsed > time.Second {
		t.Errorf("statement unblocked after %v; cancellation did not interrupt the fetch", pr.elapsed)
	}

	// The id is gone: the next poll must 404 rather than resurrect it.
	getResp, err := http.Get(srv.URL + "/v1/statement/s1")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", getResp.StatusCode)
	}
}

// distJoinQueries are the join shapes that get dynamic filters assigned; the
// distributed differential below runs each with filters on and off.
var distJoinQueries = []string{
	"SELECT count(*) FROM d JOIN e ON d.k = e.k",
	"SELECT d.s, count(*), sum(e.v) FROM d JOIN e ON d.k = e.k GROUP BY d.s",
	"SELECT count(*) FROM d WHERE k IN (SELECT k FROM e WHERE v > 0)",
	"SELECT count(*) FROM d JOIN e ON d.k = e.k WHERE e.v > 40",
	"SELECT count(*) FROM d JOIN e ON d.v = e.v",
}

// TestDistributedDynamicFilterDifferential runs the join suite through the
// HTTP-distributed cluster with dynamic filters on and off — rows must be
// identical. The build-side summaries travel through the coordinator relay
// (up in the publishers' workers' status channels, merged, one POST to each
// subscribed worker), so this exercises the full wire path, not the
// in-process shortcut.
func TestDistributedDynamicFilterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	d := newDistCluster(t, 2, nil)
	d.loadRefTable(t, "d", randomRows(r, 200))
	d.loadRefTable(t, "e", randomRows(r, 80))
	for _, sql := range distJoinQueries {
		on := d.mustQuery(t, sql)
		res, err := d.Coord.Execute(sql, Session{Switches: exec.DisableDynamicFilters})
		if err != nil {
			t.Fatalf("distributed %q filters off: %v", sql, err)
		}
		off, err := res.All()
		if err != nil {
			t.Fatalf("distributed %q filters off: %v", sql, err)
		}
		assertRows(t, sql, stringifyRows(on), stringifyRows(off))
	}
}

// TestChaosDistributedFilterPublishFaults injects delay and loss at the
// worker-side filter-publish seam: the relay may see summaries late or never,
// and probe scans must degrade to unfiltered reads — same rows, bounded
// extra latency, no wedged queries.
func TestChaosDistributedFilterPublishFaults(t *testing.T) {
	cases := []struct {
		name string
		rule faultinject.Rule
	}{
		{"delay", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindDelay, Rate: 1, Delay: 100 * time.Millisecond}},
		{"loss", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindError, Rate: 1, Transient: true}},
		{"flaky", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindError, Rate: 0.5, Transient: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(47))
			inj := faultinject.New(chaosSeed(t), tc.rule)
			d := newDistCluster(t, 2, inj)
			d.loadRefTable(t, "d", randomRows(r, 200))
			d.loadRefTable(t, "e", randomRows(r, 80))
			// Reference rows come from a fault-free cluster so faults cannot
			// mask a wrong answer.
			rr := rand.New(rand.NewSource(47))
			ref := newDistCluster(t, 2, nil)
			ref.loadRefTable(t, "d", randomRows(rr, 200))
			ref.loadRefTable(t, "e", randomRows(rr, 80))
			start := time.Now()
			for _, sql := range distJoinQueries {
				got := d.mustQuery(t, sql)
				want := ref.mustQuery(t, sql)
				assertRows(t, sql+" ["+tc.name+"]", stringifyRows(got), stringifyRows(want))
			}
			if el := time.Since(start); el > 30*time.Second {
				t.Errorf("suite took %v under %s filter-publish faults", el, tc.name)
			}
		})
	}
}

// TestDistributedCollectorlessFilterPublisher is the regression test for the
// HTTP dynamic-filter path. Worker 0's build task stands in for a publisher
// with no collector: whenever its status channel carries a published summary,
// the test rewrites the frame to what such a task announces — a Disabled
// summary. The coordinator must learn of publications from the status
// long-poll it already holds (filter publication is delayed 60ms here; the
// long-poll is answered when it happens, not on a ticker), apply each event
// exactly once, and let the Disabled contribution disable the whole union: the
// gated probe scans are released at once and run unfiltered, rows identical.
func TestDistributedCollectorlessFilterPublisher(t *testing.T) {
	var mu sync.Mutex
	published := map[string]int{} // "worker/event number" → filter summaries in it
	statusErrors := 0
	var delivered []bool // Disabled flag of every union POSTed to a worker
	disabledFrame := dynfilter.AppendSummary(nil, &dynfilter.Summary{Disabled: true})
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/status"):
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var st wire.QueryStatus
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
					mu.Lock()
					// The DELETE that ends the query answers its long-poll 404.
					if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "deleted") {
						statusErrors++
					}
					mu.Unlock()
					w.WriteHeader(rec.Code)
					w.Write(rec.Body.Bytes())
					return
				}
				mu.Lock()
				for k, ev := range st.Events {
					if len(ev.Filters) > 0 {
						published[fmt.Sprintf("%d/%d", i, st.From+int64(k))] = len(ev.Filters)
					}
					for j := range ev.Filters {
						if i == 0 {
							ev.Filters[j] = disabledFrame
						}
					}
				}
				mu.Unlock()
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(st)
				return
			case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/filters"):
				body, _ := io.ReadAll(r.Body)
				var req wire.FiltersRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Errorf("POST %s: %v", r.URL.Path, err)
				}
				mu.Lock()
				for _, fd := range req.Filters {
					sum, err := dynfilter.DecodeSummary(fd.Summary)
					if err != nil {
						t.Errorf("POST %s: filter %d: %v", r.URL.Path, fd.ID, err)
						continue
					}
					delivered = append(delivered, sum.Disabled)
				}
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	inj := faultinject.New(1, faultinject.Rule{Site: faultinject.SiteFilterPublish,
		Kind: faultinject.KindDelay, Rate: 1, Delay: 60 * time.Millisecond})
	// The join is partitioned, so each build task sees one partition's keys
	// and no probe scan can be served by its own task's summary. An explicit
	// wait gates even zero-copy probe scans, so the query cannot end before
	// the filter round trip — and ends right after it only if the Disabled
	// union is actually delivered.
	const gate = 3 * time.Second
	d := newDistClusterWith(t, 2, distConfig{inj: inj, wrap: wrap, broadcastRows: 1,
		task: exec.TaskConfig{DynamicFilterWait: gate}})
	r := rand.New(rand.NewSource(47))
	d.loadRefTable(t, "d", randomRows(r, 200))
	d.loadRefTable(t, "e", randomRows(r, 80))

	sql := distJoinQueries[0]
	res, err := d.Coord.Execute(sql, Session{Switches: exec.DisableDynamicFilters})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := d.mustQuery(t, sql)
	elapsed := time.Since(start)
	assertRows(t, sql, stringifyRows(got), stringifyRows(want))

	mu.Lock()
	defer mu.Unlock()
	workers := map[byte]bool{}
	for event, n := range published {
		workers[event[0]] = true
		if n == 0 {
			t.Errorf("status event %s announced filters without their summaries", event)
		}
	}
	if len(workers) < 2 {
		t.Fatalf("filter summaries arrived from %d workers' status channels, want both build tasks': %v", len(workers), published)
	}
	if statusErrors != 0 {
		t.Errorf("%d status polls failed: the channel is answered by events, not hammered until they exist", statusErrors)
	}
	if len(delivered) == 0 {
		t.Error("no merged filter was delivered to the probe tasks")
	}
	for _, disabled := range delivered {
		if !disabled {
			t.Error("a union containing a collector-less publisher was delivered enabled")
		}
	}
	if elapsed >= gate {
		t.Errorf("query took %v: the probe scans waited out their %v gate instead of being released by the Disabled filter", elapsed, gate)
	}
}
