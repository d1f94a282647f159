package presto

// Adaptive-execution suite: dynamic join filters. The tests are
// differential — every query must return identical rows with the adaptive
// machinery on and off, including over adversarial key data (NULLs, -0.0,
// NaN, integral doubles) and under injected delay/loss at the
// filter-publication seam — plus effect assertions: selective joins must
// actually skip probe rows, and empty builds must short-circuit without
// draining the probe scan.

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

// adaptiveCluster builds a cluster with a generous filter wait so the tests
// exercise delivery rather than racing the 100ms default gate.
func adaptiveCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.ThreadsPerWorker == 0 {
		cfg.ThreadsPerWorker = 2
	}
	if cfg.DynamicFilterWait == 0 {
		cfg.DynamicFilterWait = 2 * time.Second
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	return c
}

// loadTable registers rows directly through a memconn catalog, so tests can
// plant values SQL literals cannot express (NaN, -0.0).
func loadTable(t *testing.T, c *Cluster, conn *memconn.Connector, table string,
	cols []connector.Column, rows [][]types.Value) {
	t.Helper()
	if err := conn.CreateTable(table, cols); err != nil {
		t.Fatalf("create %s: %v", table, err)
	}
	if err := conn.AppendRows(table, rows); err != nil {
		t.Fatalf("load %s: %v", table, err)
	}
}

// queryWith runs sql under the given session and returns sorted stringified
// rows plus the query's stats.
func queryWith(t *testing.T, c *Cluster, sql string, s Session) ([]string, QueryStats) {
	t.Helper()
	// These tests assert per-query execution stats (rows filtered, splits
	// skipped) and compare toggle arms — a result-cache serve would return
	// the other arm's rows with no execution stats at all.
	s.Switches |= exec.DisableResultCache
	res, err := c.ExecuteSession(sql, s)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	st, _ := c.QueryStats(res.QueryID)
	return stringifyRows(rows), st
}

// selectiveJoin is the selective join of the effect tests: a 10-row build
// side, small, against a 20k-row probe, big; emptyJoin is the same probe
// against an empty build, none.
const (
	selectiveJoin = "SELECT big.k, big.v FROM big JOIN small ON big.k = small.k"
	emptyJoin     = "SELECT big.k, big.v FROM big JOIN none ON big.k = none.k"
)

// loadSelectiveJoin creates and fills the tables of selectiveJoin and
// emptyJoin.
func loadSelectiveJoin(t *testing.T, c *Cluster) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE big (k BIGINT, v BIGINT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big SELECT * FROM (VALUES ")
	for i := 0; i < 20000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%97)
	}
	sb.WriteString(")")
	mustExec(t, c, sb.String())
	mustExec(t, c, "CREATE TABLE small (k BIGINT)")
	mustExec(t, c, "INSERT INTO small SELECT * FROM (VALUES (3), (1003), (2003), (3003), (4003), (5003), (6003), (7003), (8003), (9003))")
	mustExec(t, c, "CREATE TABLE none (k BIGINT)")
}

// dynFilterWork sums what a statement's dynamic-filter subscriptions did:
// how many there were, how many of them test rows, and the rows they tested.
func dynFilterWork(st QueryStats) (subs, rowTested int, rows int64) {
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			for _, df := range pl.DynFilters {
				subs++
				if df.RowTested {
					rowTested++
				}
				rows += df.RowsTested
			}
		}
	}
	return subs, rowTested, rows
}

// explainDynFilters returns the scan lines of sql's EXPLAIN ANALYZE that
// name a dynamic filter's work.
func explainDynFilters(t *testing.T, c *Cluster, sql string) string {
	t.Helper()
	var lines []string
	for _, r := range mustExec(t, c, "EXPLAIN ANALYZE "+sql) {
		if line := r[0].String(); strings.Contains(line, "TableScan") && strings.Contains(line, "  df") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// assertDirectFeed is the direct-feed leg of an effect test. On c the joins
// broadcast their builds, so the probe scan feeds the join that publishes its
// filter through nothing but Filter/Project, in one pipeline: the join's own
// lookup is the row test, and the filter only prunes. sql tests no row and
// returns the rows it returns with filters off; emptySQL, a join against an
// empty build, still skips the probe scan's splits.
func assertDirectFeed(t *testing.T, c *Cluster, sql, emptySQL string) {
	t.Helper()
	on, st := queryWith(t, c, sql, Session{})
	off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
	assertRows(t, sql+" [direct feed]", on, off)
	if subs, rowTested, rows := dynFilterWork(st); subs == 0 || rowTested != 0 || rows != 0 || st.DynRowsFiltered != 0 {
		t.Errorf("direct feed: %d subscriptions, %d row-tested, %d rows tested, %d filtered; want some, all prune-only, none tested",
			subs, rowTested, rows, st.DynRowsFiltered)
	}
	if lines := explainDynFilters(t, c, sql); !strings.Contains(lines, "prune-only") || strings.Contains(lines, "row-tested") {
		t.Errorf("direct feed: EXPLAIN ANALYZE shows the filters as\n%s\nwant them prune-only", lines)
	}
	got, est := queryWith(t, c, emptySQL, Session{})
	want, _ := queryWith(t, c, emptySQL, Session{Switches: exec.DisableDynamicFilters})
	assertRows(t, emptySQL+" [direct feed]", got, want)
	if est.DynSplitsSkipped == 0 {
		t.Errorf("direct feed: a join against an empty build skipped no probe split (stats: %+v)", est)
	}
}

// TestDynamicFilterPrunesSelectiveJoin is the effect test: a 10-row build
// side against a 20k-row probe must push a filter that skips most probe rows,
// and the filtered result must equal the unfiltered one. Without statistics
// the join is partitioned, so the filter crosses from the build's fragment to
// the probe scan's, where it tests rows. Beside it, the direct-feed leg: with
// statistics the build is broadcast into the probe scan's pipeline, where the
// filter only prunes.
func TestDynamicFilterPrunesSelectiveJoin(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{DisableStats: true})
	loadSelectiveJoin(t, c)
	sql := selectiveJoin
	on, onStats := queryWith(t, c, sql, Session{})
	off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
	assertRows(t, sql, on, off)
	if len(on) != 10 {
		t.Fatalf("join returned %d rows, want 10", len(on))
	}
	if onStats.DynRowsFiltered == 0 {
		t.Errorf("selective join skipped no probe rows (stats: %+v)", onStats)
	}
	if onStats.DynRowsFiltered < 15000 {
		t.Errorf("filter skipped only %d of ~19990 filterable rows", onStats.DynRowsFiltered)
	}
	if lines := explainDynFilters(t, c, sql); !strings.Contains(lines, "row-tested") || strings.Contains(lines, "prune-only") {
		t.Errorf("EXPLAIN ANALYZE shows the filters as\n%s\nwant them row-tested", lines)
	}

	direct := adaptiveCluster(t, ClusterConfig{})
	loadSelectiveJoin(t, direct)
	assertDirectFeed(t, direct, selectiveJoin, emptyJoin)
}

// edgeKeyTables loads bigint and double key tables whose values hit every
// equality edge case: NULL keys on both sides, +0.0 vs -0.0, NaN, and doubles
// holding exact integral values.
func edgeKeyTables(t *testing.T, c *Cluster) {
	conn := memconn.New("edge")
	c.Register(conn)

	bi := func(v int64) types.Value { return types.BigintValue(v) }
	bn := types.NullValue(types.Bigint)
	d := func(v float64) types.Value { return types.Value{T: types.Double, F: v} }
	dn := types.NullValue(types.Double)
	s := types.VarcharValue

	// Bigint probe/build with NULLs sprinkled on both sides.
	var bigRows [][]types.Value
	for i := int64(0); i < 500; i++ {
		k := bi(i % 40)
		if i%11 == 0 {
			k = bn
		}
		bigRows = append(bigRows, []types.Value{k, s(fmt.Sprint(i % 7))})
	}
	loadTable(t, c, conn, "bprobe",
		[]connector.Column{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}, bigRows)
	loadTable(t, c, conn, "bbuild",
		[]connector.Column{{Name: "k", T: types.Bigint}}, [][]types.Value{
			{bi(1)}, {bi(3)}, {bi(3)}, {bi(38)}, {bn}, {bi(-5)},
		})

	// Double probe/build: ±0.0, NaN, integral doubles, NULLs.
	var dblRows [][]types.Value
	vals := []float64{0.0, math.Copysign(0, -1), 1.5, 5.0, -5.0, math.NaN(), 42.0, 1e18, 0.1}
	for i := 0; i < 400; i++ {
		k := d(vals[i%len(vals)])
		if i%13 == 0 {
			k = dn
		}
		dblRows = append(dblRows, []types.Value{k, bi(int64(i))})
	}
	loadTable(t, c, conn, "dprobe",
		[]connector.Column{{Name: "x", T: types.Double}, {Name: "v", T: types.Bigint}}, dblRows)
	loadTable(t, c, conn, "dbuild",
		[]connector.Column{{Name: "x", T: types.Double}}, [][]types.Value{
			{d(math.Copysign(0, -1))}, {d(5.0)}, {d(math.NaN())}, {dn}, {d(0.1)},
		})

	// All-NULL build side: INNER joins against it produce zero rows.
	loadTable(t, c, conn, "nbuild",
		[]connector.Column{{Name: "k", T: types.Bigint}}, [][]types.Value{{bn}, {bn}, {bn}})
}

// edgeJoinQueries are the edge-key joins. The RIGHT join (partitioned) and
// the join over a UNION ALL (whose inputs are fragments of their own) publish
// filters that cross fragments, through the coordinator's hub and its
// publication seam; every other join's filter stays in its task.
var edgeJoinQueries = []string{
	"SELECT count(*) FROM edge.bprobe JOIN edge.bbuild ON bprobe.k = bbuild.k",
	"SELECT bprobe.k, count(*) FROM edge.bprobe JOIN edge.bbuild ON bprobe.k = bbuild.k GROUP BY bprobe.k",
	"SELECT count(*) FROM edge.bprobe WHERE k IN (SELECT k FROM edge.bbuild)",
	"SELECT count(*) FROM edge.bprobe LEFT JOIN edge.bbuild ON bprobe.k = bbuild.k",
	"SELECT count(*) FROM edge.bprobe RIGHT JOIN edge.bbuild ON bprobe.k = bbuild.k",
	"SELECT count(*) FROM edge.dprobe JOIN edge.dbuild ON dprobe.x = dbuild.x",
	"SELECT dprobe.v FROM edge.dprobe JOIN edge.dbuild ON dprobe.x = dbuild.x WHERE dprobe.v < 50",
	"SELECT count(*) FROM edge.dprobe WHERE x IN (SELECT x FROM edge.dbuild)",
	"SELECT count(*) FROM edge.bprobe JOIN edge.nbuild ON bprobe.k = nbuild.k",
	"SELECT count(*) FROM edge.bprobe JOIN edge.bbuild ON bprobe.k = bbuild.k JOIN edge.nbuild ON bprobe.k = nbuild.k",
	"SELECT count(*) FROM (SELECT k FROM edge.bprobe UNION ALL SELECT k FROM edge.bprobe) u JOIN edge.bbuild ON u.k = bbuild.k",
}

// TestDynamicFilterDifferentialEdgeData runs the edge-key join suite with
// filters on and off: identical rows in every case. NULL probe keys must not
// match, -0.0 must match +0.0, NaN must not match itself, and integral
// doubles must survive the summary's cell encoding.
func TestDynamicFilterDifferentialEdgeData(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{})
	edgeKeyTables(t, c)
	for _, sql := range edgeJoinQueries {
		on, _ := queryWith(t, c, sql, Session{})
		off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
		assertRows(t, sql, on, off)
	}
}

// TestDynamicFilterEmptyBuildShortCircuit: an empty (or all-NULL-key) build
// side must zero an INNER join without draining the probe scan — pending
// probe splits are dropped, so rows-read stays far below the table size. The
// filter wait is generous: the test asserts what an arrived filter does, not
// whether a two-row build beat a few-millisecond timer.
func TestDynamicFilterEmptyBuildShortCircuit(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{DynamicFilterWait: 10 * time.Second})
	conn := memconn.New("edge")
	c.Register(conn)
	var rows [][]types.Value
	for i := int64(0); i < 50000; i++ {
		rows = append(rows, []types.Value{types.BigintValue(i)})
	}
	loadTable(t, c, conn, "wide", []connector.Column{{Name: "k", T: types.Bigint}}, rows)
	loadTable(t, c, conn, "none", []connector.Column{{Name: "k", T: types.Bigint}}, nil)
	loadTable(t, c, conn, "nulls", []connector.Column{{Name: "k", T: types.Bigint}},
		[][]types.Value{{types.NullValue(types.Bigint)}, {types.NullValue(types.Bigint)}})

	for _, build := range []string{"none", "nulls"} {
		sql := fmt.Sprintf("SELECT wide.k FROM edge.wide JOIN edge.%s ON wide.k = %s.k", build, build)
		got, st := queryWith(t, c, sql, Session{})
		if len(got) != 0 {
			t.Fatalf("%s: %d rows from a join against an empty build", sql, len(got))
		}
		if st.DynSplitsSkipped == 0 {
			t.Errorf("%s: no splits skipped (stats: %+v)", sql, st)
		}
		if st.RowsRead > 25000 {
			t.Errorf("%s: probe scan read %d rows; short circuit should have dropped most of 50000", sql, st.RowsRead)
		}
		// Differential leg: same zero rows with the machinery off.
		off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
		assertRows(t, sql+" [off]", got, off)
	}
}

// TestChaosDynamicFilterDelayAndLoss injects delay and loss at the
// filter-publication seam: results must be identical to the filters-off run
// (a late or lost filter degrades to an unfiltered scan, never a hang or a
// row difference), queries must finish promptly despite the stalls, and no
// goroutines may leak.
func TestChaosDynamicFilterDelayAndLoss(t *testing.T) {
	cases := []struct {
		name string
		rule faultinject.Rule
	}{
		{"delay", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindDelay, Rate: 1, Delay: 150 * time.Millisecond}},
		{"loss", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindError, Rate: 1, Transient: true}},
		{"flaky", faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindError, Rate: 0.5, Transient: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(chaosSeed(t), tc.rule)
			// Short wait: a lost filter must release the gate quickly.
			c := adaptiveCluster(t, ClusterConfig{
				FaultInjector:     inj,
				DynamicFilterWait: 100 * time.Millisecond,
			})
			edgeKeyTables(t, c)
			goroutines := runtime.NumGoroutine()
			start := time.Now()
			for _, sql := range edgeJoinQueries {
				on, _ := queryWith(t, c, sql, Session{})
				off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
				assertRows(t, sql, on, off)
			}
			if el := time.Since(start); el > 30*time.Second {
				t.Errorf("suite took %v under %s faults; filter waits are not bounded", el, tc.name)
			}
			if inj.Count(faultinject.SiteFilterPublish) == 0 {
				t.Errorf("no %s fault fired: no filter of the suite crossed a fragment", tc.name)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > goroutines+5 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked under %s faults: %d (baseline %d)",
						tc.name, runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestChaosMorselOpenFailure fails every split open inside the morsel queue:
// the query must fail cleanly, every opened page source must be closed, and
// neither goroutines nor memory-pool bytes may leak. A second leg stalls
// opens instead of failing them: the query must survive and return the
// baseline answer.
func TestChaosMorselOpenFailure(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), faultinject.Rule{
		Site: faultinject.SiteMorselOpen, Kind: faultinject.KindError, Rate: 1, Transient: true,
	})
	c := chaosCluster(t, inj)
	goroutines := runtime.NumGoroutine()
	if _, err := c.Query(chaosQueries[3]); err == nil {
		t.Fatal("query survived unconditional morsel-open failure")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after morsel-open failure: %d (baseline %d)",
				runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		var pooled int64
		for _, w := range c.Workers() {
			pooled += w.Pool.GeneralUsed()
		}
		if pooled == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker pools hold %d bytes after morsel-open failure", pooled)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The cluster must stay usable after a query aborted mid-open.
	inj.Clear()
	base := baselineRows(t)
	rows, err := c.Query(chaosQueries[3])
	if err != nil {
		t.Fatalf("cluster unusable after morsel-open abort: %v", err)
	}
	assertRows(t, chaosQueries[3], stringifyRows(rows), base[chaosQueries[3]])

	// Slow opens must be masked: same query, every open stalled.
	inj2 := faultinject.New(chaosSeed(t), faultinject.Rule{
		Site: faultinject.SiteMorselOpen, Kind: faultinject.KindDelay, Rate: 1,
		Delay: 5 * time.Millisecond,
	})
	c2 := chaosCluster(t, inj2)
	rows, err = c2.Query(chaosQueries[3])
	if err != nil {
		t.Fatalf("stalled morsel opens broke the query: %v", err)
	}
	assertRows(t, chaosQueries[3], stringifyRows(rows), base[chaosQueries[3]])
}

// --- Figure 6 selective-join benchmark: dynamic filters on vs off ---

// dynBenchCluster is shared across the on/off sub-benchmarks so the TPC-H
// tables load once per binary.
var dynBenchCluster struct {
	sync.Once
	c *Cluster
}

// BenchmarkDynFilterFig6 runs the selective-join shapes of the Figure 6
// suite (q37/q64/q82: a filtered dimension joined to the fact table) with
// dynamic filters on and with the ablation toggle off; the ratio of each
// on/off pair is the filters' speedup on that shape.
func BenchmarkDynFilterFig6(b *testing.B) {
	dynBenchCluster.Do(func() {
		// Minimal parallelism: the benchmark isolates work saved by probe
		// pruning, not scheduler behavior, and CI machines are small.
		// Serving caches off: the benchmark repeats identical statements to
		// time execution; a plan- or result-cache serve would hide the work
		// the dynamic-filter ablation measures.
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1,
			DisablePlanCache: true, DisableResultCache: true})
		// Scale 4 (240k lineitem rows): large enough that per-row probe work
		// dominates per-query planning overhead, so pruning shows up in
		// wall time rather than drowning in fixed costs.
		c.Register(workload.LoadTPCHMemory("tpch", 4))
		dynBenchCluster.c = c
	})
	c := dynBenchCluster.c
	sqls := map[string]string{}
	for _, q := range workload.Fig6Queries("tpch") {
		sqls[q.ID] = q.SQL
	}
	for _, id := range []string{"q37", "q64", "q82"} {
		for _, mode := range []struct {
			name string
			s    Session
		}{
			{"on", Session{}},
			{"off", Session{Switches: exec.DisableDynamicFilters}},
		} {
			b.Run(id+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := c.ExecuteSession(sqls[id], mode.s)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.All(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// handleRecorder is a memconn catalog that records, for every split it
// opens, the constraint the scan's table handle carries on one column: the
// domain a dynamic filter narrowed it to.
type handleRecorder struct {
	*memconn.Connector
	col  string
	mu   sync.Mutex
	seen map[string]bool
}

func (h *handleRecorder) PageSource(split connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	if handle.Constraint != nil && handle.Constraint.Columns[h.col] != nil {
		h.mu.Lock()
		h.seen[handle.Constraint.Columns[h.col].String()] = true
		h.mu.Unlock()
	}
	return h.Connector.PageSource(split, columns, handle)
}

// domains lists the constraints recorded so far, sorted.
func (h *handleRecorder) domains() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for d := range h.seen {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// rowTestCounts sums what each row-tested dynamic-filter subscription did
// over its pipelines, as EXPLAIN ANALYZE prints it: dfN row-tested
// passed/tested.
func rowTestCounts(dfs []operators.DynFilterStats) []string {
	passed, tested := map[int]int64{}, map[int]int64{}
	for _, df := range dfs {
		if df.RowTested {
			passed[df.ID] += df.RowsPassed
			tested[df.ID] += df.RowsTested
		}
	}
	var out []string
	for id := range tested {
		out = append(out, fmt.Sprintf("df%d row-tested %d/%d", id, passed[id], tested[id]))
	}
	slices.Sort(out)
	return out
}

// TestDynamicFilterSameInProcessAndOverHTTP: a filter that crosses fragments
// is one summary whatever carries it. The selective join, partitioned, runs
// on an in-process cluster and on one of HTTP workers, where the union
// crosses as a wire frame: both return the same rows, their row tests pass
// and test the same rows, and the probe scan's splits open narrowed to the
// same domain — the build's ten keys as points, not only their bounds.
func TestDynamicFilterSameInProcessAndOverHTTP(t *testing.T) {
	big := make([][]types.Value, 20000)
	for i := range big {
		big[i] = []types.Value{types.BigintValue(int64(i)), types.BigintValue(int64(i % 97))}
	}
	var small [][]types.Value
	for k := int64(3); k < 10000; k += 1000 {
		small = append(small, []types.Value{types.BigintValue(k)})
	}
	load := func(register func(connector.Connector)) *handleRecorder {
		rec := &handleRecorder{Connector: memconn.New("df"), col: "k", seen: map[string]bool{}}
		register(rec)
		loadTable(t, nil, rec.Connector, "big", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}, big)
		loadTable(t, nil, rec.Connector, "small", []connector.Column{{Name: "k", T: types.Bigint}}, small)
		return rec
	}
	const sql = "SELECT big.k, big.v FROM df.big JOIN df.small ON big.k = small.k"

	local := adaptiveCluster(t, ClusterConfig{DisableStats: true, DynamicFilterWait: 10 * time.Second})
	localRec := load(func(c connector.Connector) { local.Register(c) })
	localRows, localStats := queryWith(t, local, sql, Session{})

	// A remote task's operator counters never leave its worker: read them
	// there, just before the statement's DELETE drops the tasks.
	var mu sync.Mutex
	var remoteDFs []operators.DynFilterStats
	var remote *distCluster
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete {
				mu.Lock()
				for _, ts := range remote.servers[i].TaskStats() {
					for _, pl := range ts.Pipelines {
						remoteDFs = append(remoteDFs, pl.DynFilters...)
					}
				}
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	remote = newDistClusterWith(t, 2, distConfig{wrap: wrap, noStats: true, task: exec.TaskConfig{DynamicFilterWait: 10 * time.Second}})
	remoteRec := load(func(c connector.Connector) { remote.catalog.Register(c) })
	requireDistributed(t, remote.Coord, sql)
	assertRows(t, sql, stringifyRows(remote.mustQuery(t, sql)), localRows)
	if len(localRows) != len(small) {
		t.Fatalf("the join returned %d rows, want %d", len(localRows), len(small))
	}
	var localDFs []operators.DynFilterStats
	for _, sg := range localStats.Stages {
		for _, pl := range sg.Pipelines {
			localDFs = append(localDFs, pl.DynFilters...)
		}
	}
	mu.Lock()
	lc, rc := rowTestCounts(localDFs), rowTestCounts(remoteDFs)
	mu.Unlock()
	if len(lc) == 0 || !slices.Equal(lc, rc) {
		t.Errorf("row tests in process %v, over HTTP %v; want the same, and some", lc, rc)
	}
	ld, rd := localRec.domains(), remoteRec.domains()
	if len(ld) != 1 || !slices.Equal(ld, rd) || !strings.Contains(ld[0], "1003") {
		t.Errorf("probe splits narrowed in process to %v, over HTTP to %v; want one domain of the build's keys", ld, rd)
	}
}
