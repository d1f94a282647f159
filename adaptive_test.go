package presto

// Adaptive-execution suite: dynamic join filters and history-based optimizer
// feedback. The tests are differential — every query must return identical
// rows with the adaptive machinery on and off, including over adversarial key
// data (NULLs, -0.0, NaN, integral doubles) and under injected delay/loss at
// the filter-publication seam — plus effect assertions: selective joins must
// actually skip probe rows, empty builds must short-circuit without draining
// the probe scan, and a repeat query must replan from observed cardinalities.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/optimizer"
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

// TestDynamicFilterPrunesSelectiveJoin is the effect test: a 10-row build
// side against a 20k-row probe must push a filter that skips most probe rows,
// and the filtered result must equal the unfiltered one.
func TestDynamicFilterPrunesSelectiveJoin(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{})
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

	sql := "SELECT big.k, big.v FROM big JOIN small ON big.k = small.k"
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
			pooled += w.Pool.GeneralUsed() - w.CacheStats().Bytes
		}
		if pooled <= 0 {
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

// TestHBOJoinOrderFeedback: the first run of a three-way chain join plans
// from static estimates that wildly overestimate a filtered relation
// (12000 rows × 0.25 = 3000 estimated, 4 actual). The greedy reorderer
// therefore makes the filtered relation the probe side of the first join.
// Once the recorded actual (4 rows) feeds back, the repeat plan must flip
// probe and build — hashing 4 rows instead of 1000 — without changing the
// answer. A star join would not do here: with one dominant fact table the
// greedy max(probe, build) metric ties across all candidate pairs and
// history cannot move the pick.
func TestHBOJoinOrderFeedback(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{EnableHBO: true})
	mustExec(t, c, "CREATE TABLE a (k BIGINT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO a SELECT * FROM (VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	sb.WriteString(")")
	mustExec(t, c, sb.String())

	mustExec(t, c, "CREATE TABLE b (k BIGINT, k2 BIGINT, tag BIGINT)")
	sb.Reset()
	sb.WriteString("INSERT INTO b SELECT * FROM (VALUES ")
	for i := 0; i < 12000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i%1000, i%500, i)
	}
	sb.WriteString(")")
	mustExec(t, c, sb.String())

	mustExec(t, c, "CREATE TABLE c (k2 BIGINT)")
	sb.Reset()
	sb.WriteString("INSERT INTO c SELECT * FROM (VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i%500)
	}
	sb.WriteString(")")
	mustExec(t, c, sb.String())

	// tag + 0 < 4 keeps the predicate out of the scan's pushed-down domain,
	// so the static path sees a plain filter: 12000 × 0.25 = 3000 estimated
	// rows against 4 actual. Statically b (3000) out-sizes a (1000) and
	// probes it; with history (4) the sides must swap.
	sql := "SELECT count(*) FROM a " +
		"JOIN b ON a.k = b.k " +
		"JOIN c ON b.k2 = c.k2 " +
		"WHERE b.tag + 0 < 4"

	before, err := c.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.QueryRow(sql)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := c.Coordinator.History().(*optimizer.MemoryHistory)
	if !ok || h.Len() == 0 {
		t.Fatalf("no cardinalities recorded after first run (history: %T, %v)", c.Coordinator.History(), ok)
	}
	after, err := c.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Errorf("plan unchanged after history feedback:\n%s", after)
	}
	second, err := c.QueryRow(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].I != second[0].I {
		t.Fatalf("replanned query changed its answer: %d vs %d", first[0].I, second[0].I)
	}

	// The per-query opt-out must plan exactly like the history-free run.
	res, err := c.ExecuteSession("EXPLAIN "+sql, Session{Switches: exec.DisableHBO})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	var noHBO strings.Builder
	for _, r := range rows {
		noHBO.WriteString(r[0].S + "\n")
	}
	if noHBO.String() != before {
		t.Errorf("exec.DisableHBO plan differs from the pre-history plan:\n--- pre-history\n%s\n--- exec.DisableHBO\n%s", before, noHBO.String())
	}
}

// TestHistoryScanRowsIgnoreDynamicFilters: what history files under a scan is
// what the connector produced, whether or not a dynamic filter arrived in time
// to drop most of it on the way to the join. The filter runs in the processor
// above the scan, so the 20 000-row probe scan of a 10-key join records 20 000
// rows with filters on and off alike; it recorded the ten survivors when the
// filter ran inside the source, and a later query scanning the same table
// planned from whichever run came last.
func TestHistoryScanRowsIgnoreDynamicFilters(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{EnableHBO: true})
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

	sql := "SELECT big.k, big.v FROM big JOIN small ON big.k = small.k"
	recorded := func(s Session) float64 {
		t.Helper()
		rows, st := queryWith(t, c, sql, s)
		if len(rows) != 10 {
			t.Fatalf("join returned %d rows, want 10", len(rows))
		}
		if filtered := st.DynRowsFiltered > 0; filtered == s.Switches.Has(exec.DisableDynamicFilters) {
			t.Fatalf("exec.DisableDynamicFilters=%v but %d rows were dynamically filtered", s.Switches.Has(exec.DisableDynamicFilters), st.DynRowsFiltered)
		}
		_, dp, err := c.Coordinator.Plan(sql, s)
		if err != nil {
			t.Fatal(err)
		}
		opts := optimizer.HistoryFingerprintOpts(c.Coordinator.Catalog, dp)
		var got float64
		found := false
		for _, f := range dp.Fragments {
			plan.Walk(f.Root, func(n plan.Node) {
				if sc, ok := n.(*plan.Scan); ok && sc.Handle.Table == "big" {
					got, found = c.Coordinator.History().Lookup(plan.CardFingerprint(sc, opts))
				}
			})
		}
		if !found {
			t.Fatal("no history entry for the scan of big")
		}
		return got
	}
	on := recorded(Session{})
	off := recorded(Session{Switches: exec.DisableDynamicFilters})
	if on != 20000 || off != 20000 {
		t.Errorf("history holds %v rows for the scan of big with dynamic filters on, %v with them off; want 20000 both", on, off)
	}
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
			// HBO stays off in both modes: the benchmark's own repeat
			// runs would otherwise feed history back into the planner and
			// flip join orders mid-measurement, confounding the ablation.
			{"on", Session{Switches: exec.DisableHBO}},
			{"off", Session{Switches: exec.DisableHBO | exec.DisableDynamicFilters}},
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
