package presto

// A small statement is one task: a plan whose leaves read at most one morsel
// and emit at most one page is one SINGLE fragment (the optimizer's
// small-plan rule), and a plan that stays parallel creates no leaf task its
// splits do not reach. These tests pin the rule's effect on serving_mix's
// reads, its independence from literals, and a large read it must not take.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/workload"
)

// smallReads are serving_mix's three read shapes: a point read of a memory
// table, an ordered point read of TPC-H orders, and an advertiser read of
// the sharded connector, which enforces its point constraint.
var smallReads = []struct{ id, sql string }{
	{"events", `SELECT count(*), sum(v) FROM memory.events WHERE app = 3`},
	{"orders", `SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate
		FROM tpch.orders WHERE o_custkey = 7 ORDER BY o_orderkey`},
	{"ads", workload.AdvertiserQuery("ads", 5)},
}

// loadSmallReads registers what smallReads read: 3 000 event keys of two
// rows, TPC-H at 0.1 (1 500 orders) and 200 apps of advertiser metrics.
func loadSmallReads(t *testing.T, register func(connector.Connector), mem *memconn.Connector) {
	t.Helper()
	register(workload.LoadTPCHMemory("tpch", 0.1))
	ads, err := workload.AdvertiserData("ads", 4, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	register(ads)
	mem.LoadTable("events", eventsCols, []*block.Page{eventsPage(3000)})
}

// smallReadsCluster is an in-process cluster over loadSmallReads' tables
// with the result cache off.
func smallReadsCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.Workers, cfg.ThreadsPerWorker, cfg.DisableResultCache = 2, 2, true
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	mem, err := c.catalog.Connector("memory")
	if err != nil {
		t.Fatal(err)
	}
	loadSmallReads(t, c.Register, mem.(*memconn.Connector))
	return c
}

// runTasks runs sql on coord and returns its rows and how many tasks it ran.
func runTasks(t *testing.T, coord *coordinator.Coordinator, sql string) ([]string, int) {
	t.Helper()
	rows, st := runStats(t, coord, sql)
	return rows, st.Tasks
}

// runStats runs sql on coord and returns its rows and its stats.
func runStats(t *testing.T, coord *coordinator.Coordinator, sql string) ([]string, coordinator.QueryStats) {
	t.Helper()
	res, err := coord.Execute(sql, Session{})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	st, ok := coord.QueryStats(res.QueryID)
	if !ok {
		t.Fatalf("%s: no stats", sql)
	}
	return stringifyRows(rows), st
}

// TestSmallStatementIsOneTask: with the result cache off, each of
// serving_mix's reads runs one task, in process and on HTTP workers, and
// returns the rows a cluster without statistics — which plans it as a
// partial and a final step — returns. On HTTP workers every run of a read,
// the first included, sends one create, one result fetch, one delete, no
// split batch, and the status requests the design allows: the long-poll the
// worker answers at the task's end, renewed every statusWait (a second) the
// task runs, and the end-of-stream check when the stream ends before that
// answer is in — two for a read under a second. Each is logged with its
// version, wait and time into the run.
func TestSmallStatementIsOneTask(t *testing.T) {
	local := smallReadsCluster(t, ClusterConfig{})
	ref := smallReadsCluster(t, ClusterConfig{DisableStats: true})
	var counter requestCounter
	dist := newDistClusterWith(t, 2, distConfig{observe: counter.observe})
	loadSmallReads(t, dist.catalog.Register, dist.mem)

	for _, r := range smallReads {
		requireDistributed(t, ref.Coordinator, r.sql)
		want, tasks := runTasks(t, ref.Coordinator, r.sql)
		if tasks < 2 || len(want) == 0 {
			t.Fatalf("%s without statistics: %d rows over %d tasks, want rows over several", r.id, len(want), tasks)
		}
		for run := 0; run < 2; run++ {
			got, tasks := runTasks(t, local.Coordinator, r.sql)
			assertRows(t, r.id+" in process", got, want)
			if tasks != 1 {
				t.Errorf("%s in process, run %d: %d tasks, want 1", r.id, run, tasks)
			}
		}
		counter.take()
		for run := 0; run < 2; run++ {
			got, st := runStats(t, dist.Coord, r.sql)
			assertRows(t, r.id+" on HTTP workers", got, want)
			if st.Tasks != 1 {
				t.Errorf("%s on HTTP workers, run %d: %d tasks, want 1", r.id, run, st.Tasks)
			}
			w := counter.take()
			counts, total := w.counts, 0
			for _, n := range counts {
				total += n
			}
			t.Logf("%s on HTTP workers: %d requests %v; status %s", r.id, total, counts, strings.Join(w.polls, ", "))
			status := 2 + int(st.ElapsedNanos/int64(time.Second))
			if total != 3+counts["status"] || counts["create"] != 1 || counts["results"] != 1 || counts["delete"] != 1 ||
				counts["status"] < 1 || counts["status"] > status {
				t.Errorf("%s on HTTP workers, run %d: %d requests %v, want one create, one result fetch, one delete and 1 to %d status requests",
					r.id, run, total, counts, status)
			}
		}
	}
}

// TestSmallPlanRuleIgnoresLiterals: the rule reads statistics and the shape of
// a scan's constraint, never a literal, so every literal set of a template
// gets one decision — present keys, absent ones, negative and huge ones. Over
// 20 000 events rows a point template is one task, and a range template,
// estimated at the range default of the table, is not; run through the plan
// cache, every statement of either runs as many tasks as the first.
func TestSmallPlanRuleIgnoresLiterals(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	t.Cleanup(c.Close)
	mem, err := c.catalog.Connector("memory")
	if err != nil {
		t.Fatal(err)
	}
	mem.(*memconn.Connector).LoadTable("events", eventsCols, []*block.Page{eventsPage(10000)})
	literals := []int64{0, 3, 9999, 10000, -5, 1 << 40}
	for _, tc := range []struct {
		name, template string
		single         bool
	}{
		{"point", `SELECT count(*), sum(v) FROM memory.events WHERE app = %d`, true},
		{"point list", `SELECT app, v FROM memory.events WHERE app IN (%d, 17, 23) ORDER BY app`, true},
		{"range", `SELECT count(*), sum(v) FROM memory.events WHERE app > %d`, false},
	} {
		var firstTasks int
		for i, k := range literals {
			sql := fmt.Sprintf(tc.template, k)
			_, dp, err := c.Coordinator.Plan(sql, Session{})
			if err != nil {
				t.Fatal(err)
			}
			if single := len(dp.Fragments) == 1 && dp.Fragments[0].Single; single != tc.single {
				t.Errorf("%s, literal %d: one single fragment = %v, want %v:\n%s", tc.name, k, single, tc.single, dp.Format())
			}
			_, tasks := runTasks(t, c.Coordinator, sql)
			if i == 0 {
				firstTasks = tasks
			} else if tasks != firstTasks {
				t.Errorf("%s, literal %d: %d tasks, the template's first statement ran %d", tc.name, k, tasks, firstTasks)
			}
			if (tasks == 1) != tc.single {
				t.Errorf("%s, literal %d: %d tasks", tc.name, k, tasks)
			}
		}
	}
	if hits := c.Coordinator.ServingStats().Plan.Hits; hits == 0 {
		t.Error("no statement was served by the plan cache")
	}
}

// TestLargeReadStaysParallel: a point read that emits a few rows but reads
// more than one morsel — a memory table enforces no constraint, so the scan
// reads all of it — keeps its leaf stage on both workers (its four splits
// reach both) and its partial and final steps, with the rows one task would
// return.
func TestLargeReadStaysParallel(t *testing.T) {
	const rows, pageRows = 70000, 4096 // above exec.DefaultMorselRows
	var pages []*block.Page
	for lo := 0; lo < rows; lo += pageRows {
		n := min(pageRows, rows-lo)
		apps, ones := make([]int64, n), make([]int64, n)
		for i := range apps {
			apps[i], ones[i] = int64((lo+i)%20000), 1
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(apps, nil), block.NewLongBlock(ones, nil)))
	}
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	t.Cleanup(c.Close)
	mem, err := c.catalog.Connector("memory")
	if err != nil {
		t.Fatal(err)
	}
	mem.(*memconn.Connector).LoadTable("events", eventsCols, pages)
	sql := `SELECT count(*), sum(v) FROM memory.events WHERE app = 7`
	requireDistributed(t, c.Coordinator, sql)
	for run := 0; run < 2; run++ {
		res, err := c.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[[4 4]]" {
			t.Errorf("run %d: rows %v, want [[4 4]]", run, got)
		}
		st, _ := c.QueryStats(res.QueryID)
		leaf := 0
		for _, sg := range st.Stages {
			if sg.Skew > 0 { // a stage whose tasks scanned rows
				leaf = sg.Tasks
			}
		}
		if leaf != 2 {
			t.Errorf("run %d: the leaf stage ran %d tasks, want one a worker:\n%s", run, leaf, FormatOperatorTable(st))
		}
	}
}

// TestExpandingJoinStaysParallel: customer and supplier at TPC-H scale 1
// (1 500 and 100 rows) read and emit 1 600 rows together, under both bounds,
// but joined on nation key they emit about 6 000: that join keeps its
// distributed plan, while their join on customer key = supplier key (about
// 100 rows out) is one task. Both return the rows a cluster without
// statistics returns.
func TestExpandingJoinStaysParallel(t *testing.T) {
	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	t.Cleanup(local.Close)
	local.Register(workload.LoadTPCHMemory("tpch", 1))
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true, DisableStats: true})
	t.Cleanup(ref.Close)
	ref.Register(workload.LoadTPCHMemory("tpch", 1))
	for _, tc := range []struct {
		sql    string
		single bool
	}{
		{`SELECT c_nationkey, count(*), sum(s_suppkey) FROM tpch.customer JOIN tpch.supplier
			ON c_nationkey = s_nationkey GROUP BY c_nationkey ORDER BY c_nationkey`, false},
		{`SELECT count(*), sum(s_nationkey) FROM tpch.customer JOIN tpch.supplier ON c_custkey = s_suppkey`, true},
	} {
		_, dp, err := local.Coordinator.Plan(tc.sql, Session{})
		if err != nil {
			t.Fatal(err)
		}
		if single := len(dp.Fragments) == 1 && dp.Fragments[0].Single; single != tc.single {
			t.Errorf("%s: one single fragment = %v, want %v:\n%s", tc.sql, single, tc.single, dp.Format())
		}
		want, _ := runTasks(t, ref.Coordinator, tc.sql)
		got, tasks := runTasks(t, local.Coordinator, tc.sql)
		assertRows(t, tc.sql, got, want)
		if (tasks == 1) != tc.single {
			t.Errorf("%s: %d tasks", tc.sql, tasks)
		}
	}
}
