package presto

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/workload"
)

// Where the splits go, end to end: the benchmark's cluster shape (two
// workers, one thread each) over the in-memory TPC-H tables, where a stage
// that deals its splits unevenly leaves a whole core idle.

// noIdleCoreCluster is that cluster. Plan and result caches are off so every
// run schedules its splits.
func noIdleCoreCluster(t *testing.T, scale float64) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1,
		DisablePlanCache: true, DisableResultCache: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", scale))
	return c
}

type shapedStatement struct{ id, sql string }

// The statement shapes of the benchmark's scan_agg and join_local workloads
// (bench/sql.go owns the real lists; these keep their plans, not their
// seeded literals).
var (
	scanShapes = []shapedStatement{
		{"h01", `SELECT l_returnflag, l_shipmode, sum(l_quantity), sum(l_extendedprice),
			sum(l_extendedprice * (1 - l_discount)), sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
			avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
			FROM tpch.lineitem WHERE l_shipdate <= DATE '2000-09-01'
			GROUP BY l_returnflag, l_shipmode ORDER BY l_returnflag, l_shipmode`},
		{"h06", `SELECT sum(l_extendedprice * l_discount), count(*) FROM tpch.lineitem
			WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'
			AND l_discount BETWEEN 0.04 AND 0.06 AND l_quantity < 24`},
		{"q28", `SELECT count(*), avg(l_extendedprice), min(l_extendedprice), max(l_extendedprice)
			FROM tpch.lineitem WHERE l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < 25`},
		{"topk", `SELECT l_partkey, count(*) AS c FROM tpch.lineitem WHERE l_linenumber <> 3
			GROUP BY l_partkey ORDER BY c DESC, l_partkey LIMIT 100`},
		{"concat", `SELECT l_shipmode || '-' || l_shipinstruct AS k, count(*), sum(l_quantity)
			FROM tpch.lineitem WHERE l_shipdate >= DATE '1994-08-01'
			GROUP BY l_shipmode || '-' || l_shipinstruct ORDER BY k`},
		{"like", `SELECT count(*) FROM tpch.lineitem
			WHERE l_shipinstruct LIKE '%BACK%' AND l_shipmode IN ('AIR', 'MAIL', 'SHIP')`},
		{"q50", `SELECT l_returnflag, l_shipmode, count(*) FROM tpch.lineitem
			WHERE l_shipdate > DATE '1996-01-01'
			GROUP BY l_returnflag, l_shipmode ORDER BY l_returnflag, l_shipmode`},
	}
	joinShapes = []shapedStatement{
		{"h03", `SELECT l_orderkey, count(*) AS lines, sum(l_extendedprice * (1 - l_discount))
			FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey
			JOIN tpch.lineitem ON l_orderkey = o_orderkey
			WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1997-06-15' AND l_shipdate > DATE '1997-06-15'
			GROUP BY l_orderkey ORDER BY lines DESC, l_orderkey LIMIT 10`},
		{"h18", `SELECT c_name, c_custkey, o_orderkey, o_orderdate, count(*), sum(l_quantity)
			FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey
			JOIN tpch.lineitem ON o_orderkey = l_orderkey
			WHERE o_orderkey IN (SELECT l_orderkey FROM tpch.lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 280)
			GROUP BY c_name, c_custkey, o_orderkey, o_orderdate ORDER BY o_orderkey LIMIT 100`},
		{"q18", `SELECT c_mktsegment, o_orderpriority, count(*), avg(o_totalprice)
			FROM tpch.orders JOIN tpch.customer ON o_custkey = c_custkey
			GROUP BY c_mktsegment, o_orderpriority ORDER BY c_mktsegment, o_orderpriority`},
		{"q26", `SELECT p_brand, avg(l_quantity), avg(l_extendedprice) FROM tpch.lineitem
			JOIN tpch.part ON l_partkey = p_partkey JOIN tpch.supplier ON l_suppkey = s_suppkey
			WHERE s_acctbal > 0 GROUP BY p_brand ORDER BY p_brand`},
		{"q37", `SELECT p_brand, count(*) FROM tpch.part JOIN tpch.lineitem ON p_partkey = l_partkey
			WHERE p_size BETWEEN 10 AND 20 GROUP BY p_brand ORDER BY p_brand`},
	}
)

// shaped finds a statement of the two lists by id.
func shaped(t *testing.T, id string) shapedStatement {
	t.Helper()
	for _, s := range slices.Concat(scanShapes, joinShapes) {
		if s.id == id {
			return s
		}
	}
	t.Fatalf("no statement shape %q", id)
	return shapedStatement{}
}

// wideStages returns the stages of a finished query whose scans had enough
// splits to be dealt evenly: a one-split dimension table lands on one task
// whatever the rule.
func wideStages(t *testing.T, c *Cluster, id string) []coordinator.StageStats {
	t.Helper()
	st, ok := c.QueryStats(id)
	if !ok {
		t.Fatalf("no stats for query %s", id)
	}
	var wide []coordinator.StageStats
	for _, sg := range st.Stages {
		splits := 0
		for _, n := range sg.TaskSplits {
			splits += n
		}
		if splits >= 4 {
			wide = append(wide, sg)
		}
	}
	return wide
}

// TestScanSplitsBalanced: each scanning stage of a statement hands its two
// tasks the same rows to within a split. Hashing a table's four splits by
// cache key dealt them 3:1 or 4:0 (skew 1.5–2.0), one worker idle for most
// of the statement.
func TestScanSplitsBalanced(t *testing.T) {
	c := noIdleCoreCluster(t, 2)
	for _, s := range []shapedStatement{shaped(t, "h01"), shaped(t, "like"), shaped(t, "q26")} {
		_, id := runTrackedQuery(t, c, s.sql)
		wide := wideStages(t, c, id)
		if len(wide) == 0 {
			t.Errorf("%s: no stage scanned four splits", s.id)
		}
		for _, sg := range wide {
			if sg.Skew > 1.15 {
				t.Errorf("%s: fragment %d read rows %v over its tasks, skew %.2f > 1.15",
					s.id, sg.Fragment, sg.TaskInputRows, sg.Skew)
			}
		}
	}
}

// TestPlacementStableAcrossRuns: the same statement lands the same way every
// time, and over a cacheable catalog a warm run finds the pages the cold run
// cached.
func TestPlacementStableAcrossRuns(t *testing.T) {
	c := noIdleCoreCluster(t, 2)
	coldCatalog(t, c.catalog, "tpch")
	var first string
	for run := 0; run < 10; run++ {
		_, id := runTrackedQuery(t, c, shaped(t, "h01").sql)
		var placed []string
		for _, sg := range wideStages(t, c, id) {
			placed = append(placed, fmt.Sprint(sg.Fragment, sg.TaskInputRows, sg.TaskSplits))
		}
		if got := fmt.Sprint(placed); run == 0 {
			first = got
		} else if got != first {
			t.Errorf("run %d placed %s, run 0 placed %s", run, got, first)
		}
		if hits := scanCacheHits(t, c, id); run > 0 && hits == 0 {
			t.Errorf("run %d found none of its pages in the page cache", run)
		}
	}
}

// TestNoIdleCoreReport prints, for five warm passes of each statement list,
// every statement's median time and widest-stage skew and each worker's
// executor busy share of the passes (scripts/check.sh shows it). Summed over a
// pass the workers look alike even when statements skew in opposite
// directions; the per-statement skew is what TestScanSplitsBalanced asserts.
// The scan_agg medians are where a change to the dictionary paths shows first:
// h01, concat, like and q50 filter, build or group on stored low-cardinality
// strings (EXPERIMENTS.md "What a low-cardinality string costs").
func TestNoIdleCoreReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report only")
	}
	const passes = 5
	for _, list := range []struct {
		name   string
		scale  float64
		shapes []shapedStatement
	}{{"scan_agg", 5, scanShapes}, {"join_local", 2, joinShapes}} {
		c := noIdleCoreCluster(t, list.scale)
		for _, s := range list.shapes { // warm: caches, lazy set-up
			runTrackedQuery(t, c, s.sql)
		}
		var busy [2]int64
		for i, w := range c.Workers() {
			busy[i] = w.Exec.BusyNanos()
		}
		times := make([][]time.Duration, len(list.shapes))
		skews := make([]float64, len(list.shapes))
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			for i, s := range list.shapes {
				begin := time.Now()
				_, id := runTrackedQuery(t, c, s.sql)
				times[i] = append(times[i], time.Since(begin))
				for _, sg := range wideStages(t, c, id) {
					skews[i] = max(skews[i], sg.Skew)
				}
			}
		}
		elapsed := time.Since(start)
		for i, s := range list.shapes {
			slices.Sort(times[i])
			t.Logf("%-10s %-6s p50 %6.1f ms  skew %.2f", list.name, s.id,
				float64(times[i][passes/2].Microseconds())/1e3, skews[i])
		}
		for i, w := range c.Workers() {
			t.Logf("%-10s worker %d busy %.2f of %.0f ms", list.name, i,
				float64(w.Exec.BusyNanos()-busy[i])/float64(elapsed.Nanoseconds()), float64(elapsed.Milliseconds()))
		}
	}
}
