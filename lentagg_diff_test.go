package presto

import (
	"testing"

	"repro/internal/workload"
)

// lentAggQueries are high-cardinality GROUP BYs whose partial aggregations
// feed a hash shuffle on a two-worker cluster, so they lend their output pages
// to the shuffle's sink (DESIGN.md "Who owns a page"). The first groups on
// keys the table's cells give back — a bigint and a boolean, both with NULLs
// — the second on keys kept beside the table — a varchar and a double, both
// with NULLs; between them they render count, count(*), sum, avg, min and max,
// and groups whose arguments are all NULL. Double sums and averages read
// l_quantity, whose values are whole, so that no row order changes them.
var lentAggQueries = []string{
	`SELECT CASE WHEN l_linenumber = 1 THEN NULL ELSE l_orderkey END,
		CASE WHEN l_linenumber = 2 THEN NULL ELSE l_quantity > 25 END,
		count(CASE WHEN l_linenumber = 3 THEN NULL ELSE l_tax END), count(*),
		sum(CASE WHEN l_linenumber = 1 THEN NULL ELSE l_partkey END), sum(l_quantity),
		avg(l_quantity), min(l_suppkey), max(l_extendedprice), max(l_shipmode)
	FROM tpch.lineitem GROUP BY 1, 2`,
	`SELECT CASE WHEN l_linenumber = 1 THEN NULL ELSE l_shipmode || '-' || CAST(l_orderkey AS VARCHAR) END,
		CASE WHEN l_linenumber = 2 THEN NULL ELSE l_extendedprice END,
		count(l_tax), count(*), sum(l_partkey),
		sum(CASE WHEN l_linenumber = 1 THEN NULL ELSE l_quantity END),
		avg(l_quantity), min(l_shipinstruct), max(l_discount)
	FROM tpch.lineitem GROUP BY 1, 2`,
}

// TestLentAggregationDifferential runs lentAggQueries on a two-worker
// cluster, where each partial aggregation lends its pages to a two-partition
// hash sink, and on an interpreted one-worker cluster, whose one partition
// takes owned pages; the rows must agree. scripts/check.sh runs it with the
// scratch poison linked on, so a lent vector read after its time shows.
func TestLentAggregationDifferential(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.5))
	oracle := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 2, Interpreted: true})
	defer oracle.Close()
	oracle.Register(workload.LoadTPCHMemory("tpch", 0.5))
	for _, q := range lentAggQueries {
		got := stringifyRows(execSession(t, c, q, Session{}))
		if len(got) < 10_000 {
			t.Fatalf("%s: %d groups, want a high-cardinality GROUP BY (at least 10 000)", q, len(got))
		}
		assertRows(t, q+" [interpreted, one worker]", stringifyRows(execSession(t, oracle, q, Session{})), got)
	}
}
