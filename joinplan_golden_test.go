package presto_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	presto "repro"
	"repro/internal/plan"
	"repro/internal/wire"
	engineworkload "repro/internal/workload"
)

// joinLocalStatements are the nine join_local statements of the benchmark at
// seed 1 (bench/sql.go, whitespace folded), with the digest of everything a
// plan shows the world: its EXPLAIN text, the wire form of every fragment,
// and the cardinality fingerprint of every node. The plans are those of
// 6b2b2bc, before the pipeline compiler learned to prune join channels and
// lend join output: both are compile-time decisions of the task, so no
// statement's plan, fragment bytes or fingerprints may move with them. The
// digests were re-taken when fragments became their own wire form (the plan
// structs' fields by name); the EXPLAIN text and fingerprints did not move.
//
// repeat is the digest of the EXPLAIN text alone after the statement has run
// three times on a cluster that records history and caches no plan
// (TestJoinLocalPlansUnchangedAfterHistory), taken at a964b04: moving a scan's
// dynamic filters into the processor above it changes which rows the scan's
// history entry counts, and must not reorder a join of these statements.
var joinLocalStatements = []struct{ id, sql, digest, repeat string }{
	{"h03", `SELECT l_orderkey, count(*) AS lines, sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1997-07-04' AND l_shipdate > DATE '1997-07-04' GROUP BY l_orderkey ORDER BY lines DESC, l_orderkey LIMIT 10`, "64303dd9afed162d2d652946", "e9e9cf1a36ec883d94cc9ecd"},
	{"h05", `SELECT n_name, count(*), sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON l_orderkey = o_orderkey JOIN tpch.supplier ON l_suppkey = s_suppkey JOIN tpch.nation ON s_nationkey = n_nationkey JOIN tpch.region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey AND o_orderdate >= DATE '1998-12-31' AND o_orderdate < DATE '1999-12-31' GROUP BY n_name ORDER BY n_name`, "a5e9f1525599c959303a9a8c", "9abcacb2f8a2c77b8e1e5fbd"},
	{"h18", `SELECT c_name, c_custkey, o_orderkey, o_orderdate, count(*), sum(l_quantity) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON o_orderkey = l_orderkey WHERE o_orderkey IN ( SELECT l_orderkey FROM tpch.lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 276) GROUP BY c_name, c_custkey, o_orderkey, o_orderdate ORDER BY o_orderdate, o_orderkey LIMIT 100`, "af9dff8067f5057ebdaf3203", "6e2e20112f3ab93edcdaf3ee"},
	{"q26", `SELECT p_brand, count(*), avg(l_quantity), avg(l_extendedprice) FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey JOIN tpch.supplier ON l_suppkey = s_suppkey WHERE s_acctbal > -11 GROUP BY p_brand ORDER BY p_brand`, "b47da0084e1927be6b3e8155", "5190eab9dfab55f0452f2937"},
	{"q35", `SELECT c_mktsegment, count(*) FROM tpch.customer WHERE c_custkey IN (SELECT o_custkey FROM tpch.orders WHERE o_totalprice > 202000) GROUP BY c_mktsegment ORDER BY c_mktsegment`, "335cd5af9222d6532e5d5067", "b2546909e3cf16c2621cc922"},
	{"q54", `SELECT c_mktsegment, count(*), sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON o_orderkey = l_orderkey GROUP BY c_mktsegment ORDER BY c_mktsegment`, "792b6b17a7771deea9d72880", "21c34a6e2b476f42fcb85ef8"},
	{"q80", `SELECT p_brand, count(*), sum(CASE WHEN l_returnflag = 'R' THEN 0 ELSE l_extendedprice END), sum(CASE WHEN l_returnflag = 'R' THEN l_extendedprice ELSE 0 END) FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey WHERE l_shipdate >= DATE '1994-01-03' GROUP BY p_brand ORDER BY p_brand`, "c76c18b4da13a9f2bb69c780", "090d061e88307393eac1e516"},
	{"q78", `SELECT o_orderstatus, count(*), sum(total_lines) FROM tpch.orders JOIN ( SELECT l_orderkey, count(*) AS total_lines FROM tpch.lineitem GROUP BY l_orderkey ) l ON o_orderkey = l.l_orderkey GROUP BY o_orderstatus ORDER BY o_orderstatus`, "858ab88260e8d8d428773b86", "7db91b296092feeacf4dbdd2"},
	{"q82", `SELECT p_name, p_size, count(*) FROM tpch.part JOIN tpch.lineitem ON p_partkey = l_partkey WHERE p_size BETWEEN 40 AND 44 AND l_quantity BETWEEN 15 AND 19 GROUP BY p_name, p_size ORDER BY p_name LIMIT 40`, "40e66b510a9805c1665efd88", "7471f2370e05ffcafba0f2d7"},
}

func TestJoinLocalPlansUnchanged(t *testing.T) {
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
	defer c.Close()
	c.Register(engineworkload.LoadTPCHMemory("tpch", 2))
	for _, st := range joinLocalStatements {
		text, err := c.Explain(st.sql)
		if err != nil {
			t.Fatalf("%s: explain: %v", st.id, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00", text)
		_, dp, err := c.Coordinator.Plan(st.sql, presto.Session{})
		if err != nil {
			t.Fatalf("%s: plan: %v", st.id, err)
		}
		for _, f := range dp.Fragments {
			data, err := wire.MarshalFragment(f)
			if err != nil {
				t.Fatalf("%s: fragment %d: %v", st.id, f.ID, err)
			}
			fmt.Fprintf(h, "%d\x00%s\x00", f.ID, data)
			plan.Walk(f.Root, func(n plan.Node) { fmt.Fprintf(h, "%x\x00", plan.CardFingerprint(n, nil)) })
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != st.digest {
			t.Errorf("%s: plan digest %s, want %s", st.id, got, st.digest)
		}
	}
}

// TestJoinLocalPlansUnchangedAfterHistory: with history-based optimization on
// and the plan cache off, each statement is run three times and explained
// again, in the list's order on one cluster (a statement's history entries —
// its scans', joins' and aggregations' observed rows — are there for the
// statements after it).
func TestJoinLocalPlansUnchangedAfterHistory(t *testing.T) {
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 1,
		DisableResultCache: true, DisablePlanCache: true, EnableHBO: true})
	defer c.Close()
	c.Register(engineworkload.LoadTPCHMemory("tpch", 2))
	for _, st := range joinLocalStatements {
		for run := 0; run < 3; run++ {
			if _, err := c.Query(st.sql); err != nil {
				t.Fatalf("%s: run %d: %v", st.id, run, err)
			}
		}
		text, err := c.Explain(st.sql)
		if err != nil {
			t.Fatalf("%s: explain: %v", st.id, err)
		}
		sum := sha256.Sum256([]byte(text))
		if got := fmt.Sprintf("%x", sum[:12]); got != st.repeat {
			t.Errorf("%s: EXPLAIN digest after three runs %s, want %s", st.id, got, st.repeat)
		}
	}
}
