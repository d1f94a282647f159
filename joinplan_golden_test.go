package presto_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	presto "repro"
	"repro/internal/plan"
	"repro/internal/wire"
	engineworkload "repro/internal/workload"
)

// joinLocalStatements are the nine join_local statements of the benchmark at
// seed 1 (bench/sql.go, whitespace folded), with the digest of everything a
// plan shows the world: its EXPLAIN text and the wire form of every fragment.
// The plans are those of 6b2b2bc, before the pipeline compiler learned to
// prune join channels and lend join output: both are compile-time decisions
// of the task, so no statement's plan or fragment bytes may move with them.
// The digests were re-taken when fragments became their own wire form (the
// plan structs' fields by name), and again when the plan-node fingerprints
// left the digest with the history store they keyed; the EXPLAIN text did not
// move either time. An aggregation's group estimate is a sizing hint, not
// shape: the wire form is digested without it (withoutEstimates), and
// estimated names the statements whose plans carry one. q80's was re-taken
// when its two CASE sums stopped printing alike and became two aggregates.
var joinLocalStatements = []struct{ id, sql, digest string }{
	{"h03", `SELECT l_orderkey, count(*) AS lines, sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1997-07-04' AND l_shipdate > DATE '1997-07-04' GROUP BY l_orderkey ORDER BY lines DESC, l_orderkey LIMIT 10`, "47b6201590b74ca2150a0546"},
	{"h05", `SELECT n_name, count(*), sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON l_orderkey = o_orderkey JOIN tpch.supplier ON l_suppkey = s_suppkey JOIN tpch.nation ON s_nationkey = n_nationkey JOIN tpch.region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey AND o_orderdate >= DATE '1998-12-31' AND o_orderdate < DATE '1999-12-31' GROUP BY n_name ORDER BY n_name`, "a6284bcb6aa57fb2d350cc25"},
	{"h18", `SELECT c_name, c_custkey, o_orderkey, o_orderdate, count(*), sum(l_quantity) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON o_orderkey = l_orderkey WHERE o_orderkey IN ( SELECT l_orderkey FROM tpch.lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 276) GROUP BY c_name, c_custkey, o_orderkey, o_orderdate ORDER BY o_orderdate, o_orderkey LIMIT 100`, "a258e9c236a1b7d9c71654bb"},
	{"q26", `SELECT p_brand, count(*), avg(l_quantity), avg(l_extendedprice) FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey JOIN tpch.supplier ON l_suppkey = s_suppkey WHERE s_acctbal > -11 GROUP BY p_brand ORDER BY p_brand`, "52ef7029fd6c7257b0247719"},
	{"q35", `SELECT c_mktsegment, count(*) FROM tpch.customer WHERE c_custkey IN (SELECT o_custkey FROM tpch.orders WHERE o_totalprice > 202000) GROUP BY c_mktsegment ORDER BY c_mktsegment`, "ea146ca81916919bada0fa4c"},
	{"q54", `SELECT c_mktsegment, count(*), sum(l_extendedprice * (1 - l_discount)) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey JOIN tpch.lineitem ON o_orderkey = l_orderkey GROUP BY c_mktsegment ORDER BY c_mktsegment`, "0096318618eb4643884b6872"},
	{"q80", `SELECT p_brand, count(*), sum(CASE WHEN l_returnflag = 'R' THEN 0 ELSE l_extendedprice END), sum(CASE WHEN l_returnflag = 'R' THEN l_extendedprice ELSE 0 END) FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey WHERE l_shipdate >= DATE '1994-01-03' GROUP BY p_brand ORDER BY p_brand`, "134a06d46261e5f5e02a3a37"},
	{"q78", `SELECT o_orderstatus, count(*), sum(total_lines) FROM tpch.orders JOIN ( SELECT l_orderkey, count(*) AS total_lines FROM tpch.lineitem GROUP BY l_orderkey ) l ON o_orderkey = l.l_orderkey GROUP BY o_orderstatus ORDER BY o_orderstatus`, "591c730624a3c2ca369353ba"},
	{"q82", `SELECT p_name, p_size, count(*) FROM tpch.part JOIN tpch.lineitem ON p_partkey = l_partkey WHERE p_size BETWEEN 40 AND 44 AND l_quantity BETWEEN 15 AND 19 GROUP BY p_name, p_size ORDER BY p_name LIMIT 40`, "3aab1011a39ddb67c63d1dea"},
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
		found := false
		for _, f := range dp.Fragments {
			plan.Walk(f.Root, func(n plan.Node) {
				if a, ok := n.(*plan.Aggregation); ok && a.Est != nil {
					found = true
				}
			})
			data, err := wire.MarshalFragment(withoutEstimates(f))
			if err != nil {
				t.Fatalf("%s: fragment %d: %v", st.id, f.ID, err)
			}
			fmt.Fprintf(h, "%d\x00%s\x00", f.ID, data)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != st.digest {
			t.Errorf("%s: plan digest %s, want %s", st.id, got, st.digest)
		}
		if want := estimated[st.id]; found != want {
			t.Errorf("%s: carries a group estimate %v, want %v", st.id, found, want)
		}
	}
}

// estimated are the statements with an aggregation whose keys are all columns
// of one scan with statistics: lineitem grouped by l_orderkey.
var estimated = map[string]bool{"h18": true, "q78": true}

// withoutEstimates copies f with every aggregation's group estimate cleared.
func withoutEstimates(f *plan.Fragment) *plan.Fragment {
	var strip func(n plan.Node) plan.Node
	strip = func(n plan.Node) plan.Node {
		children := make([]plan.Node, len(n.Children()))
		for i, c := range n.Children() {
			children[i] = strip(c)
		}
		n = n.WithChildren(children)
		if a, ok := n.(*plan.Aggregation); ok {
			a.Est = nil
		}
		return n
	}
	cp := *f
	cp.Root = strip(f.Root)
	return &cp
}

// TestLeafStageSkipsSplitlessTasks: at scale 2 customer, supplier, nation and
// region are one split each. The memory catalog lists its splits in memory,
// so every split of a leaf stage is in hand at placement, and no join_local
// statement creates a leaf task a split does not reach — none finishes with
// no split, from the first run on; enumerated lazily (presto.LazySplits) a
// leaf stage still runs one task a worker, and h05's have four with none. The
// rows are the same either way.
func TestLeafStageSkipsSplitlessTasks(t *testing.T) {
	tpch := engineworkload.LoadTPCHMemory("tpch", 2)
	cluster := func(conn presto.Connector) *presto.Cluster {
		c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
		t.Cleanup(c.Close)
		c.Register(conn)
		return c
	}
	listed, lazy := cluster(tpch), cluster(presto.LazySplits{Connector: tpch})
	run := func(c *presto.Cluster, sql string) (rows string, splitless int) {
		t.Helper()
		res, err := c.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		all, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		st, _ := c.QueryStats(res.QueryID)
		for _, sg := range st.Stages {
			for _, n := range sg.TaskSplits {
				if n == 0 && slices.Max(sg.TaskSplits) > 0 {
					splitless++
				}
			}
		}
		return fmt.Sprint(all), splitless
	}
	for _, st := range joinLocalStatements {
		want, lazyless := run(lazy, st.sql)
		if st.id == "h05" && lazyless != 4 {
			t.Errorf("h05 enumerated lazily has %d split-less leaf tasks, want 4", lazyless)
		}
		for i := 0; i < 2; i++ {
			rows, splitless := run(listed, st.sql)
			if rows != want {
				t.Fatalf("%s, run %d: rows %s, want %s", st.id, i, rows, want)
			}
			if splitless != 0 {
				t.Errorf("%s, run %d: with every split in hand, %d leaf tasks have no split", st.id, i, splitless)
			}
		}
	}
}
