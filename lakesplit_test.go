package presto

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/connectors/hive"
	"repro/internal/workload"
)

// TestLakeFileReadByEveryWorker: a lake table of one data file is cut at its
// stripes, so on two workers both leaf tasks scan, filter and partially
// aggregate a share of it, within a stripe of each other, and the answers
// are the memory catalog's over the same rows.
func TestLakeFileReadByEveryWorker(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
	defer c.Close()
	lake, err := workload.LoadTPCHHiveConfig("lake", 0.25, hive.Config{Dir: t.TempDir(), CollectStats: true, LazyReads: true, StripeRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(lake)
	c.Register(workload.LoadTPCHMemory("tpch", 0.25))
	for _, sql := range []string{
		`SELECT l_returnflag, l_shipmode, count(*), sum(l_quantity), min(l_shipdate), max(l_orderkey)
		 FROM %s.lineitem WHERE l_shipdate >= DATE '1992-03-01'
		 GROUP BY l_returnflag, l_shipmode ORDER BY l_returnflag, l_shipmode`,
		`SELECT l_partkey, count(*), sum(l_quantity) FROM %s.lineitem
		 GROUP BY l_partkey ORDER BY l_partkey`,
	} {
		got, id := runTrackedQuery(t, c, fmt.Sprintf(sql, "lake"))
		want, _ := runTrackedQuery(t, c, fmt.Sprintf(sql, "tpch"))
		if g, w := stringifyOrdered(got), stringifyOrdered(want); !slices.Equal(g, w) {
			t.Errorf("%s: the lake answers %d rows, the memory catalog %d; first lake rows %v, memory rows %v",
				sql, len(g), len(w), g[:min(3, len(g))], w[:min(3, len(w))])
		}
		st, ok := c.QueryStats(id)
		if !ok {
			t.Fatalf("%s: no stats", sql)
		}
		scans := 0
		for _, sg := range st.Stages {
			if len(sg.TaskInputRows) == 0 || slices.Max(sg.TaskInputRows) == 0 {
				continue
			}
			scans++
			if len(sg.TaskInputRows) != 2 || slices.Min(sg.TaskInputRows) == 0 || sg.Skew > 1.2 {
				t.Errorf("%s: fragment %d read rows %v over its tasks (splits %v, skew %.2f), want both tasks a share",
					sql, sg.Fragment, sg.TaskInputRows, sg.TaskSplits, sg.Skew)
			}
		}
		if scans != 1 {
			t.Errorf("%s: %d stages read rows, want the one leaf stage", sql, scans)
		}
	}
}
