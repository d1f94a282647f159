package presto

// Closed-loop serving-tier smoke (the high-QPS tier of §III: interactive
// dashboards repeat a small statement set at high concurrency). A fixed pool
// of clients each runs a statement loop — issue, drain, repeat — so offered
// load tracks completion rate, and every statement latency is recorded.
// TestServingQPSSmoke is a short closed loop that must complete error-free
// with warm statements served from the caches; the benchmark's serving_mix
// workload is the timed run.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// servingBenchStatements is the repeated interactive statement mix: the five
// dashboard shapes plus grouped-aggregate and point-ish lookups, all with
// small deterministic results so the full serving stack (plan cache, result
// cache, shared scans) is exercisable.
func servingBenchStatements(catalog string) []string {
	stmts := workload.InteractiveQueries(catalog)
	stmts = append(stmts,
		fmt.Sprintf("SELECT count(*) FROM %s.lineitem", catalog),
		fmt.Sprintf("SELECT l_returnflag, l_shipmode, count(*), sum(l_quantity) FROM %s.lineitem GROUP BY l_returnflag, l_shipmode", catalog),
		fmt.Sprintf("SELECT o_orderstatus, count(*), max(o_totalprice) FROM %s.orders GROUP BY o_orderstatus", catalog),
		fmt.Sprintf("SELECT p_brand, count(*) FROM %s.part WHERE p_size < 15 GROUP BY p_brand ORDER BY p_brand", catalog),
		fmt.Sprintf("SELECT s_nationkey, count(*) FROM %s.supplier GROUP BY s_nationkey ORDER BY 2 DESC LIMIT 5", catalog),
	)
	return stmts
}

// servingClosedLoop drives clients×perClient statements through the cluster
// and returns the wall time and every per-statement latency.
func servingClosedLoop(t *testing.T, c *Cluster, s Session, clients, perClient int, stmts []string) (time.Duration, []time.Duration) {
	t.Helper()
	lats := make([][]time.Duration, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-gate
			mine := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				sql := stmts[(id+i)%len(stmts)]
				t0 := time.Now()
				res, err := c.ExecuteSession(sql, s)
				if err == nil {
					_, err = res.All()
				}
				if err != nil {
					errs <- fmt.Errorf("client %d stmt %d (%s): %w", id, i, sql, err)
					return
				}
				mine = append(mine, time.Since(t0))
			}
			lats[id] = mine
		}(id)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return wall, all
}

// TestServingQPSSmoke is the check.sh gate: a short closed loop on serving
// defaults that must complete error-free with warm statements served from the
// caches.
func TestServingQPSSmoke(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))
	stmts := servingBenchStatements("tpch")

	wall, lats := servingClosedLoop(t, c, Session{Catalog: "tpch"}, 4, 40, stmts)
	if len(lats) != 4*40 {
		t.Fatalf("closed loop completed %d statements, want %d", len(lats), 4*40)
	}
	st := c.ServingStats()
	if st.Result.Hits == 0 {
		t.Errorf("warm statements never hit the result cache: %+v", st.Result)
	}
	if st.Plan.Hits == 0 {
		t.Errorf("warm statements never hit the plan cache: %+v", st.Plan)
	}
	t.Logf("smoke: %d statements in %s (%.0f qps)", len(lats), wall, float64(len(lats))/wall.Seconds())
}
