package presto

// The task lifecycle moves on events, not a clock (DESIGN.md "Task
// lifecycle"): a task finishes when no driver runs and every pipeline has
// declared its last driver, and a held scan start is released by the event
// that can release it. These tests widen the windows a worker ticker used to
// paper over, in-process and on HTTP workers.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// lifecycleScale keeps the statements short enough to repeat under -race.
const lifecycleScale = 0.05

// rowsWithin runs a statement and fails the test if it has not returned after
// a minute: a scan start that nothing releases hangs the statement, it does
// not fail it.
func rowsWithin(t *testing.T, sql string, run func(string) ([][]Value, error)) []string {
	t.Helper()
	type result struct {
		rows [][]Value
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, err := run(sql)
		done <- result{rows, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", sql, r.err)
		}
		return roundedRows(r.rows)
	case <-time.After(time.Minute):
		t.Fatalf("%s: no answer after a minute", sql)
		return nil
	}
}

// referenceRows answers statements on a default in-process cluster.
func referenceRows(t *testing.T, sqls []string) map[string][]string {
	t.Helper()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", lifecycleScale))
	want := map[string][]string{}
	for _, sql := range sqls {
		want[sql] = rowsWithin(t, sql, c.Query)
	}
	return want
}

// TestDelayedTaskStartLosesNoRows: every task waits 300 µs between its
// registration on a worker and its Start. The statement shapes of the
// scan_agg and join_local workloads return the rows of an undelayed run, on a
// cluster of the benchmark's shape and on HTTP workers.
func TestDelayedTaskStartLosesNoRows(t *testing.T) {
	var sqls []string
	for _, s := range slices.Concat(scanShapes, joinShapes) {
		sqls = append(sqls, s.sql)
	}
	want := referenceRows(t, sqls)
	delay := func() *faultinject.Injector {
		return faultinject.New(1, faultinject.Rule{Site: faultinject.SiteTaskStart,
			Kind: faultinject.KindDelay, Rate: 1, Delay: 300 * time.Microsecond})
	}
	check := func(t *testing.T, inj *faultinject.Injector, run func(string) ([][]Value, error)) {
		for _, sql := range sqls {
			assertRows(t, sql, rowsWithin(t, sql, run), want[sql])
		}
		if inj.Count(faultinject.SiteTaskStart) == 0 {
			t.Fatal("no task start was delayed")
		}
	}
	t.Run("in-process", func(t *testing.T) {
		inj := delay()
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, FaultInjector: inj,
			DisablePlanCache: true, DisableResultCache: true})
		t.Cleanup(c.Close)
		c.Register(workload.LoadTPCHMemory("tpch", lifecycleScale))
		check(t, inj, c.Query)
	})
	t.Run("http", func(t *testing.T) {
		inj := delay()
		d := newDistClusterWith(t, 2, distConfig{workerInj: inj})
		d.catalog.Register(workload.LoadTPCHMemory("tpch", lifecycleScale))
		check(t, inj, d.Query)
	})
}

// TestPhasedWithoutFiltersCompletes: under phased scheduling a probe scan is
// held until the joins it probes are built. With dynamic filters off no filter
// delivery re-evaluates it, and a LEFT join publishes none either way, so the
// build finishing is the one event that releases it. Both statements return
// the rows of all-at-once scheduling, in-process and on HTTP workers.
func TestPhasedWithoutFiltersCompletes(t *testing.T) {
	sqls := []string{
		`SELECT c_mktsegment, count(*), sum(l_extendedprice) FROM tpch.lineitem
			JOIN tpch.orders ON l_orderkey = o_orderkey
			JOIN tpch.customer ON o_custkey = c_custkey
			GROUP BY c_mktsegment`,
		`SELECT o_orderpriority, count(*), count(c_custkey) FROM tpch.orders
			LEFT JOIN tpch.customer ON o_custkey = c_custkey AND c_mktsegment = 'BUILDING'
			GROUP BY o_orderpriority`,
	}
	want := referenceRows(t, sqls)
	t.Run("in-process", func(t *testing.T) {
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, Phased: true,
			DisableDynamicFilters: true, DisablePlanCache: true, DisableResultCache: true})
		t.Cleanup(c.Close)
		c.Register(workload.LoadTPCHMemory("tpch", lifecycleScale))
		for _, sql := range sqls {
			assertRows(t, sql, rowsWithin(t, sql, c.Query), want[sql])
		}
	})
	t.Run("http", func(t *testing.T) {
		d := newDistClusterWith(t, 2, distConfig{
			task: exec.TaskConfig{Phased: true, Switches: exec.DisableDynamicFilters}})
		d.catalog.Register(workload.LoadTPCHMemory("tpch", lifecycleScale))
		for _, sql := range sqls {
			assertRows(t, sql, rowsWithin(t, sql, d.Query), want[sql])
		}
	})
}
