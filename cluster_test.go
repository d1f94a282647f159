package presto

// Cluster-behaviour tests: multi-tenancy, memory enforcement, admission
// control, and cancellation — the properties of §IV-F and §III.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestMemoryLimitKillsQuery(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:                 2,
		ThreadsPerWorker:        2,
		PerNodeQueryMemoryBytes: 64 << 10, // far below the working set
	})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.5))
	_, err := c.Query("SELECT l_orderkey, l_partkey, count(*) FROM tpch.lineitem GROUP BY l_orderkey, l_partkey")
	if err == nil {
		t.Fatal("query should exceed its memory limit")
	}
	if !strings.Contains(err.Error(), "memory limit") {
		t.Errorf("error: %v", err)
	}
	// The cluster stays healthy: a small query still works.
	if _, err := c.Query("SELECT count(*) FROM tpch.nation"); err != nil {
		t.Errorf("cluster unhealthy after kill: %v", err)
	}
}

func TestMemoryReleasedAfterQueries(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.2))
	for i := 0; i < 5; i++ {
		if _, err := c.Query("SELECT l_partkey, sum(l_quantity) FROM tpch.lineitem GROUP BY l_partkey"); err != nil {
			t.Fatal(err)
		}
	}
	// Page-cache and serving-tier bytes stay resident between queries by
	// design; everything else must drain. Clearing the serving caches must
	// hand their reservations back to the pools.
	c.ClearServingCaches()
	for _, w := range c.Workers() {
		if used := w.Pool.GeneralUsed() - w.CacheStats().Bytes; used > 0 {
			t.Errorf("worker %d leaked %d bytes", w.ID, used)
		}
	}
}

func TestQueuePolicyBoundsConcurrency(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:          2,
		ThreadsPerWorker: 2,
		QueuePolicies:    []QueuePolicy{{Name: "", MaxConcurrent: 2, MaxQueued: 100}},

		DisableResultCache: true,
	})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.2))

	// The bound is asserted on the engine's own count, read by each query
	// while it holds its slot (from Execute returning until All drains the
	// result; with the result cache off every query takes one). A count kept
	// by the test around res.All() would race the engine: the slot is
	// released inside All, before the test could decrement, so a third query
	// can be admitted and counted first.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Execute("SELECT l_partkey, count(*) FROM tpch.lineitem GROUP BY l_partkey")
			if err != nil {
				t.Error(err)
				return
			}
			for _, g := range c.Coordinator.AdmissionStats() {
				if g.Running < 1 || g.Running > 2 {
					t.Errorf("%d queries running while this one holds a slot; the policy admits 1 to 2", g.Running)
				}
			}
			res.All()
		}()
	}
	wg.Wait()
}

func TestQueueRejectsWhenFull(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:       1,
		QueuePolicies: []QueuePolicy{{Name: "batch", MaxConcurrent: 1, MaxQueued: 1}},
	})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.2))

	// Hold the only slot with a result we never drain, and fill the single
	// queue position with a second query.
	res, err := c.ExecuteSession("SELECT l_orderkey FROM tpch.lineitem", Session{Source: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if r2, err := c.ExecuteSession("SELECT 1", Session{Source: "batch"}); err == nil {
			r2.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the second query enter the queue
	_, err = c.ExecuteSession("SELECT 1", Session{Source: "batch"})
	if err == nil || !strings.Contains(err.Error(), "queue") {
		t.Errorf("third query should be rejected: %v", err)
	}
	res.Close()
	<-queued
}

func TestClientCancellationStopsQuery(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.5))

	res, err := c.Execute("SELECT l_orderkey, l_partkey FROM tpch.lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// Read one page, then abandon.
	if _, err := res.NextPage(); err != nil {
		t.Fatal(err)
	}
	res.Close()

	// The query should reach a terminal state promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := c.Coordinator.QueryInfo("q1")
		if ok && (info.State.String() == "FAILED" || info.State.String() == "FINISHED") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled query never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And its memory must be released. Cached pages are node-lifetime (not
	// part of the query's footprint) and shared-scan replay logs are
	// window-lifetime — their expiry timers must hand the bytes back shortly,
	// so poll rather than assert a single instant.
	leakDeadline := time.Now().Add(2 * time.Second)
	for {
		var held int64
		for _, w := range c.Workers() {
			if used := w.Pool.GeneralUsed() - w.CacheStats().Bytes; used > 0 {
				held += used
			}
		}
		if held == 0 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("workers hold %d bytes after cancel", held)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEarlyLimitTerminatesQuickly(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 1))
	start := time.Now()
	rows, err := c.Query("SELECT l_orderkey FROM tpch.lineitem LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("LIMIT 5 should not scan the world: %s", time.Since(start))
	}
}

func TestQueryInfoLifecycle(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (x BIGINT)")
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (1), (2))")
	mustExec(t, c, "SELECT sum(x) FROM t")
	found := false
	for _, id := range []string{"q1", "q2", "q3"} {
		info, ok := c.Coordinator.QueryInfo(id)
		if !ok {
			continue
		}
		found = true
		if info.State.String() != "FINISHED" {
			t.Errorf("%s state: %s (%v)", id, info.State, info.Err)
		}
		if info.Finished.Before(info.Queued) {
			t.Error("finished before queued")
		}
	}
	if !found {
		t.Error("no query info recorded")
	}
}

func TestManyConcurrentMixedQueries(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.2))
	queries := []string{
		"SELECT count(*) FROM tpch.lineitem",
		"SELECT l_returnflag, sum(l_quantity) FROM tpch.lineitem GROUP BY l_returnflag",
		"SELECT o_orderpriority, count(*) FROM tpch.orders GROUP BY o_orderpriority",
		"SELECT c_mktsegment, avg(o_totalprice) FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey GROUP BY c_mktsegment",
		"SELECT n_name FROM tpch.nation ORDER BY n_name LIMIT 5",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Query(queries[i%len(queries)])
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
