package presto

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/workload"
)

// switchJoin is a selective join that gets dynamic filters by default.
const switchJoin = "SELECT count(*) FROM tpch.lineitem JOIN tpch.orders ON l_orderkey = o_orderkey " +
	"WHERE o_orderpriority = '1-URGENT'"

// planHasDynamicFilters reports whether EXPLAIN shows sql under s with a
// scan subscribed to a dynamic filter.
func planHasDynamicFilters(t *testing.T, c *Cluster, sql string, s Session) bool {
	t.Helper()
	return strings.Contains(strings.Join(stringifyRows(execSession(t, c, "EXPLAIN "+sql, s)), "\n"), "dynfilters=")
}

// TestClusterSwitchMatchesSession: every ClusterConfig switch with a session
// twin has the same observable effect whichever of the two is set, and a
// different one from leaving both off. Where the cluster field folds into the
// cluster's switch set, the query's stats also report the same effective set
// either way.
func TestClusterSwitchMatchesSession(t *testing.T) {
	const scan = "SELECT count(*) FROM tpch.orders"
	// twice runs sql twice under s and returns the second run's stats.
	twice := func(t *testing.T, c *Cluster, sql string, s Session) QueryStats {
		t.Helper()
		var res *Result
		for range 2 {
			var err error
			if res, err = c.ExecuteSession(sql, s); err == nil {
				_, err = res.All()
			}
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		st, _ := c.QueryStats(res.QueryID)
		return st
	}
	cases := []struct {
		name    string
		sw      exec.Switches
		cluster func(*ClusterConfig)
		// base is what all three arms share: cluster settings and session
		// switches that keep another layer from answering first.
		base    func(*ClusterConfig)
		session exec.Switches
		// observe runs the arm's statements and says what it saw.
		observe func(t *testing.T, c *Cluster, s Session) []any
	}{
		{name: "dynamic filters", sw: exec.DisableDynamicFilters,
			cluster: func(cfg *ClusterConfig) { cfg.DisableDynamicFilters = true },
			observe: func(t *testing.T, c *Cluster, s Session) []any {
				return []any{"planned filters", planHasDynamicFilters(t, c, switchJoin, s),
					"switches", twice(t, c, switchJoin, s).Switches}
			}},
		{name: "plan cache", sw: exec.DisablePlanCache,
			cluster: func(cfg *ClusterConfig) { cfg.DisablePlanCache = true },
			observe: func(t *testing.T, c *Cluster, s Session) []any {
				twice(t, c, scan, s)
				return []any{"plan cache hits", c.ServingStats().Plan.Hits}
			}},
		{name: "result cache", sw: exec.DisableResultCache,
			cluster: func(cfg *ClusterConfig) { cfg.DisableResultCache = true },
			observe: func(t *testing.T, c *Cluster, s Session) []any {
				twice(t, c, scan, s)
				return []any{"result cache hits", c.ServingStats().Result.Hits}
			}},
		{name: "spill", sw: exec.DisableSpill,
			cluster: func(cfg *ClusterConfig) { cfg.SpillEnabled = false },
			base: func(cfg *ClusterConfig) {
				cfg.SpillEnabled, cfg.SpillDir, cfg.PerNodeQueryMemoryBytes = true, t.TempDir(), spillCapFloor
			},
			session: exec.DisableResultCache,
			observe: func(t *testing.T, c *Cluster, s Session) []any {
				_, err := querySession(c, spillQueries[0], s)
				limit := err != nil && (strings.Contains(err.Error(), "memory limit") || strings.Contains(err.Error(), "pool exhausted"))
				if err != nil && !limit {
					t.Fatalf("%s: %v", spillQueries[0], err)
				}
				return []any{"memory-limit error", limit}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arm := func(cluster, session bool) string {
				cfg := ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DynamicFilterWait: time.Second}
				if tc.base != nil {
					tc.base(&cfg)
				}
				s := Session{Switches: tc.session}
				if cluster {
					tc.cluster(&cfg)
				}
				if session {
					s.Switches |= tc.sw
				}
				c := NewCluster(cfg)
				defer c.Close()
				// Pages small enough that a table has a split per task and more.
				c.Register(workload.LoadTPCHMemorySmallPages("tpch", spillScale, 512))
				return fmt.Sprint(tc.observe(t, c, s))
			}
			control, byCluster, bySession := arm(false, false), arm(true, false), arm(false, true)
			t.Logf("off: %s; on: %s", control, bySession)
			if byCluster != bySession {
				t.Errorf("the cluster switch gives %s, the session's gives %s", byCluster, bySession)
			}
			if byCluster == control {
				t.Errorf("the switch changes nothing observable: %s either way", control)
			}
		})
	}
}

// TestDeprecatedClusterFields: the ClusterConfig fields kept only because the
// frozen benchmark names them do nothing but what they alias. DisableMorsels
// changes nothing — a scan of a table with many splits on one-thread workers
// still starts one driver a task, and no switch is reported; nor do
// DisableSharedScans, PageCacheBytes and MetadataCacheTTL, whose queries give
// the default's rows and switch set whatever they are set to; and
// DisableVectorKernels is Interpreted: the rows agree and no projection
// reaches a kernel.
func TestDeprecatedClusterFields(t *testing.T) {
	// max, not sum: a double sum's rounding follows arrival order.
	const proj = "SELECT max(l_extendedprice * (1 - l_discount)), count(*) FROM tpch.lineitem WHERE l_quantity < 20"
	run := func(t *testing.T, sql string, set func(*ClusterConfig)) ([]string, QueryStats) {
		t.Helper()
		cfg := ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true}
		set(&cfg)
		c := NewCluster(cfg)
		defer c.Close()
		// Pages small enough that a table has a split per task and more.
		c.Register(workload.LoadTPCHMemorySmallPages("tpch", spillScale, 512))
		res, err := c.ExecuteSession(sql, Session{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st, _ := c.QueryStats(res.QueryID)
		return stringifyRows(rows), st
	}
	t.Run("morsels", func(t *testing.T) {
		const sql = "SELECT count(*) FROM tpch.lineitem"
		want, def := run(t, sql, func(*ClusterConfig) {})
		got, st := run(t, sql, func(cfg *ClusterConfig) { cfg.DisableMorsels = true })
		assertRows(t, sql, got, want)
		// The scan stage's drivers and splits, summed over its tasks.
		var tasks, drivers int
		for _, sg := range st.Stages {
			for _, pl := range sg.Pipelines {
				if len(pl.Operators) > 0 && pl.Operators[0].Name == "TableScan" {
					tasks, drivers = sg.Tasks, pl.Drivers
				}
			}
		}
		if tasks == 0 || st.SplitsDone <= tasks {
			t.Fatalf("%d splits over %d scan tasks: want more splits than tasks", st.SplitsDone, tasks)
		}
		if drivers != tasks || st.Switches != def.Switches {
			t.Errorf("DisableMorsels: %d scan drivers over %d tasks, switches %q; want one a task and %q, as without it",
				drivers, tasks, st.Switches, def.Switches)
		}
	})
	t.Run("shared scans", func(t *testing.T) {
		const sql = "SELECT count(*) FROM tpch.orders"
		want, def := run(t, sql, func(*ClusterConfig) {})
		got, st := run(t, sql, func(cfg *ClusterConfig) { cfg.DisableSharedScans = true })
		assertRows(t, sql, got, want)
		if st.Switches != def.Switches {
			t.Errorf("DisableSharedScans: switches %q, want %q, as without it", st.Switches, def.Switches)
		}
	})
	t.Run("page cache", func(t *testing.T) {
		const sql = "SELECT count(*) FROM tpch.orders"
		want, def := run(t, sql, func(*ClusterConfig) {})
		for _, bytes := range []int64{-1, 1 << 20} {
			got, st := run(t, sql, func(cfg *ClusterConfig) { cfg.PageCacheBytes = bytes })
			assertRows(t, fmt.Sprintf("%s [PageCacheBytes=%d]", sql, bytes), got, want)
			if st.Switches != def.Switches {
				t.Errorf("PageCacheBytes=%d: switches %q, want %q, as without it", bytes, st.Switches, def.Switches)
			}
		}
	})
	t.Run("metadata cache", func(t *testing.T) {
		const sql = "SELECT count(*) FROM tpch.orders"
		want, def := run(t, sql, func(*ClusterConfig) {})
		for _, ttl := range []time.Duration{-1, time.Hour} {
			got, st := run(t, sql, func(cfg *ClusterConfig) { cfg.MetadataCacheTTL = ttl })
			assertRows(t, fmt.Sprintf("%s [MetadataCacheTTL=%v]", sql, ttl), got, want)
			if st.Switches != def.Switches {
				t.Errorf("MetadataCacheTTL=%v: switches %q, want %q, as without it", ttl, st.Switches, def.Switches)
			}
		}
	})
	t.Run("vector kernels", func(t *testing.T) {
		want, def := run(t, proj, func(*ClusterConfig) {})
		ref, interp := run(t, proj, func(cfg *ClusterConfig) { cfg.Interpreted = true })
		got, st := run(t, proj, func(cfg *ClusterConfig) { cfg.DisableVectorKernels = true })
		assertRows(t, proj+" [interpreted]", ref, want)
		assertRows(t, proj+" [DisableVectorKernels]", got, want)
		if def.VecProjEvals == 0 || interp.VecProjEvals != 0 || st.VecProjEvals != 0 {
			t.Errorf("kernel projections: %d by default, %d Interpreted, %d under DisableVectorKernels; want some, none, none",
				def.VecProjEvals, interp.VecProjEvals, st.VecProjEvals)
		}
	})
}

// TestDynamicFiltersDecidedAtPlanning: whether a statement gets dynamic
// filters is decided once, when it is planned, and the plan cache keys on it.
// A statement planned and cached under the default session, then run with
// dynamic filters disabled, is planned again without filters and filters
// nothing; the default session afterwards still hits its cached, filtered
// plan. The cluster plans without statistics, so the join is partitioned and
// its filter crosses into the probe scan's fragment, where it tests rows; the
// direct-feed leg runs the broadcast join, where the filter only prunes.
func TestDynamicFiltersDecidedAtPlanning(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true,
		DynamicFilterWait: 2 * time.Second, DisableStats: true})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", spillScale))
	run := func(s Session) ([]string, QueryStats) {
		t.Helper()
		res, err := c.ExecuteSession(switchJoin, s)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		st, _ := c.QueryStats(res.QueryID)
		return stringifyRows(rows), st
	}
	unfiltered := Session{Switches: exec.DisableDynamicFilters}
	if !planHasDynamicFilters(t, c, switchJoin, Session{}) || planHasDynamicFilters(t, c, switchJoin, unfiltered) {
		t.Fatal("EXPLAIN: want dynamic filters under the default session and none with them disabled")
	}

	want, st := run(Session{})
	if st.DynRowsFiltered == 0 {
		t.Fatalf("the default plan filtered no probe rows: %+v", st)
	}
	before := c.ServingStats().Plan
	got, st := run(unfiltered)
	assertRows(t, switchJoin+" [unfiltered]", got, want)
	if st.Switches != (exec.DisableResultCache|exec.DisableDynamicFilters).String() || st.DynRowsFiltered != 0 || st.DynFilterWaitNanos != 0 {
		t.Errorf("unfiltered run: switches %q, %d rows filtered, %dns waited for filters; want none filtered or waited",
			st.Switches, st.DynRowsFiltered, st.DynFilterWaitNanos)
	}
	after := c.ServingStats().Plan
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Errorf("unfiltered run: plan cache %+v -> %+v, want one miss: its plan is not the default session's", before, after)
	}

	got, st = run(Session{})
	assertRows(t, switchJoin+" [default again]", got, want)
	if c.ServingStats().Plan.Hits != after.Hits+1 || st.DynRowsFiltered == 0 {
		t.Errorf("default session after the unfiltered run: %d plan hits (want %d), %d rows filtered",
			c.ServingStats().Plan.Hits, after.Hits+1, st.DynRowsFiltered)
	}

	direct := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true,
		DynamicFilterWait: 2 * time.Second})
	defer direct.Close()
	direct.Register(workload.LoadTPCHMemory("tpch", spillScale))
	mustExec(t, direct, "CREATE TABLE none (k BIGINT)")
	assertDirectFeed(t, direct, switchJoin, "SELECT count(*) FROM tpch.lineitem JOIN none ON l_orderkey = none.k")
}
