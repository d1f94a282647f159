package presto

// Serving-tier differential tests: the plan cache, result cache, and shared
// scans are performance layers and must never change results. Every test here
// compares rows with the layers on against the layers off (or against writes
// that must invalidate), using the same sorted-row comparison as the chaos
// suite.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// servingRun executes sql under a session and returns sorted row strings.
func servingRun(t *testing.T, c *Cluster, sql string, s Session) []string {
	t.Helper()
	res, err := c.ExecuteSession(sql, s)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return stringifyRows(rows)
}

// fig6TieKey maps the Figure 6 top-N queries whose row SETS are not uniquely
// defined — ties at the LIMIT cutoff admit several correct answers — to their
// ORDER BY key column. For those, the differential compares the sorted key
// multiset (which IS uniquely defined) instead of full rows.
var fig6TieKey = map[string]int{"q20": 1, "q44": 1, "q60": 1, "q64": 2, "q73": 1}

// keyColumn projects one column of already-stringified source rows.
func keyColumn(t *testing.T, c *Cluster, sql string, s Session, col int) []string {
	t.Helper()
	res, err := c.ExecuteSession(sql, s)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	keyed := make([][]Value, len(rows))
	for i, r := range rows {
		keyed[i] = r[col : col+1]
	}
	return stringifyRows(keyed)
}

// TestServingDifferentialFig6 runs every Figure 6 query three ways — serving
// layers off, cold with layers on, warm repeat served from the caches — and
// requires identical rows each time. HBO is off for both sessions so the
// second on-run deterministically hits the plan cache (history feedback
// otherwise replans once after the first recording).
func TestServingDifferentialFig6(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))

	off := Session{Catalog: "tpch", Switches: exec.DisableHBO | exec.DisablePlanCache | exec.DisableResultCache | exec.DisableSharedScans}
	on := Session{Catalog: "tpch", Switches: exec.DisableHBO}

	for _, q := range workload.Fig6Queries("tpch") {
		if col, tie := fig6TieKey[q.ID]; tie {
			want := keyColumn(t, c, q.SQL, off, col)
			cold := keyColumn(t, c, q.SQL, on, col)
			warm := keyColumn(t, c, q.SQL, on, col)
			assertRows(t, q.ID+" cold (order keys)", cold, want)
			assertRows(t, q.ID+" warm (order keys)", warm, want)
			continue
		}
		want := servingRun(t, c, q.SQL, off)
		cold := servingRun(t, c, q.SQL, on)
		warm := servingRun(t, c, q.SQL, on)
		assertRows(t, q.ID+" cold", cold, want)
		assertRows(t, q.ID+" warm", warm, want)
	}

	st := c.ServingStats()
	if st.Plan.Hits == 0 {
		t.Errorf("no plan-cache hits across warm repeats: %+v", st.Plan)
	}
	if st.Result.Hits == 0 {
		t.Errorf("no result-cache hits across warm repeats: %+v", st.Result)
	}
	if hist := c.Coordinator.StatementLatency(); hist.Total() == 0 {
		t.Error("statement latency histogram recorded nothing")
	}
	if len(c.Coordinator.AdmissionStats()) == 0 {
		t.Error("admission stats empty after queries")
	}
}

// TestServingResultCacheInvalidation interleaves writes with repeat queries:
// a cached result must never survive a write to a table it reads.
func TestServingResultCacheInvalidation(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (k BIGINT)")
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (1), (2), (3))")

	count := func() int64 {
		t.Helper()
		row, err := c.QueryRow("SELECT count(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return row[0].I
	}
	if got := count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	before := c.ServingStats().Result
	if got := count(); got != 3 {
		t.Fatalf("repeat count = %d, want 3", got)
	}
	if after := c.ServingStats().Result; after.Hits <= before.Hits {
		t.Fatalf("repeat query was not served from the result cache: %+v → %+v", before, after)
	}

	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (4))")
	if got := count(); got != 4 {
		t.Fatalf("count after write = %d, want 4 (stale cached result?)", got)
	}

	// DDL invalidates too: drop and recreate under the same name.
	mustExec(t, c, "DROP TABLE t")
	mustExec(t, c, "CREATE TABLE t (k BIGINT)")
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (7))")
	if got := count(); got != 1 {
		t.Fatalf("count after recreate = %d, want 1", got)
	}
}

// TestServingConcurrentWriteWhileRead hammers a table with single-row inserts
// while readers repeat a cached count: every reader must observe a
// non-decreasing sequence (a stale cached result would step backwards).
func TestServingConcurrentWriteWhileRead(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE w (k BIGINT)")
	mustExec(t, c, "INSERT INTO w SELECT * FROM (VALUES (0))")

	const writes = 20
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			if _, err := c.Query(fmt.Sprintf("INSERT INTO w SELECT * FROM (VALUES (%d))", i)); err != nil {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < 2*writes; i++ {
				row, err := c.QueryRow("SELECT count(*) FROM w")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if row[0].I < last {
					errs <- fmt.Errorf("reader %d: count went backwards %d → %d (stale cached result)", r, last, row[0].I)
					return
				}
				last = row[0].I
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, err := c.QueryRow("SELECT count(*) FROM w"); err != nil || got[0].I != writes+1 {
		t.Fatalf("final count = %v (err %v), want %d", got, err, writes+1)
	}
}

// TestServingResultCacheCorruptionChaos injects checksum corruption into
// result-cache hits: every corrupted hit must degrade to a miss and
// re-execute, never serve bad pages.
func TestServingResultCacheCorruptionChaos(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteResultCacheCorrupt, Kind: faultinject.KindError,
		Rate: 1, MaxFaults: 2,
	})
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, FaultInjector: inj})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))

	s := Session{Catalog: "tpch", Switches: exec.DisableHBO}
	sql := "SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem GROUP BY l_returnflag"
	want := servingRun(t, c, sql, s) // cold: executes and caches
	for i := 0; i < 3; i++ {
		// Repeats 1 and 2 hit corrupted entries (degrade to re-execution);
		// repeat 3 is a clean hit. All must agree.
		got := servingRun(t, c, sql, s)
		assertRows(t, fmt.Sprintf("repeat %d", i+1), got, want)
	}
	st := c.ServingStats().Result
	if st.Corruptions != 2 {
		t.Errorf("corruptions = %d, want 2: %+v", st.Corruptions, st)
	}
	if st.Hits == 0 {
		t.Errorf("no clean hit after faults drained: %+v", st)
	}
}

// TestServingSharedScanDifferential runs a concurrent burst of identical
// scan-heavy queries with the page and result caches disabled — the
// configuration where leaf scans reach the shared-scan hub — and requires
// every run to return the rows a sharing-off session returns, with at least
// one consumer having joined another query's scan.
func TestServingSharedScanDifferential(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 4,
		SharedScanWindow: 2 * time.Second})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.2))
	coldCatalog(t, c.catalog, "tpch")

	// Page cache off so scans reach the hub; result cache off so every run
	// actually executes; plan cache off so runs stay symmetric.
	shared := Session{Catalog: "tpch", Switches: exec.DisableCache | exec.DisableResultCache | exec.DisablePlanCache}
	private := shared
	private.Switches |= exec.DisableSharedScans

	// Aggregates chosen to be arrival-order independent (integral sums,
	// min/max): parallel partial aggregation reorders float addition with or
	// without sharing, which is not what this test is about.
	sql := "SELECT l_returnflag, l_shipmode, count(*), sum(l_quantity), " +
		"min(l_extendedprice), max(l_extendedprice) " +
		"FROM lineitem GROUP BY l_returnflag, l_shipmode"
	want := servingRun(t, c, sql, private)

	const burst = 8
	joined := false
	for attempt := 0; attempt < 5 && !joined; attempt++ {
		results := make([][]string, burst)
		errs := make([]error, burst)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				res, err := c.ExecuteSession(sql, shared)
				if err != nil {
					errs[i] = err
					return
				}
				rows, err := res.All()
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = stringifyRows(rows)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := 0; i < burst; i++ {
			if errs[i] != nil {
				t.Fatalf("burst query %d: %v", i, errs[i])
			}
			assertRows(t, fmt.Sprintf("burst query %d", i), results[i], want)
		}
		joined = c.SharedScanStats().Joined > 0
	}
	st := c.SharedScanStats()
	if st.Joined == 0 {
		t.Errorf("no shared-scan joins across concurrent bursts: %+v", st)
	}
	// Completed logs linger joinable inside the window; clearing (or the
	// window timer) must hand every byte back.
	c.ClearServingCaches()
	if st := c.SharedScanStats(); st.ActiveEntries != 0 || st.LogBytes != 0 {
		t.Errorf("shared-scan state leaked after clear: %+v", st)
	}
}

// TestServingPlanCacheHBOReplan leaves history feedback on: the first run
// records cardinalities (bumping the history generation), so the second run
// must detect the stale generation and replan rather than reuse the cached
// plan — and by the third run the generation is stable and the cache serves.
// Rows must be identical throughout.
func TestServingPlanCacheHBOReplan(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))

	s := Session{Catalog: "tpch"}
	sql := "SELECT c_mktsegment, count(*) FROM orders JOIN customer ON o_custkey = c_custkey " +
		"GROUP BY c_mktsegment"
	want := servingRun(t, c, sql, s)
	for i := 0; i < 3; i++ {
		got := servingRun(t, c, sql, s)
		assertRows(t, fmt.Sprintf("run %d", i+2), got, want)
	}
	if st := c.ServingStats().Plan; st.Hits == 0 {
		t.Errorf("plan cache never served once history stabilized: %+v", st)
	}
}
