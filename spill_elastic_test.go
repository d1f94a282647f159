package presto

// Larger-than-memory execution test wall (paper §IV-F2 + recoverable
// exchanges): differential spill tests run TPC-H shapes with the memory pool
// capped far below the working set and require row-identical results to the
// uncapped run, cold and warm; elastic tests kill and add workers mid-query
// under materialized exchange and require completion without a query
// restart; leak tests require every spill temp file and exchange segment
// deleted on success, failure, and cancellation.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/shuffle"
	"repro/internal/spill"
	"repro/internal/workload"
)

// spillQueries are shapes whose hash-aggregation and join-build state
// dominates memory: high-cardinality group-by, join+agg, and a Q1-style
// wide aggregate with doubles.
var spillQueries = []string{
	"SELECT l_orderkey, sum(l_quantity), count(*) FROM tpch.lineitem GROUP BY l_orderkey",
	"SELECT o_orderpriority, count(*), sum(l_extendedprice) FROM tpch.lineitem JOIN tpch.orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority",
	"SELECT l_returnflag, l_shipmode, sum(l_quantity), avg(l_extendedprice), count(*) FROM tpch.lineitem GROUP BY l_returnflag, l_shipmode",
}

const spillScale = 0.05

// roundedRows stringifies rows with doubles rounded to 12 significant
// digits: spilling changes floating-point accumulation order, so sums may
// differ in the last ULP without being wrong.
func roundedRows(rows [][]Value) []string {
	out := make([][]Value, len(rows))
	for i, row := range rows {
		out[i] = make([]Value, len(row))
		for j, v := range row {
			out[i][j] = v
			if v.T == Double && !v.Null {
				f, _ := strconv.ParseFloat(strconv.FormatFloat(v.F, 'g', 12, 64), 64)
				out[i][j].F = f
			}
		}
	}
	return stringifyRows(out)
}

// querySession runs a statement with explicit session settings and collects
// all rows.
func querySession(c *Cluster, sql string, s Session) ([][]Value, error) {
	res, err := c.ExecuteSession(sql, s)
	if err != nil {
		return nil, err
	}
	return res.All()
}

// spillBaseline computes uncapped answers and the peak working set once.
var spillBaseline struct {
	once sync.Once
	rows map[string][]string
	peak int64
	err  error
}

func spillBaselineRows(t *testing.T) (map[string][]string, int64) {
	t.Helper()
	spillBaseline.once.Do(func() {
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
			DisablePlanCache: true, DisableResultCache: true})
		defer c.Close()
		c.Register(workload.LoadTPCHMemory("tpch", spillScale))
		m := map[string][]string{}
		for _, q := range spillQueries {
			res, err := c.Execute(q)
			if err != nil {
				spillBaseline.err = fmt.Errorf("baseline %q: %w", q, err)
				return
			}
			rows, err := res.All()
			if err != nil {
				spillBaseline.err = fmt.Errorf("baseline %q: %w", q, err)
				return
			}
			m[q] = roundedRows(rows)
			if info, ok := c.Coordinator.QueryInfo(res.QueryID); ok && info.PeakMemory > spillBaseline.peak {
				spillBaseline.peak = info.PeakMemory
			}
		}
		spillBaseline.rows = m
	})
	if spillBaseline.err != nil {
		t.Fatal(spillBaseline.err)
	}
	return spillBaseline.rows, spillBaseline.peak
}

// spillCapFloor is the least per-node user limit a capped spill test runs
// under: under a third of what the three statements reserve at this scale
// (~86 KB), so the aggregations and the join build both spill, and room
// enough for a page's worth of groups between two reservations.
const spillCapFloor = 24 << 10

// cappedCluster builds a spill-enabled cluster whose per-node user limit is
// the given fraction of the measured uncapped working set, but no less than
// spillCapFloor.
func cappedCluster(t *testing.T, peak int64, frac int64, extra func(*ClusterConfig)) *Cluster {
	t.Helper()
	cap := max(peak/frac, spillCapFloor)
	cfg := ClusterConfig{
		Workers:                 2,
		ThreadsPerWorker:        2,
		SpillEnabled:            true,
		SpillDir:                t.TempDir(),
		PerNodeQueryMemoryBytes: cap,
		DisablePlanCache:        true,
		DisableResultCache:      true,
	}
	if extra != nil {
		extra(&cfg)
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", spillScale))
	return c
}

// checkNoSpillArtifactLeaks polls until every spill file and exchange
// segment created since the baselines has been deleted and the shared
// exchange store holds no entries. Cleanup runs asynchronously after the
// result closes.
func checkNoSpillArtifactLeaks(t *testing.T, c *Cluster, spillBase spill.Stats, segBase shuffle.SegmentStats) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sp := spill.CurrentStats()
		sg := shuffle.CurrentSegmentStats()
		spLeak := (sp.FilesCreated - spillBase.FilesCreated) - (sp.FilesDeleted - spillBase.FilesDeleted)
		sgLeak := (sg.SegmentsCreated - segBase.SegmentsCreated) - (sg.SegmentsDeleted - segBase.SegmentsDeleted)
		entries := 0
		if c != nil {
			entries = c.Coordinator.ExchangeStore().EntryCount()
		}
		if spLeak == 0 && sgLeak == 0 && entries == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("disk artifact leak: %d spill files, %d exchange segments, %d store entries",
				spLeak, sgLeak, entries)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSpillDifferentialWall is the acceptance differential: every spill
// query runs with the pool capped at 1/16 of the measured uncapped working
// set, cold and warm, and must return rows identical to the uncapped run.
// The run must actually spill, and every spill file must be deleted.
func TestSpillDifferentialWall(t *testing.T) {
	base, peak := spillBaselineRows(t)
	spillBase := spill.CurrentStats()
	segBase := shuffle.CurrentSegmentStats()
	c := cappedCluster(t, peak, 16, nil)
	for round := 0; round < 2; round++ { // cold, then warm
		for _, q := range spillQueries {
			rows, err := c.Query(q)
			if err != nil {
				t.Fatalf("capped round %d %q: %v", round, q, err)
			}
			assertRows(t, fmt.Sprintf("round %d: %s", round, q), roundedRows(rows), base[q])
		}
	}
	sp := spill.CurrentStats()
	if sp.FilesCreated == spillBase.FilesCreated {
		t.Fatalf("pool capped at %d (1/16 of peak %d) never spilled — differential proved nothing", peak/16, peak)
	}
	if sp.BytesRead == spillBase.BytesRead {
		t.Fatal("spilled state was never read back on drain")
	}
	checkNoSpillArtifactLeaks(t, c, spillBase, segBase)
}

// TestSpillDifferentialMaterialized repeats the capped differential with
// materialized exchange on: spilling operators and disk-backed shuffles
// compose.
func TestSpillDifferentialMaterialized(t *testing.T) {
	base, peak := spillBaselineRows(t)
	spillBase := spill.CurrentStats()
	segBase := shuffle.CurrentSegmentStats()
	c := cappedCluster(t, peak, 8, nil)
	for _, q := range spillQueries {
		rows, err := querySession(c, q, Session{Switches: exec.MaterializedExchange})
		if err != nil {
			t.Fatalf("capped+materialized %q: %v", q, err)
		}
		assertRows(t, q, roundedRows(rows), base[q])
	}
	sg := shuffle.CurrentSegmentStats()
	if sg.SegmentsCreated == segBase.SegmentsCreated {
		t.Fatal("materialized session produced no exchange segments")
	}
	checkNoSpillArtifactLeaks(t, c, spillBase, segBase)
}

// TestSpillDisabledSessionOOM locks in the ablation: with spill disabled for
// the session, the same capped query fails cleanly with the §IV-F2
// exceeded-limit error instead of spilling, and succeeds again when the next
// session allows spill.
func TestSpillDisabledSessionOOM(t *testing.T) {
	_, peak := spillBaselineRows(t)
	c := cappedCluster(t, peak, 16, nil)
	q := spillQueries[0]

	_, err := querySession(c, q, Session{Switches: exec.DisableSpill})
	if err == nil {
		t.Fatalf("capped query with spill disabled succeeded; want memory-limit failure")
	}
	if !strings.Contains(err.Error(), "memory limit") && !strings.Contains(err.Error(), "pool exhausted") {
		t.Fatalf("spill-disabled failure is not the memory-limit error: %v", err)
	}

	rows, err := c.Query(q)
	if err != nil {
		t.Fatalf("same query with spill enabled: %v", err)
	}
	base, _ := spillBaselineRows(t)
	assertRows(t, q, roundedRows(rows), base[q])
}

// TestJoinUnderSpillFinishes: a join whose probe side is a leaf scan and
// whose build side must spill finishes, with the uncapped run's rows, at a
// split-concurrency target of 1 and of 4, in-process and on HTTP workers. The
// probe of a spilled build waits for every probe driver to have finished its
// input, and used to wait forever twice over: when the task declared a scan
// pipeline's drivers complete only once they had all exited (bench/README
// engine defect 4), and, while a scan could run a driver per split, when
// fewer drivers could run than the probe scan had splits (a target of 1).
func TestJoinUnderSpillFinishes(t *testing.T) {
	const scale, perNodeCap = 0.5, 200 << 10
	q := spillQueries[1]
	uncapped := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
	defer uncapped.Close()
	uncapped.Register(workload.LoadTPCHMemory("tpch", scale))
	want, err := uncapped.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{1, 4} {
		for _, remote := range []bool{false, true} {
			name := fmt.Sprintf("target %d in-process", target)
			if remote {
				name = fmt.Sprintf("target %d on HTTP workers", target)
			}
			t.Run(name, func(t *testing.T) {
				var query func(string) ([][]Value, error)
				if remote {
					d := newDistClusterWith(t, 2, distConfig{
						spill: &distSpillConfig{dir: t.TempDir(), perNodeCap: perNodeCap},
						task:  exec.TaskConfig{TargetSplitConcurrency: target},
					})
					d.catalog.Register(workload.LoadTPCHMemory("tpch", scale))
					query = d.Query
				} else {
					c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, SpillEnabled: true, SpillDir: t.TempDir(),
						PerNodeQueryMemoryBytes: perNodeCap, DisableResultCache: true, TargetSplitConcurrency: target})
					t.Cleanup(c.Close)
					c.Register(workload.LoadTPCHMemory("tpch", scale))
					query = c.Query
				}
				spillBase := spill.CurrentStats()
				for round := 0; round < 3; round++ {
					var got [][]Value
					done := make(chan error, 1)
					go func() {
						var err error
						got, err = query(q)
						done <- err
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(30 * time.Second):
						t.Fatalf("round %d: join under spill made no progress for 30s", round)
					}
					assertRows(t, fmt.Sprintf("round %d: %s", round, q), roundedRows(got), roundedRows(want))
				}
				if sp := spill.CurrentStats(); sp.FilesCreated == spillBase.FilesCreated {
					t.Fatal("the capped join never spilled")
				}
			})
		}
	}
}

// TestSpillCancelCleansArtifacts cancels a capped, spilling, materialized
// query mid-flight and requires every spill temp file and exchange segment
// deleted afterwards.
func TestSpillCancelCleansArtifacts(t *testing.T) {
	_, peak := spillBaselineRows(t)
	spillBase := spill.CurrentStats()
	segBase := shuffle.CurrentSegmentStats()
	c := cappedCluster(t, peak, 16, nil)
	for i := 0; i < 3; i++ {
		res, err := c.ExecuteSession(spillQueries[0], Session{Switches: exec.MaterializedExchange})
		if err != nil {
			t.Fatal(err)
		}
		// Let tasks run (and spill) a little, then abandon the result.
		time.Sleep(time.Duration(10+20*i) * time.Millisecond)
		res.Close()
	}
	checkNoSpillArtifactLeaks(t, c, spillBase, segBase)
}

// TestMaterializedExchangeDifferential checks the materialized shuffle path
// alone (no memory pressure): every chaos query returns the same rows as
// the in-memory exchange.
func TestMaterializedExchangeDifferential(t *testing.T) {
	base := baselineRows(t)
	segBase := shuffle.CurrentSegmentStats()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, SpillDir: t.TempDir(),
		DisablePlanCache: true, DisableResultCache: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	for _, q := range chaosQueries {
		rows, err := querySession(c, q, Session{Switches: exec.MaterializedExchange})
		if err != nil {
			t.Fatalf("materialized %q: %v", q, err)
		}
		assertRows(t, q, stringifyRows(rows), base[q])
	}
	sg := shuffle.CurrentSegmentStats()
	if sg.EntriesSealed == segBase.EntriesSealed {
		t.Fatal("materialized differential sealed no entries")
	}
	checkNoSpillArtifactLeaks(t, c, spill.CurrentStats(), segBase)
}

// TestElasticKillWorkerMidQuery is the headline acceptance test: a 4-worker
// cluster runs an aggregation under materialized exchange, one worker dies
// mid-query, and the query completes with correct rows — only the lost
// tasks re-place; the query is never restarted (restart would show up as a
// second admission, which this path does not have).
func TestElasticKillWorkerMidQuery(t *testing.T) {
	base := baselineRows(t)
	q := chaosQueries[1] // shuffle-heavy grouped aggregate

	for kill := 0; kill < 4; kill++ {
		segBase := shuffle.CurrentSegmentStats()
		c := NewCluster(ClusterConfig{Workers: 4, ThreadsPerWorker: 2, SpillDir: t.TempDir(),
			DisablePlanCache: true, DisableResultCache: true})
		c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

		res, err := c.ExecuteSession(q, Session{Switches: exec.MaterializedExchange})
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(5 * time.Millisecond)
			c.KillWorker(kill)
		}()
		rows, err := res.All()
		<-done
		if err != nil {
			c.Close()
			t.Fatalf("kill worker %d: query failed instead of recovering: %v", kill, err)
		}
		assertRows(t, fmt.Sprintf("kill %d: %s", kill, q), stringifyRows(rows), base[q])
		checkNoSpillArtifactLeaks(t, c, spill.CurrentStats(), segBase)
		c.Close()
	}
}

// TestElasticScaleOutMidQuery adds workers while queries run: new nodes
// join the arbiter and scheduling list without disturbing in-flight work,
// and subsequent queries schedule onto them.
func TestElasticScaleOutMidQuery(t *testing.T) {
	base := baselineRows(t)
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, SpillDir: t.TempDir(),
		DisablePlanCache: true, DisableResultCache: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	res, err := c.ExecuteSession(chaosQueries[1], Session{Switches: exec.MaterializedExchange})
	if err != nil {
		t.Fatal(err)
	}
	w := c.AddWorker() // joins mid-query
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, chaosQueries[1], stringifyRows(rows), base[chaosQueries[1]])

	// The next query runs across all three nodes: the new worker gets tasks.
	rows, err = querySession(c, chaosQueries[1], Session{Switches: exec.MaterializedExchange})
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, chaosQueries[1], stringifyRows(rows), base[chaosQueries[1]])
	if len(c.Coordinator.Workers()) != 3 {
		t.Fatalf("scheduling list has %d workers, want 3", len(c.Coordinator.Workers()))
	}
	_ = w
}

// TestElasticChaosSwarm is the 100-worker churn suite: workers join and die
// continuously while shuffle-heavy queries run under materialized exchange
// with a bounded memory cap. Every query must either succeed with correct
// rows or fail with a clean error (replacement budget exhausted); afterwards
// nothing leaks — goroutines, pool bytes, spill files, exchange segments.
func TestElasticChaosSwarm(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm is slow")
	}
	base := baselineRows(t)
	spillBase := spill.CurrentStats()
	segBase := shuffle.CurrentSegmentStats()
	goroutineBaseline := runtime.NumGoroutine()

	c := NewCluster(ClusterConfig{Workers: 8, ThreadsPerWorker: 1, SpillEnabled: true,
		SpillDir: t.TempDir(), PerNodeQueryMemoryBytes: 32 << 20,
		DisablePlanCache: true, DisableResultCache: true})
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	// Churn: every few milliseconds a new worker joins and an old one dies,
	// pushing total workers seen past 100 while keeping ~8 alive.
	stop := make(chan struct{})
	var churned int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(4 * time.Millisecond):
				w := c.AddWorker()
				c.KillWorker(victim)
				victim = w.ID - 7 // keep the window ~8 wide
				churned++
			}
		}
	}()

	succeeded := 0
	for i := 0; i < 12; i++ {
		q := chaosQueries[i%len(chaosQueries)]
		rows, err := querySession(c, q, Session{Switches: exec.MaterializedExchange})
		if err == nil {
			assertRows(t, q, stringifyRows(rows), base[q])
			succeeded++
			continue
		}
		// A query may legitimately fail when churn outruns the replacement
		// budget — but it must fail as task loss, not as corruption.
		if !strings.Contains(err.Error(), "worker lost") && !strings.Contains(err.Error(), "is dead") &&
			!strings.Contains(err.Error(), "no workers left") {
			t.Fatalf("swarm query %q failed outside the loss model: %v", q, err)
		}
	}
	close(stop)
	wg.Wait()
	if churned < 100 {
		// The loop above is time-bounded by the queries; make sure the suite
		// actually exercised 100+ workers before calling it elastic.
		for churned < 100 {
			w := c.AddWorker()
			c.KillWorker(w.ID - 7)
			churned++
		}
	}
	if succeeded == 0 {
		t.Fatal("no swarm query succeeded; recovery never worked")
	}
	t.Logf("swarm: %d/12 queries succeeded under churn of %d workers", succeeded, churned)

	checkNoSpillArtifactLeaks(t, c, spillBase, segBase)
	// Pool bytes drain once every query is done (killed workers' pools are
	// cleaned by query close, which releases per-node reservations).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var pooled int64
		for _, w := range c.Workers() {
			pooled += w.Pool.GeneralUsed() - w.CacheStats().Bytes
		}
		if pooled <= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool leak after swarm: %d bytes", pooled)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.Close()
	deadline = time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > goroutineBaseline+10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after swarm: %d, baseline %d", runtime.NumGoroutine(), goroutineBaseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSpillDisabledGlobalStillCleanOOM drives the global-user limit (not
// just per-node) into exhaustion with spill off and requires the clean
// §IV-F2 error.
func TestSpillDisabledGlobalStillCleanOOM(t *testing.T) {
	_, peak := spillBaselineRows(t)
	c := cappedCluster(t, peak, 16, func(cfg *ClusterConfig) {
		cfg.SpillEnabled = false
		cfg.QueryMemoryBytes = peak / 16
	})
	_, err := c.Query(spillQueries[0])
	if err == nil {
		t.Fatal("globally capped, spill-off query succeeded")
	}
	if !strings.Contains(err.Error(), "memory limit") && !strings.Contains(err.Error(), "pool exhausted") {
		t.Fatalf("failure is not the memory-limit error: %v", err)
	}
}

// TestDistributedSpillDifferential runs the spill shapes through the
// HTTP-distributed cluster with each worker's per-node limit capped far
// below the working set: rows must match the uncapped embedded engine, and
// the workers must actually have spilled.
func TestDistributedSpillDifferential(t *testing.T) {
	base, peak := spillBaselineRows(t)
	cap := max(peak/8, spillCapFloor)
	spillBase := spill.CurrentStats()
	d := newDistClusterSpill(t, 2, nil, &distSpillConfig{dir: t.TempDir(), perNodeCap: cap})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", spillScale))
	for _, q := range spillQueries {
		rows, err := d.Query(q)
		if err != nil {
			t.Fatalf("distributed capped %q: %v", q, err)
		}
		assertRows(t, q, roundedRows(rows), base[q])
	}
	sp := spill.CurrentStats()
	if sp.FilesCreated == spillBase.FilesCreated {
		t.Fatalf("distributed run with per-node cap %d never spilled", cap)
	}
	checkNoSpillArtifactLeaks(t, nil, spillBase, shuffle.CurrentSegmentStats())
}

// guard against accidental unused imports when tests are filtered.
var _ = memory.QueryLimits{}
