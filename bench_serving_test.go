package presto

// Closed-loop serving-tier benchmark (the high-QPS tier of §III: interactive
// dashboards repeat a small statement set at high concurrency). A fixed pool
// of clients each runs a statement loop — issue, drain, repeat — so offered
// load tracks completion rate, and every statement latency is recorded.
//
// TestServingClosedLoopBench is the full run: thousands of statements, one
// phase with every serving layer disabled per session and one with the
// serving defaults, reporting QPS and p50/p95/p99 per phase. It only runs
// when BENCH8_OUT names an output file (scripts/bench.sh sets it, along with
// GIT_SHA for stamping) so `go test ./...` stays fast.
//
// TestServingQPSSmoke is the always-on miniature used by scripts/check.sh:
// a short closed loop that must complete error-free with warm statements
// served from the result cache.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/connectors/hive"
	"repro/internal/exec"
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

// latQuantile returns the q-quantile (0..1) of the sorted latency slice.
func latQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

type bench8Phase struct {
	Name       string  `json:"name"`
	Clients    int     `json:"clients"`
	Statements int     `json:"statements"`
	Seconds    float64 `json:"seconds"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

type bench8Doc struct {
	Bench           string        `json:"bench"`
	SHA             string        `json:"sha"`
	Go              string        `json:"go"`
	Phases          []bench8Phase `json:"phases"`
	PlanHits        int64         `json:"plan_cache_hits"`
	ResultHits      int64         `json:"result_cache_hits"`
	SharedJoined    int64         `json:"shared_scan_joined"`
	WarmSpeedupQPS  float64       `json:"warm_speedup_qps"`
	WarmSpeedupP50  float64       `json:"warm_speedup_p50"`
	ShareSpeedupQPS float64       `json:"scanshare_speedup_qps"`
}

func bench8PhaseStats(name string, clients int, wall time.Duration, lats []time.Duration) bench8Phase {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return bench8Phase{
		Name:       name,
		Clients:    clients,
		Statements: len(lats),
		Seconds:    wall.Seconds(),
		QPS:        float64(len(lats)) / wall.Seconds(),
		P50Ms:      ms(latQuantile(lats, 0.50)),
		P95Ms:      ms(latQuantile(lats, 0.95)),
		P99Ms:      ms(latQuantile(lats, 0.99)),
	}
}

// TestServingClosedLoopBench measures the serving tier end to end and writes
// BENCH8_OUT. The off phase disables the plan cache, result cache, and shared
// scans per session (execution engine identical otherwise); the on phase runs
// the serving defaults. HBO is off in both so the phases differ only in the
// serving layers.
func TestServingClosedLoopBench(t *testing.T) {
	out := os.Getenv("BENCH8_OUT")
	if out == "" {
		t.Skip("set BENCH8_OUT=<file> to run the closed-loop serving benchmark")
	}
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 4})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))
	stmts := servingBenchStatements("tpch")

	const clients = 16
	const perClient = 160 // 2560 statements per phase

	off := Session{Catalog: "tpch", Switches: exec.DisableHBO | exec.DisablePlanCache | exec.DisableResultCache | exec.DisableSharedScans}
	on := Session{Catalog: "tpch", Switches: exec.DisableHBO}

	offWall, offLats := servingClosedLoop(t, c, off, clients, perClient, stmts)
	c.ClearServingCaches() // the on phase warms from scratch
	onWall, onLats := servingClosedLoop(t, c, on, clients, perClient, stmts)

	// Shared scans isolated. Over zero-copy in-memory tables sharing is
	// roughly QPS-neutral (saved opens trade against replay-log contention),
	// so this pair measures where the layer actually pays: a hive lake with
	// simulated remote-read delay, result and page caches disabled per
	// session (scans must actually run), toggling only scan sharing — one
	// physical delayed read per window instead of one per query.
	lake, err := workload.LoadTPCHHiveConfig("lake", 0.1, hive.Config{
		Dir: t.TempDir(), LazyReads: false, StripeRows: 4096, ReadDelayPerByte: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(lake)
	lakeStmts := []string{
		"SELECT l_returnflag, count(*), sum(l_quantity) FROM lake.lineitem GROUP BY l_returnflag",
		"SELECT o_orderstatus, count(*) FROM lake.orders GROUP BY o_orderstatus",
	}
	shareOff := Session{Catalog: "lake", Switches: exec.DisableHBO | exec.DisableCache | exec.DisableResultCache | exec.DisableSharedScans}
	shareOn := shareOff
	shareOn.Switches &^= exec.DisableSharedScans
	const sharePerClient = 20
	shareOffWall, shareOffLats := servingClosedLoop(t, c, shareOff, clients, sharePerClient, lakeStmts)
	shareOnWall, shareOnLats := servingClosedLoop(t, c, shareOn, clients, sharePerClient, lakeStmts)

	offPhase := bench8PhaseStats("serving-off", clients, offWall, offLats)
	onPhase := bench8PhaseStats("serving-on", clients, onWall, onLats)
	shareOffPhase := bench8PhaseStats("scanshare-off", clients, shareOffWall, shareOffLats)
	shareOnPhase := bench8PhaseStats("scanshare-on", clients, shareOnWall, shareOnLats)
	st := c.ServingStats()
	doc := bench8Doc{
		Bench:           "closed-loop interactive serving: plan+result caches and shared scans on vs per-session off",
		SHA:             firstNonEmpty(os.Getenv("GIT_SHA"), "unknown"),
		Go:              runtime.Version(),
		Phases:          []bench8Phase{offPhase, onPhase, shareOffPhase, shareOnPhase},
		PlanHits:        st.Plan.Hits,
		ResultHits:      st.Result.Hits,
		SharedJoined:    c.SharedScanStats().Joined,
		WarmSpeedupQPS:  onPhase.QPS / offPhase.QPS,
		WarmSpeedupP50:  offPhase.P50Ms / onPhase.P50Ms,
		ShareSpeedupQPS: shareOnPhase.QPS / shareOffPhase.QPS,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("off: %.0f qps p50=%.2fms p99=%.2fms", offPhase.QPS, offPhase.P50Ms, offPhase.P99Ms)
	t.Logf("on:  %.0f qps p50=%.2fms p99=%.2fms (speedup %.1fx qps, %.1fx p50)",
		onPhase.QPS, onPhase.P50Ms, onPhase.P99Ms, doc.WarmSpeedupQPS, doc.WarmSpeedupP50)
	t.Logf("scanshare: %.0f qps off, %.0f qps on (%.2fx, joined %d)",
		shareOffPhase.QPS, shareOnPhase.QPS, doc.ShareSpeedupQPS, doc.SharedJoined)

	// The acceptance bar: warm repeats must be faster than re-execution.
	if doc.WarmSpeedupQPS <= 1 {
		t.Errorf("serving tier did not improve closed-loop QPS: off %.0f vs on %.0f",
			offPhase.QPS, onPhase.QPS)
	}
	if st.Result.Hits == 0 || st.Plan.Hits == 0 {
		t.Errorf("on phase never hit the serving caches: %+v", st)
	}
	if doc.SharedJoined == 0 {
		t.Errorf("scan-share phase never joined a shared scan")
	}
}

func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

// TestServingQPSSmoke is the check.sh gate: a short closed loop on serving
// defaults that must complete error-free with warm statements served from the
// caches.
func TestServingQPSSmoke(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))
	stmts := servingBenchStatements("tpch")

	wall, lats := servingClosedLoop(t, c, Session{Catalog: "tpch", Switches: exec.DisableHBO}, 4, 40, stmts)
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
