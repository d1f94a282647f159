package presto

// Chaos suite: runs TPC-H queries under randomized injected faults at the
// engine's I/O seams (split enumeration, shuffle fetches, task creation) and
// asserts the failure model of DESIGN.md — transient faults are masked by
// retry/re-admission and produce bit-identical results; fatal faults fail the
// query cleanly, leaking no goroutines, tasks, or memory-pool bytes.
//
// The suite is deterministic: CHAOS_SEED pins the injector seed (default 7)
// so a failing run replays exactly; CHAOS_FULL=1 widens the randomized-mix
// test to more seeds. scripts/check.sh runs the suite under -race.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/memconn"
	"repro/internal/faultinject"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/workload"
)

// chaosSeed is the injector seed: CHAOS_SEED overrides the default so a
// failure is replayable from its log line.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 7
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// chaosQueries exercise the shapes that stress each seam: a single-stage
// aggregate, multi-stage grouped aggregates (shuffle-heavy), and a
// repartitioned join.
var chaosQueries = []string{
	"SELECT count(*) FROM tpch.lineitem",
	"SELECT l_returnflag, l_shipmode, sum(l_quantity), count(*) FROM tpch.lineitem GROUP BY l_returnflag, l_shipmode ORDER BY l_returnflag, l_shipmode",
	"SELECT o_orderpriority, count(*) FROM tpch.orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
	"SELECT c_mktsegment, count(*) FROM tpch.orders JOIN tpch.customer ON o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment",
}

const chaosScale = 0.05

func chaosCluster(t *testing.T, inj *faultinject.Injector) *Cluster {
	t.Helper()
	// Serving caches stay off: these tests target the page-cache, shuffle
	// and split seams, and a result-cache hit would short-circuit all three.
	// The serving tier has its own chaos coverage in serving_test.go.
	// Statistics are off too: over tables this small every chaos query would
	// be one task, with no shuffle and no second stage to fault.
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, FaultInjector: inj,
		DisablePlanCache: true, DisableResultCache: true, DisableStats: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	requireDistributed(t, c.Coordinator, chaosQueries...)
	return c
}

// chaosBaseline caches the fault-free answers, computed once per test binary.
var chaosBaseline struct {
	once sync.Once
	rows map[string][]string
	err  error
}

func baselineRows(t *testing.T) map[string][]string {
	t.Helper()
	chaosBaseline.once.Do(func() {
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
		defer c.Close()
		c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
		m := map[string][]string{}
		for _, q := range chaosQueries {
			rows, err := c.Query(q)
			if err != nil {
				chaosBaseline.err = fmt.Errorf("baseline %q: %w", q, err)
				return
			}
			m[q] = stringifyRows(rows)
		}
		chaosBaseline.rows = m
	})
	if chaosBaseline.err != nil {
		t.Fatal(chaosBaseline.err)
	}
	return chaosBaseline.rows
}

// stringifyRows renders rows sorted so comparisons ignore row order (fault
// retries can reorder page arrival without changing the result set).
func stringifyRows(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func assertRows(t *testing.T, query string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", query, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", query, i, got[i], want[i])
		}
	}
}

// checkNoLeaks polls until every worker's general pool is drained and the
// goroutine count is back near the pre-query baseline; queries wind down
// asynchronously after a failure, so give them a grace window.
func checkNoLeaks(t *testing.T, c *Cluster, goroutineBaseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var pooled int64
		for _, w := range c.Workers() {
			pooled += w.Pool.GeneralUsed()
		}
		g := runtime.NumGoroutine()
		if pooled == 0 && g <= goroutineBaseline+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after failure: %d pool bytes, %d goroutines (baseline %d)",
				pooled, g, goroutineBaseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertShuffleFaultsMasked runs every chaos query through query, a cluster
// whose shuffle fetches inj faults, and checks each answer against the
// fault-free one and that the faults fired.
func assertShuffleFaultsMasked(t *testing.T, inj *faultinject.Injector, query func(string) ([][]Value, error)) {
	t.Helper()
	base := baselineRows(t)
	for _, q := range chaosQueries {
		rows, err := query(q)
		if err != nil {
			t.Fatalf("%s under shuffle faults: %v", q, err)
		}
		assertRows(t, q, stringifyRows(rows), base[q])
	}
	if inj.Count(faultinject.SiteShuffleFetch) == 0 {
		t.Fatal("no shuffle faults fired; the test exercised nothing")
	}
}

// shuffleErrors is a 10% transient error rate on every shuffle fetch.
var shuffleErrors = faultinject.Rule{
	Site: faultinject.SiteShuffleFetch, Kind: faultinject.KindError, Rate: 0.10, Transient: true,
}

// shufflePartialPages makes 30% of the shuffle fetches return only a prefix
// of the available pages.
var shufflePartialPages = faultinject.Rule{
	Site: faultinject.SiteShuffleFetch, Kind: faultinject.KindPartial, Rate: 0.3,
}

// distChaosCluster is two HTTP workers whose co-located shuffle edges — a
// consumer reading a producer on its own worker, in memory — carry inj's
// faults. The coordinator and the edges between workers carry none, so every
// fault that fires is on a co-located edge.
func distChaosCluster(t *testing.T, inj *faultinject.Injector) *distCluster {
	t.Helper()
	d := newDistClusterWith(t, 2, distConfig{inj: inj, workersOnly: true, noStats: true})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	requireDistributed(t, d.Coord, chaosQueries...)
	return d
}

// TestChaosShuffleErrorsMasked injects a 10% transient error rate on every
// shuffle fetch; the exchange-client retry protocol must mask all of it.
func TestChaosShuffleErrorsMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), shuffleErrors)
	assertShuffleFaultsMasked(t, inj, chaosCluster(t, inj).Query)
}

// TestChaosHTTPShuffleErrorsMasked is TestChaosShuffleErrorsMasked on the
// co-located edges of HTTP workers.
func TestChaosHTTPShuffleErrorsMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), shuffleErrors)
	assertShuffleFaultsMasked(t, inj, distChaosCluster(t, inj).Query)
}

// TestChaosShufflePartialPagesMasked injects partial-delivery faults (a fetch
// returns only a prefix of the available pages); the token protocol must
// re-deliver the remainder with no loss, duplication, or reordering.
func TestChaosShufflePartialPagesMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), shufflePartialPages)
	assertShuffleFaultsMasked(t, inj, chaosCluster(t, inj).Query)
}

// TestChaosHTTPShufflePartialPagesMasked is
// TestChaosShufflePartialPagesMasked on the co-located edges of HTTP workers.
func TestChaosHTTPShufflePartialPagesMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), shufflePartialPages)
	assertShuffleFaultsMasked(t, inj, distChaosCluster(t, inj).Query)
}

// TestChaosConnectorFaultsMasked hits split enumeration with transient errors
// and fetches with delay faults; bounded inline retry must absorb both.
func TestChaosConnectorFaultsMasked(t *testing.T) {
	inj := faultinject.New(chaosSeed(t),
		faultinject.Rule{Site: faultinject.SiteConnectorSplits, Kind: faultinject.KindError, Rate: 0.3, Transient: true},
		faultinject.Rule{Site: faultinject.SiteConnectorNextBatch, Kind: faultinject.KindError, Rate: 0.2, Transient: true},
		faultinject.Rule{Site: faultinject.SiteShuffleFetch, Kind: faultinject.KindDelay, Rate: 0.05, Delay: 2 * time.Millisecond},
	)
	c := chaosCluster(t, inj)
	base := baselineRows(t)
	for _, q := range chaosQueries {
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s under connector faults: %v", q, err)
		}
		assertRows(t, q, stringifyRows(rows), base[q])
	}
	if inj.Count(faultinject.SiteConnectorSplits) == 0 && inj.Count(faultinject.SiteConnectorNextBatch) == 0 {
		t.Fatal("no connector faults fired")
	}
}

// TestChaosShuffleOnlyKeepsSplitsInHand: faults that are all on the shuffle
// leave split enumeration alone, so a memory scan's splits, a list in hand,
// travel with the creates on HTTP workers: no statement sends a split batch,
// and every answer is the fault-free one.
func TestChaosShuffleOnlyKeepsSplitsInHand(t *testing.T) {
	var counter requestCounter
	inj := faultinject.New(chaosSeed(t), shuffleErrors)
	d := newDistClusterWith(t, 2, distConfig{inj: inj, noStats: true, observe: counter.observe})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	requireDistributed(t, d.Coord, chaosQueries...)
	counter.take()
	assertShuffleFaultsMasked(t, inj, d.Query)
	if counts := counter.take().counts; counts["splits"] != 0 {
		t.Errorf("requests %v: want no split batch, the splits in hand travelling with the creates", counts)
	}
}

// TestChaosTaskCreateTransientReadmitted injects exactly two transient
// task-creation faults; with the default two re-admission retries the query
// must succeed on its third scheduling attempt.
func TestChaosTaskCreateTransientReadmitted(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), faultinject.Rule{
		Site: faultinject.SiteTaskCreate, Kind: faultinject.KindError, Rate: 1, Transient: true, MaxFaults: 2,
	})
	c := chaosCluster(t, inj)
	base := baselineRows(t)
	q := chaosQueries[3]
	rows, err := c.Query(q)
	if err != nil {
		t.Fatalf("query should survive two transient scheduling faults: %v", err)
	}
	assertRows(t, q, stringifyRows(rows), base[q])
	if got := inj.Count(faultinject.SiteTaskCreate); got != 2 {
		t.Errorf("task-create faults fired = %d, want 2", got)
	}
}

// TestChaosMidStageAbort fails the third task creation of a multi-task query:
// the two tasks already placed hold drivers and memory, and the abort path
// must drain them before the error propagates. The same query then succeeds
// (the single fault is spent), proving the cluster is undamaged.
func TestChaosMidStageAbort(t *testing.T) {
	inj := faultinject.New(chaosSeed(t), faultinject.Rule{
		Site: faultinject.SiteTaskCreate, Kind: faultinject.KindError, Rate: 1, After: 2, MaxFaults: 1,
	})
	c := chaosCluster(t, inj)
	base := baselineRows(t)
	goroutines := runtime.NumGoroutine()
	q := chaosQueries[1] // leaf + intermediate + output stages: >2 tasks
	_, err := c.Query(q)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("mid-stage task failure should fail the query: %v", err)
	}
	checkNoLeaks(t, c, goroutines)
	rows, err := c.Query(q)
	if err != nil {
		t.Fatalf("cluster unhealthy after mid-stage abort: %v", err)
	}
	assertRows(t, q, stringifyRows(rows), base[q])
}

// TestChaosRandomizedMix runs every query under simultaneous low-rate faults
// at all four seams. Each query must either produce exactly the fault-free
// answer or fail cleanly; either way nothing may leak. CHAOS_FULL=1 widens
// the sweep to more seeds.
func TestChaosRandomizedMix(t *testing.T) {
	seeds := []int64{chaosSeed(t)}
	if os.Getenv("CHAOS_FULL") != "" {
		for i := int64(1); i < 5; i++ {
			seeds = append(seeds, seeds[0]+i)
		}
	}
	base := baselineRows(t)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed,
				faultinject.Rule{Site: faultinject.SiteShuffleFetch, Kind: faultinject.KindError, Rate: 0.05, Transient: true},
				faultinject.Rule{Site: faultinject.SiteShuffleFetch, Kind: faultinject.KindPartial, Rate: 0.10},
				faultinject.Rule{Site: faultinject.SiteConnectorSplits, Kind: faultinject.KindError, Rate: 0.10, Transient: true},
				faultinject.Rule{Site: faultinject.SiteConnectorNextBatch, Kind: faultinject.KindError, Rate: 0.05, Transient: true},
				faultinject.Rule{Site: faultinject.SiteTaskCreate, Kind: faultinject.KindError, Rate: 0.05, Transient: true},
			)
			c := chaosCluster(t, inj)
			goroutines := runtime.NumGoroutine()
			for _, q := range chaosQueries {
				rows, err := c.Query(q)
				if err != nil {
					// A clean failure is acceptable under chaos — but it must
					// be the injected fault (possibly retry-wrapped), not a
					// correctness bug, and nothing may leak.
					if !strings.Contains(err.Error(), "injected") {
						t.Fatalf("%s: unexpected failure: %v", q, err)
					}
					continue
				}
				assertRows(t, q, stringifyRows(rows), base[q])
			}
			checkNoLeaks(t, c, goroutines)
		})
	}
}

// TestChaosQueuedQueryContextCancel holds the only admission slot and cancels
// a queued query's context: the waiter must leave the queue with the context
// error, and the slot must remain usable.
func TestChaosQueuedQueryContextCancel(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:          1,
		ThreadsPerWorker: 2,
		QueuePolicies:    []QueuePolicy{{Name: "", MaxConcurrent: 1, MaxQueued: 10}},
	})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	res, err := c.Execute("SELECT l_orderkey FROM tpch.lineitem") // undrained: holds the slot
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.ExecuteCtx(ctx, "SELECT 1", Session{})
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the second query join the queue
	cancel()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("queued query should fail with the context error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued query never returned")
	}
	// A pre-cancelled context never enters the queue.
	if _, err := c.ExecuteCtx(ctx, "SELECT 1", Session{}); err == nil {
		t.Fatal("pre-cancelled context should be rejected")
	}
	// The slot the cancelled waiter almost took is still usable.
	res.Close()
	if _, err := c.Query("SELECT count(*) FROM tpch.nation"); err != nil {
		t.Fatalf("cluster unhealthy after queued-query cancellation: %v", err)
	}
}

// TestChaosCoordinatorCancelQueued cancels a queued query by id through the
// coordinator (the path behind DELETE /v1/query/{id}).
func TestChaosCoordinatorCancelQueued(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:          1,
		ThreadsPerWorker: 2,
		QueuePolicies:    []QueuePolicy{{Name: "", MaxConcurrent: 1, MaxQueued: 10}},
	})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	res, err := c.Execute("SELECT l_orderkey FROM tpch.lineitem") // q1: holds the slot
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Execute("SELECT count(*) FROM tpch.nation") // q2: queued
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if !c.Cancel("q2") {
		t.Fatal("Cancel(q2) should find the queued query")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("cancelled queued query should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued query never returned")
	}
	if c.Cancel("nope") {
		t.Fatal("Cancel of an unknown query should be false")
	}
	res.Close()
	if c.Cancel("q1") {
		t.Fatal("Cancel of a finished query should be false")
	}
	if _, err := c.Query("SELECT count(*) FROM tpch.nation"); err != nil {
		t.Fatalf("cluster unhealthy after cancellation: %v", err)
	}
}

// panickyConnector is a memory catalog whose page sources panic on their
// second page: the scan operator, mid-split, hits a bug.
type panickyConnector struct{ *memconn.Connector }

type panickySource struct {
	connector.PageSource
	pages int
}

func (s *panickySource) NextPage() (*block.Page, error) {
	if s.pages++; s.pages == 2 {
		var none []block.Block
		_ = none[s.pages] // index out of range
	}
	return s.PageSource.NextPage()
}

func (c panickyConnector) PageSource(s connector.Split, columns []string, h plan.TableHandle) (connector.PageSource, error) {
	src, err := c.Connector.PageSource(s, columns, h)
	return &panickySource{PageSource: src}, err
}

// TestOperatorPanicFailsOneQuery: a query whose scan panics on its second page
// fails with the panic and its stack in its error and in its stats, while a
// second query runs on the same workers; that one, and every query after,
// returns what it returned before. Nothing in the engine recovered a panic
// before the driver step did: the process died with every query on it.
func TestOperatorPanicFailsOneQuery(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 1))
	c.Register(panickyConnector{workload.LoadTPCHMemory("broken", 1)})

	const healthy = "SELECT l_returnflag, count(*), sum(l_quantity) FROM tpch.lineitem GROUP BY l_returnflag"
	first, _ := runTrackedQuery(t, c, healthy)
	want := stringifyRows(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the second query, over and over, while the first one dies
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows, err := c.Query(healthy)
			if err != nil {
				t.Errorf("the healthy query failed beside the panicking one: %v", err)
				return
			}
			if got := stringifyRows(rows); !reflect.DeepEqual(got, want) {
				t.Errorf("the healthy query returned %v, want %v", got, want)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		res, err := c.Execute("SELECT l_shipmode, count(*) FROM broken.lineitem GROUP BY l_shipmode")
		if err == nil {
			_, err = res.All()
		}
		if err == nil || !strings.Contains(err.Error(), "index out of range") || !strings.Contains(err.Error(), "panickySource).NextPage") {
			t.Fatalf("the panicking query reported %v, want the panic and its stack", err)
		}
		if st, ok := c.QueryStats(res.QueryID); !ok || st.State != "FAILED" || !strings.Contains(st.Error, "panickySource).NextPage") {
			t.Errorf("stats of the panicking query: state %q, error %q", st.State, st.Error)
		}
	}
	close(stop)
	wg.Wait()
	if last, _ := runTrackedQuery(t, c, healthy); !reflect.DeepEqual(stringifyRows(last), want) {
		got := stringifyRows(last)
		t.Errorf("after the panics the healthy query returns %v, want %v", got, want)
	}
}

// damageLineitem flips one byte in the middle of the l_quantity section of
// the second stripe of the lake's lineitem file.
func damageLineitem(t *testing.T, dir string) string {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "lineitem", "*.orcish"))
	for _, f := range files {
		footer, err := orcish.ReadFooter(f)
		if err != nil || len(footer.Stripes) < 2 {
			continue
		}
		for ci, col := range footer.Columns {
			if col.Name != "l_quantity" {
				continue
			}
			s := footer.Stripes[1]
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			data[s.Offset+s.ColOffsets[ci]+s.ColLengths[ci]/2] ^= 0x10
			if err := os.WriteFile(f, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatal("no lineitem file with two stripes")
	return ""
}

// TestChaosDamagedLakeFile: one flipped byte in a lake file's stripe fails
// every query that reads that column of that stripe — eagerly at the scan, or
// lazily where an operator forces the column (the driver's recover turns the
// reader's panic into the query's error) — with an error naming the file and
// the column, never a crash and never an answer. Queries that do not touch
// the damaged section, and queries on an intact table, answer as before.
func TestChaosDamagedLakeFile(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		dir := t.TempDir()
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
		lake, err := workload.LoadTPCHHiveConfig("lake", 0.05, hive.Config{Dir: dir, LazyReads: lazy, StripeRows: 1024})
		if err != nil {
			t.Fatal(err)
		}
		c.Register(lake)
		const intact = "SELECT o_orderstatus, count(*) FROM lake.orders GROUP BY o_orderstatus ORDER BY o_orderstatus"
		want := stringifyRows(mustExec(t, c, intact))
		okCols := stringifyRows(mustExec(t, c, "SELECT count(*), sum(l_orderkey) FROM lake.lineitem"))

		path := damageLineitem(t, dir)
		for i := 0; i < 2; i++ {
			res, err := c.Execute("SELECT l_returnflag, sum(l_quantity) FROM lake.lineitem GROUP BY l_returnflag")
			if err == nil {
				_, err = res.All()
			}
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `column "l_quantity"`) {
				t.Fatalf("lazy=%v: the query over the damaged section returned %v, want an error naming %s and l_quantity", lazy, err, path)
			}
			if st, ok := c.QueryStats(res.QueryID); !ok || st.State != "FAILED" || !strings.Contains(st.Error, "l_quantity") {
				t.Errorf("lazy=%v: stats of the failed query: state %q, error %q", lazy, st.State, st.Error)
			}
		}
		if lazy {
			// Only the damaged column's section fails: a lazy scan that never
			// forces it answers.
			if got := stringifyRows(mustExec(t, c, "SELECT count(*), sum(l_orderkey) FROM lake.lineitem")); !equalRows(got, okCols) {
				t.Errorf("a scan not touching the damaged column returned %v, want %v", got, okCols)
			}
		}
		if got := stringifyRows(mustExec(t, c, intact)); !equalRows(got, want) {
			t.Errorf("lazy=%v: the intact table returned %v after the failures, want %v", lazy, got, want)
		}
		c.Close()
	}
}

func equalRows(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}
