package presto

// What a distributed statement says to its workers: the coordinator talks to
// workers, not tasks. These tests pin the request budget of a statement, that
// dynamic filters cross processes in time to filter, and that a create batch
// failing on one worker leaves nothing behind on the others.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// requestClass names a task-API request the way the workers' own
// presto_task_api_requests_total does; "per-task" is the retired protocol.
func requestClass(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.Contains(path, "/results/"):
		return "results"
	case strings.HasPrefix(path, "/v1/task"):
		return "per-task"
	case !strings.HasPrefix(path, "/v1/query/"):
		return "other"
	case r.Method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(path, "/tasks"):
		return "create"
	}
	return path[strings.LastIndexByte(path, '/')+1:] // splits, status, filters
}

// requestCounter counts requests by class.
type requestCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *requestCounter) observe(r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[requestClass(r)]++
}

func (c *requestCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := c.counts
	c.counts = nil
	return counts
}

const threeJoins = `SELECT n_name, count(*), sum(l_quantity)
	FROM tpch.customer
	JOIN tpch.orders ON c_custkey = o_custkey
	JOIN tpch.lineitem ON l_orderkey = o_orderkey
	JOIN tpch.nation ON c_nationkey = n_nationkey
	GROUP BY n_name ORDER BY n_name`

// TestHTTPControlRequestsPerStatement: a three-join statement on two workers
// costs each worker one create and one delete; with its enumerations
// memoized it sends no split batch; nothing is asked per task; and the whole
// control plane — status answers and filter unions included — fits in 16
// requests. The table it logs is the one scripts/check.sh prints.
func TestHTTPControlRequestsPerStatement(t *testing.T) {
	var counter requestCounter
	d := newDistClusterWith(t, 2, distConfig{observe: counter.observe})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(local.Close)
	local.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	want, err := local.Query(threeJoins)
	if err != nil {
		t.Fatal(err)
	}

	assertRows(t, threeJoins, stringifyRows(d.mustQuery(t, threeJoins)), stringifyRows(want))
	first := counter.take()
	if first["splits"] == 0 {
		t.Errorf("first run %v: enumerations not yet memoized travel as split batches", first)
	}
	assertRows(t, threeJoins, stringifyRows(d.mustQuery(t, threeJoins)), stringifyRows(want))
	counts := counter.take()

	classes := make([]string, 0, len(counts))
	control := 0
	for class, n := range counts {
		classes = append(classes, class)
		if class != "results" {
			control += n
		}
	}
	sort.Strings(classes)
	for _, class := range classes {
		t.Logf("requests per statement: %-8s %3d", class, counts[class])
	}
	t.Logf("requests per statement: %-8s %3d of %d", "control", control, control+counts["results"])
	if counts["create"] != 2 || counts["delete"] != 2 {
		t.Errorf("%d creates and %d deletes on 2 workers, want one of each per worker", counts["create"], counts["delete"])
	}
	if counts["splits"] != 0 || counts["per-task"] != 0 || counts["other"] != 0 {
		t.Errorf("requests %v: want no split batch with memoized enumerations and nothing addressed to a task", counts)
	}
	if control > 16 {
		t.Errorf("%d control requests for one statement, want at most 16: %v", control, counts)
	}

	// The workers count what they served under the same names.
	for _, w := range d.Coord.Registry().Alive() {
		resp, err := http.Get(w.URI + "/v1/worker/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, class := range []string{"create", "delete"} {
			if line := fmt.Sprintf("presto_task_api_requests_total{class=%q,worker=\"%d\"} 2\n", class, w.ID); !strings.Contains(string(body), line) {
				t.Errorf("worker %d metrics lack %q after two statements", w.ID, strings.TrimSpace(line))
			}
		}
	}
}

// TestDistributedFilterArrivesBeforeProbe: over HTTP workers a partitioned
// join's build summaries reach the probe scans on other workers while those
// are still gated — up in the builders' status channels the moment they are
// published, merged, down as one POST a worker — so the scans filter rows and
// wait a small part of their gate. (Polled every 50 ms, the summaries arrived
// after a 20 ms statement had ended: no row filtered, the whole gate waited.)
func TestDistributedFilterArrivesBeforeProbe(t *testing.T) {
	const gate = 2 * time.Second
	var mu sync.Mutex
	var stats []exec.TaskStats
	var d *distCluster
	// A remote task's operator counters never leave its worker: read them
	// there, just before the query's DELETE drops the tasks.
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete {
				mu.Lock()
				stats = append(stats, d.servers[i].TaskStats()...)
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	d = newDistClusterWith(t, 2, distConfig{wrap: wrap, broadcastRows: 1,
		task: exec.TaskConfig{DynamicFilterWait: gate}})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	sql := `SELECT count(*) FROM tpch.lineitem JOIN tpch.orders ON l_orderkey = o_orderkey
		WHERE o_orderkey < 200`

	res, err := d.Coord.Execute(sql, Session{Switches: exec.DisableDynamicFilters})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	stats = nil
	mu.Unlock()
	start := time.Now()
	got := d.mustQuery(t, sql)
	elapsed := time.Since(start)
	assertRows(t, sql, stringifyRows(got), stringifyRows(want))

	mu.Lock()
	defer mu.Unlock()
	var filtered, waited, gated int64
	for _, ts := range stats {
		for _, pl := range ts.Pipelines {
			for _, op := range pl.Operators {
				filtered += op.DynRowsFiltered
				if op.DynWaitNanos > 0 {
					gated++
					waited = max(waited, op.DynWaitNanos)
				}
			}
		}
	}
	t.Logf("statement %v: %d rows filtered, %d gated scans, longest wait %v of a %v gate",
		elapsed, filtered, gated, time.Duration(waited), gate)
	if filtered == 0 {
		t.Error("no probe row was filtered: the union did not reach the probe scans' workers")
	}
	if gated == 0 || time.Duration(waited) > gate/4 || elapsed > gate {
		t.Errorf("%d gated scans, longest wait %v, statement %v: want the scans released by the filter, well inside their %v gate",
			gated, time.Duration(waited), elapsed, gate)
	}
	if pubs, deliveries, _ := d.Coord.ControlPlaneTotals(); pubs == 0 || deliveries == 0 {
		t.Errorf("the coordinator counted %d publications and %d deliveries, want both", pubs, deliveries)
	}
}

// TestCreateBatchPartialFailureDrains: a create that fails on one worker —
// the injected fault stands where its RPC would — fails the statement, and
// what the other worker created at the same moment is aborted and deleted
// before the error propagates. The cluster then runs the same statement.
func TestCreateBatchPartialFailureDrains(t *testing.T) {
	var counter requestCounter
	inj := faultinject.New(chaosSeed(t), faultinject.Rule{
		Site: faultinject.SiteTaskCreate, Kind: faultinject.KindError, Rate: 1, After: 1, MaxFaults: 1,
	})
	d := newDistClusterWith(t, 2, distConfig{inj: inj, observe: counter.observe})
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	q := chaosQueries[3]
	if _, err := d.Query(q); err == nil || !strings.Contains(err.Error(), "injected") || !strings.Contains(err.Error(), "creating tasks on worker") {
		t.Fatalf("query = %v, want the injected create failure, named by worker", err)
	}
	counts := counter.take()
	if counts["create"] != 1 || counts["delete"] != 1 {
		t.Errorf("requests %v: want the surviving worker's create, and its delete", counts)
	}
	for i, ws := range d.servers {
		if ids := ws.TaskIDs(); len(ids) != 0 {
			t.Errorf("worker %d holds %v after the failed create", i, ids)
		}
	}
	for i, w := range d.workers {
		deadline := time.Now().Add(5 * time.Second)
		for w.TaskCount() != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := w.TaskCount(); n != 0 {
			t.Errorf("worker %d still runs %d tasks: the drain did not wait for them", i, n)
		}
	}
	assertRows(t, q, stringifyRows(d.mustQuery(t, q)), baselineRows(t)[q])
}
