package presto

// The first run of a statement is placed like every run: a scan whose
// connector lists its splits in memory (connector.Listed) takes them at
// placement, so where tasks go and what they are sent does not depend on
// what ran before. A lake's listing is still enumerated in batches once its
// tasks exist.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/memconn"
	"repro/internal/connectors/raptor"
	"repro/internal/coordinator"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// LazySplits is a memory catalog whose enumerations are sources, not lists
// in memory: the coordinator enumerates its scans after their tasks exist,
// as it does a lake's. It is the lazily enumerated leg of a test.
type LazySplits struct{ *memconn.Connector }

// Splits implements connector.Connector.
func (c LazySplits) Splits(h plan.TableHandle) (connector.SplitSource, error) {
	src, err := c.Connector.Splits(h)
	if err != nil {
		return nil, err
	}
	return struct{ connector.SplitSource }{src}, nil
}

// batchCounting is a lake catalog that counts the split batches pulled from
// its enumerations.
type batchCounting struct {
	*hive.Connector
	batches atomic.Int64
}

func (c *batchCounting) Splits(h plan.TableHandle) (connector.SplitSource, error) {
	src, err := c.Connector.Splits(h)
	if err != nil {
		return nil, err
	}
	return countedSource{src, &c.batches}, nil
}

type countedSource struct {
	connector.SplitSource
	n *atomic.Int64
}

func (s countedSource) NextBatch(max int) (connector.SplitBatch, error) {
	s.n.Add(1)
	return s.SplitSource.NextBatch(max)
}

// stagePlacement renders where a finished statement's work went, by stage:
// its task count and, by task, the splits it ran and the rows they held.
func stagePlacement(t *testing.T, c *Cluster, id string) string {
	t.Helper()
	st, ok := c.QueryStats(id)
	if !ok {
		t.Fatalf("no stats for query %s", id)
	}
	var b strings.Builder
	for _, sg := range st.Stages {
		fmt.Fprintf(&b, "fragment %d: %d tasks, splits %v, rows %v; ", sg.Fragment, sg.Tasks, sg.TaskSplits, sg.TaskInputRows)
	}
	return b.String()
}

// createdTasks records, from the create batches the coordinator sends, each
// task it placed and the splits that travelled with it, and counts every
// request by class.
type createdTasks struct {
	requestCounter
	mu    sync.Mutex
	tasks []string
}

func (c *createdTasks) observe(r *http.Request) {
	c.requestCounter.observe(r)
	if requestClass(r) != "create" || r.GetBody == nil {
		return
	}
	body, err := r.GetBody()
	if err != nil {
		return
	}
	defer body.Close()
	var req wire.CreateRequest
	if json.NewDecoder(body).Decode(&req) != nil {
		return
	}
	splits := map[[2]int]int{}
	for _, e := range req.Splits {
		splits[[2]int{e.Fragment, e.Index}] += len(e.Splits)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ts := range req.Tasks {
		c.tasks = append(c.tasks, fmt.Sprintf("task %d.%d: %d splits", ts.Fragment, ts.Index, splits[[2]int{ts.Fragment, ts.Index}]))
	}
}

// take returns the tasks created since the last take, in id order, and the
// requests by class.
func (c *createdTasks) take() (string, map[string]int) {
	c.mu.Lock()
	tasks := c.tasks
	c.tasks = nil
	c.mu.Unlock()
	sort.Strings(tasks)
	return strings.Join(tasks, "; "), c.requestCounter.take().counts
}

// classesAlike reports whether two runs' requests have the same classes, and
// the same count of each class whose count timing does not decide: the
// status answers and result fetches a run needs depend on when its tasks end.
func classesAlike(a, b map[string]int) bool {
	for _, m := range []map[string]int{a, b} {
		for class := range m {
			if (a[class] > 0) != (b[class] > 0) {
				return false
			}
		}
	}
	for _, class := range []string{"create", "splits", "delete", "filters", "per-task", "other"} {
		if a[class] != b[class] {
			return false
		}
	}
	return true
}

// TestFirstRunPlacedLikeEveryRun: over a memory table, a bucketed raptor
// table and a sharded table, the first run of a statement has the tasks per
// stage and the split assignment of its second run, in process and on HTTP
// workers (raptor has no split codec, so it runs in process only), and on
// HTTP workers sends the same request classes, none of them a split batch.
// The plans carry no statistics, so each is distributed and its leaf stage
// keeps only the tasks its splits reach — from the first run on. A lake
// table of more files than a split batch holds is still enumerated in
// batches after its tasks exist, on every run.
func TestFirstRunPlacedLikeEveryRun(t *testing.T) {
	register := func(t *testing.T, reg func(connector.Connector), mem *memconn.Connector) {
		t.Helper()
		mem.LoadTable("events", eventsCols, []*block.Page{eventsPage(300)})
		ads, err := workload.AdvertiserData("ads", 4, 200, 4)
		if err != nil {
			t.Fatal(err)
		}
		reg(ads)
	}
	statements := []struct {
		id, sql string
		http    bool
	}{
		{"memory", `SELECT v, count(*), sum(app) FROM memory.events GROUP BY v ORDER BY v`, true},
		{"raptor", `SELECT k % 3, count(*), sum(v) FROM raptor.b GROUP BY k % 3 ORDER BY 1`, false},
		{"shardsql", workload.AdvertiserQuery("ads", 5), true},
	}

	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableStats: true, DisableResultCache: true})
	t.Cleanup(local.Close)
	mem, err := local.catalog.Connector("memory")
	if err != nil {
		t.Fatal(err)
	}
	register(t, local.Register, mem.(*memconn.Connector))
	// One bucket: its leaf stage needs one task of two, which a lazily
	// enumerated first run would not know.
	rp := raptor.New("raptor", 2)
	local.Register(rp)
	if err := rp.CreateBucketedTable("b", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}, "k", 1); err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for k := int64(0); k < 40; k++ {
		rows = append(rows, []types.Value{types.BigintValue(k), types.BigintValue(k * 10)})
	}
	if err := rp.LoadRows("b", rows); err != nil {
		t.Fatal(err)
	}

	var created createdTasks
	dist := newDistClusterWith(t, 2, distConfig{observe: created.observe, noStats: true})
	register(t, dist.catalog.Register, dist.mem)

	for _, st := range statements {
		requireDistributed(t, local.Coordinator, st.sql)
		var want []string
		var placed [2]string
		for run := range placed {
			got, id := runTrackedQuery(t, local, st.sql)
			if want == nil {
				want = stringifyRows(got)
			}
			assertRows(t, st.id+" in process", stringifyRows(got), want)
			placed[run] = stagePlacement(t, local, id)
		}
		t.Logf("%s in process: %s", st.id, placed[0])
		if placed[0] != placed[1] {
			t.Errorf("%s in process: the first run placed %s, the second %s", st.id, placed[0], placed[1])
		}
		if !st.http {
			continue
		}
		requireDistributed(t, dist.Coord, st.sql)
		created.take()
		var tasks [2]string
		var counts [2]map[string]int
		for run := range tasks {
			assertRows(t, st.id+" on HTTP workers", stringifyRows(dist.mustQuery(t, st.sql)), want)
			tasks[run], counts[run] = created.take()
		}
		t.Logf("%s on HTTP workers: %s; requests %v", st.id, tasks[0], counts[0])
		if tasks[0] != tasks[1] {
			t.Errorf("%s on HTTP workers: the first run created %s, the second %s", st.id, tasks[0], tasks[1])
		}
		if !classesAlike(counts[0], counts[1]) || counts[0]["splits"] != 0 {
			t.Errorf("%s on HTTP workers: requests %v on the first run, %v on the second; want the same classes and no split batch",
				st.id, counts[0], counts[1])
		}
	}

	t.Run("lake", func(t *testing.T) {
		const files = 20 // more than the coordinator's split batch of 16
		dir := t.TempDir()
		conn, err := hive.New("lake", hive.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		lake := &batchCounting{Connector: conn}
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableStats: true, DisableResultCache: true})
		t.Cleanup(c.Close)
		c.Register(lake)
		mustExec(t, c, "CREATE TABLE lake.t (a BIGINT, b BIGINT)")
		cols := []orcish.ColumnMeta{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Bigint}}
		for i := int64(0); i < files; i++ {
			page := block.NewPage(block.NewLongBlock([]int64{i}, nil), block.NewLongBlock([]int64{i * 10}, nil))
			if err := orcish.WriteFile(filepath.Join(dir, "t", fmt.Sprintf("f%02d.orcish", i)), cols, []*block.Page{page}, 16); err != nil {
				t.Fatal(err)
			}
		}
		const sql = "SELECT count(*), sum(b) FROM lake.t"
		requireDistributed(t, c.Coordinator, sql)
		var placed [2]string
		for run := range placed {
			lake.batches.Store(0)
			got, id := runTrackedQuery(t, c, sql)
			assertRows(t, sql, stringifyRows(got), []string{"20|1900"})
			if n := lake.batches.Load(); n < 2 {
				t.Errorf("run %d: the scan of %d files was pulled in %d batch(es), want one a 16 files", run, files, n)
			}
			placed[run] = stagePlacement(t, c, id)
			st, _ := c.QueryStats(id)
			if i := slices.IndexFunc(st.Stages, func(sg coordinator.StageStats) bool { return sg.Skew > 0 }); i < 0 || st.Stages[i].Tasks != 2 {
				t.Errorf("run %d: want the lazily enumerated leaf stage on both workers: %s", run, placed[run])
			}
		}
		if placed[0] != placed[1] {
			t.Errorf("the first run placed %s, the second %s", placed[0], placed[1])
		}
	})
}
