package coordinator

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/exec"
	"repro/internal/workload"
)

// TestFinishedQueryReleasesItsTasks: once an in-process join statement is
// drained, nothing the coordinator keeps of it — the query, its result —
// reaches its tasks, so the collector takes them with their compiled
// pipelines and join tables; the query's stats still answer, and the result
// answers NextPage with its end of stream.
func TestFinishedQueryReleasesItsTasks(t *testing.T) {
	catalog := NewCatalogManager()
	catalog.Register(workload.LoadTPCHMemory("tpch", 0.01))
	workers := make([]*exec.Worker, 2)
	for i := range workers {
		workers[i] = exec.NewWorker(i, catalog, exec.WorkerConfig{Threads: 2})
	}
	c := New(catalog, workers, Config{DefaultCatalog: "tpch"})
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	res, err := c.Execute(`SELECT o_orderstatus, count(*), sum(l_quantity) FROM tpch.orders
		JOIN tpch.lineitem ON o_orderkey = l_orderkey GROUP BY o_orderstatus`, Session{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := placedTasks(t, c, res.QueryID)
	rows, err := res.All()
	if err != nil || len(rows) == 0 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	if p, err := res.NextPage(); p != nil || err != nil {
		t.Fatalf("NextPage after the end of stream: %v, %v", p, err)
	}

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		live := 0
		for _, w := range tasks {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the finished query's %d tasks are still reachable", live, len(tasks))
		}
	}
	st, ok := c.QueryStats(res.QueryID)
	if !ok || st.State != StateFinished.String() || st.Tasks != len(tasks) || st.OutputRows != int64(len(rows)) {
		t.Fatalf("stats of the finished query: found %v, state %s, %d tasks (placed %d), %d output rows (drained %d)",
			ok, st.State, st.Tasks, len(tasks), st.OutputRows, len(rows))
	}

	// A result its client closed before reading answers with the cancellation.
	res, err = c.Execute("SELECT count(*) FROM tpch.lineitem", Session{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if p, err := res.NextPage(); p != nil || !errors.Is(err, ErrCancelled) {
		t.Fatalf("NextPage after Close: %v, %v; want the cancellation", p, err)
	}
}

// placedTasks returns weak pointers to the in-process tasks the query runs.
// (Weak pointers, not finalizers: a task reaches itself through its own
// callbacks, and the collector never frees a cycle that holds a finalizer.)
func placedTasks(t *testing.T, c *Coordinator, id string) []weak.Pointer[exec.Task] {
	t.Helper()
	c.mu.Lock()
	q := c.queries[id]
	c.mu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []weak.Pointer[exec.Task]
	for _, tc := range q.tasks {
		lt, ok := tc.(localTask)
		if !ok {
			t.Fatalf("task client %T is not an in-process task", tc)
		}
		out = append(out, weak.Make(lt.task))
	}
	if len(out) < 2 {
		t.Fatalf("the join placed %d tasks", len(out))
	}
	return out
}
