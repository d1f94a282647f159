package coordinator

import (
	"fmt"
	"testing"

	"repro/internal/connectors/memconn"
	"repro/internal/exec"
)

// TestCoordinatorForgetsOldestFinishedQueries: the coordinator remembers the
// last maxFinishedQueries queries that ended and forgets older ones, oldest
// first; a query still running is never forgotten however many end after
// it, and only live queries are counted as running.
func TestCoordinatorForgetsOldestFinishedQueries(t *testing.T) {
	catalog := NewCatalogManager()
	catalog.Register(memconn.New("memory"))
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	defer workers[0].Close()
	c := New(catalog, workers, Config{DefaultCatalog: "memory"})
	run := func(sql string) string {
		t.Helper()
		res, err := c.Execute(sql, Session{})
		if err == nil {
			_, err = res.All()
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.QueryID
	}

	open, err := c.Execute("SELECT 0", Session{}) // left undrained: it keeps running
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	var ids []string
	for i := 0; i < maxFinishedQueries+extra; i++ {
		ids = append(ids, run(fmt.Sprintf("SELECT %d", i+1)))
	}
	for i, id := range ids {
		_, known := c.QueryInfo(id)
		if want := i >= extra; known != want || c.Forgotten(id) == want {
			t.Fatalf("query %d of %d (%s): remembered %v, forgotten %v; want the oldest %d forgotten",
				i+1, len(ids), id, known, c.Forgotten(id), extra)
		}
	}
	if info, ok := c.QueryInfo(open.QueryID); !ok || info.State != StateRunning {
		t.Fatalf("the running query: remembered %v, state %v", ok, info.State)
	}
	if n := c.RunningQueries(); n != 1 {
		t.Errorf("%d running queries, want the undrained one", n)
	}
	c.mu.Lock()
	remembered, live := len(c.queries), len(c.live)
	c.mu.Unlock()
	if remembered != maxFinishedQueries+1 || live != 1 {
		t.Errorf("%d queries remembered, %d live; want %d and 1", remembered, live, maxFinishedQueries+1)
	}
	for _, id := range []string{"q0", "q999999", "nope", "q01", ""} {
		if c.Forgotten(id) {
			t.Errorf("Forgotten(%q) for an id never issued", id)
		}
	}

	// Once drained it ends, and the oldest remembered query goes.
	if _, err := open.All(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.QueryInfo(open.QueryID); !ok || !c.Forgotten(ids[extra]) || c.RunningQueries() != 0 {
		t.Errorf("after the running query ended: remembered %v, %s forgotten %v, %d running",
			ok, ids[extra], c.Forgotten(ids[extra]), c.RunningQueries())
	}
}
