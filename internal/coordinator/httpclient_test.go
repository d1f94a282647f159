package coordinator

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/wire"
)

// TestHTTPTaskBatchesSplits: the splits in hand at placement travel inside
// the create; after it, assigning a split to a remote task costs no request —
// a worker's splits travel, for all its tasks and scans in one POST, when a
// batch has filled or the scheduler flushes the end of an enumeration — and
// each (task, scan) numbers its batches from the create on.
func TestHTTPTaskBatchesSplits(t *testing.T) {
	var mu sync.Mutex
	var requests []string // "METHOD path"
	var create wire.CreateRequest
	var batches []wire.SplitsRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		requests = append(requests, r.Method+" "+r.URL.Path)
		switch {
		case strings.HasSuffix(r.URL.Path, "/tasks"):
			json.Unmarshal(body, &create)
		case strings.HasSuffix(r.URL.Path, "/splits"):
			var req wire.SplitsRequest
			json.Unmarshal(body, &req)
			batches = append(batches, req)
		}
	}))
	defer srv.Close()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(requests)
	}

	mem := memconn.New("memory")
	cm := NewCatalogManager()
	cm.Register(mem)
	c := New(cm, nil, Config{SplitBatchSize: 4})
	scan := func(table string) *plan.Scan {
		return &plan.Scan{Handle: plan.TableHandle{Catalog: "memory", Table: table}}
	}
	split, err := mem.DecodeSplit([]byte(`{"table":"big","from":0,"to":1,"rows":1}`))
	if err != nil {
		t.Fatal(err)
	}
	frag := &plan.Fragment{Root: &plan.Join{Left: scan("big"), Right: scan("small")}}
	w := &httpWorker{c: c, client: srv.Client(), node: 1, uri: srv.URL}
	cfg := &exec.TaskConfig{}
	g, err := w.CreateTasks([]*taskSpec{
		// Task 0's first scan was memoized: its splits and their end are in hand.
		{ID: exec.TaskID{QueryID: "q1", Index: 0}, Fragment: frag, Config: cfg,
			Splits: [][]connector.Split{{split, split}, nil}, NoMore: []bool{true, false}},
		{ID: exec.TaskID{QueryID: "q1", Index: 1}, Fragment: frag, Config: cfg,
			Splits: [][]connector.Split{nil, nil}, NoMore: []bool{false, false}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(create.Tasks) != 2 || len(create.Fragments) != 1 {
		t.Errorf("create carried %d tasks and %d fragments, want 2 tasks of 1 fragment sent once", len(create.Tasks), len(create.Fragments))
	}
	if len(create.Splits) != 1 || len(create.Splits[0].Splits) != 2 || !create.Splits[0].NoMore || create.Splits[0].Seq != 0 {
		t.Errorf("create carried split entries %+v, want task 0 scan 0: 2 splits, the end mark, seq 0", create.Splits)
	}

	tasks := g.Tasks()
	before := count()
	pairs := []struct{ task, scan int }{{0, 1}, {1, 0}, {1, 1}}
	for _, add := range pairs {
		if err := tasks[add.task].AddSplit(add.scan, split); err != nil {
			t.Fatal(err)
		}
	}
	if n := count() - before; n != 0 {
		t.Errorf("%d requests for 3 splits below the batch size, want none", n)
	}
	// The fourth fills the worker's batch, which leaves on its own.
	if err := tasks[1].AddSplit(1, split); err != nil {
		t.Fatal(err)
	}
	if n := count() - before; n != 1 || len(batches) != 1 || len(batches[0].Entries) != 3 {
		t.Fatalf("%d requests, batches %+v: want one POST with an entry per (task, scan)", n, batches)
	}
	for _, e := range batches[0].Entries {
		if want := 1 + e.Index*e.Scan; len(e.Splits) != want || e.NoMore || e.Seq != 0 {
			t.Errorf("entry %+v, want %d splits at its scan's first sequence number", e, want)
		}
	}

	// The ends of the enumerations wait for the scheduler's flush.
	before = count()
	for _, end := range pairs {
		if err := tasks[end.task].NoMoreSplits(end.scan); err != nil {
			t.Fatal(err)
		}
	}
	if n := count() - before; n != 0 {
		t.Errorf("%d requests for 3 end marks, want none before the flush", n)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil { // nothing queued: nothing sent
		t.Fatal(err)
	}
	if n := count() - before; n != 1 || len(batches) != 2 || len(batches[1].Entries) != 3 {
		t.Fatalf("%d requests, batches %+v: want one POST ending all three scans", n, batches)
	}
	for _, e := range batches[1].Entries {
		if len(e.Splits) != 0 || !e.NoMore || e.Seq != 1 {
			t.Errorf("entry %+v, want the end mark alone, numbered after the batch before it", e)
		}
	}

	g.Close()
	g.Abort()
	mu.Lock()
	defer mu.Unlock()
	if last := requests[len(requests)-1]; last != "DELETE /v1/query/q1" || strings.Count(strings.Join(requests, ","), "DELETE") != 1 {
		t.Errorf("requests %v: want them to end in exactly one DELETE of the query", requests)
	}
}
