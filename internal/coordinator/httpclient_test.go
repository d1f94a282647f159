package coordinator

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/plan"
)

// TestHTTPTaskQueueDepthPerScan: the HTTP client's queue depth is counted per
// scan — splits it assigned to that scan minus those the last status reported
// done for that scan — and costs no request per split. A fragment with two
// scans must not see one scan's backlog in the other's depth (pickTask's
// shortest-queue and affinity-slack rules read it per scan).
func TestHTTPTaskQueueDepthPerScan(t *testing.T) {
	var posts atomic.Int64 // the status poll's GETs run on their own clock
	var progressed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			posts.Add(1)
		case http.MethodGet:
			if progressed.Load() {
				w.Write([]byte(`{"state":"running","splitsDone":[2,0]}`))
			} else {
				w.Write([]byte(`{"state":"running"}`))
			}
		}
	}))
	defer srv.Close()

	mem := memconn.New("memory")
	cm := NewCatalogManager()
	cm.Register(mem)
	c := New(cm, nil, Config{})
	scan := func(table string) *plan.Scan {
		return &plan.Scan{Handle: plan.TableHandle{Catalog: "memory", Table: table}}
	}
	w := &httpWorker{c: c, client: srv.Client(), node: 1, uri: srv.URL}
	tc, err := w.CreateTask(taskSpec{
		ID:       exec.TaskID{QueryID: "q1"},
		Fragment: &plan.Fragment{Root: &plan.Join{Left: scan("big"), Right: scan("small")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	task := tc.(*httpTask)
	defer task.Close()
	split, err := mem.DecodeSplit([]byte(`{"table":"big","from":0,"to":1,"rows":1}`))
	if err != nil {
		t.Fatal(err)
	}
	depth := func(scanID int) int {
		splits, _ := task.QueueDepth(scanID)
		return splits
	}

	before := posts.Load()
	for i := 0; i < 3; i++ {
		if err := task.AddSplit(0, split); err != nil {
			t.Fatal(err)
		}
	}
	if err := task.AddSplit(1, split); err != nil {
		t.Fatal(err)
	}
	if d0, d1 := depth(0), depth(1); d0 != 3 || d1 != 1 {
		t.Errorf("depths after assigning 3 and 1 splits = %d, %d", d0, d1)
	}
	if n := posts.Load() - before; n != 0 {
		t.Errorf("%d POSTs for 4 splits below the batch size, want none", n)
	}
	progressed.Store(true)
	if err := task.refresh(false); err != nil {
		t.Fatal(err)
	}
	if d0, d1 := depth(0), depth(1); d0 != 1 || d1 != 1 {
		t.Errorf("depths after a status reporting [2,0] done = %d, %d, want 1, 1", d0, d1)
	}
}
