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

// TestHTTPTaskBatchesSplits: assigning a split to a remote task costs no
// request; a scan's splits travel when the batch fills or its enumeration
// ends, one POST per (task, scan).
func TestHTTPTaskBatchesSplits(t *testing.T) {
	var posts atomic.Int64 // the status poll's GETs run on their own clock
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			posts.Add(1)
		case http.MethodGet:
			w.Write([]byte(`{"state":"running"}`))
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
	defer tc.Close()
	split, err := mem.DecodeSplit([]byte(`{"table":"big","from":0,"to":1,"rows":1}`))
	if err != nil {
		t.Fatal(err)
	}

	before := posts.Load()
	for _, scanID := range []int{0, 0, 0, 1} {
		if err := tc.AddSplit(scanID, split); err != nil {
			t.Fatal(err)
		}
	}
	if n := posts.Load() - before; n != 0 {
		t.Errorf("%d POSTs for 4 splits below the batch size, want none", n)
	}
	for scanID := 0; scanID < 2; scanID++ {
		if err := tc.NoMoreSplits(scanID); err != nil {
			t.Fatal(err)
		}
	}
	if n := posts.Load() - before; n != 2 {
		t.Errorf("%d POSTs to end two scans' enumerations, want one per scan", n)
	}
}
