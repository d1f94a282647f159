package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
	"repro/internal/wire"
)

// controlFixture is one worker behind the task API and the create batch that
// places query q's scan task q.0.0 on it: a 5-row table read through one
// output partition, its splits in hand.
type controlFixture struct {
	ws     *WorkerServer
	url    string
	create []byte
}

const controlRows = 5

func newControlFixture(t *testing.T) *controlFixture {
	t.Helper()
	mem := memconn.New("memory")
	mem.CreateTable("t", []connector.Column{{Name: "v", T: types.Bigint}})
	for i := 0; i < controlRows; i++ {
		mem.AppendRows("t", [][]types.Value{{types.BigintValue(int64(i))}})
	}
	catalog := coordinator.NewCatalogManager()
	catalog.Register(mem)
	_, dp, err := coordinator.New(catalog, nil, coordinator.Config{Optimizer: optimizer.DefaultConfig()}).
		Plan("SELECT v FROM t", coordinator.Session{})
	if err != nil {
		t.Fatal(err)
	}
	var leaf *plan.Fragment
	for _, f := range dp.Fragments {
		if len(exec.ScanOrder(f.Root)) == 1 {
			leaf = f
		}
	}
	if leaf == nil {
		t.Fatalf("no scan fragment in:\n%s", dp.Format())
	}
	frag, err := wire.MarshalFragment(leaf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := mem.Splits(exec.ScanOrder(leaf.Root)[0].Handle)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := src.NextBatch(1 << 10)
	if err != nil || !batch.Done {
		t.Fatalf("enumerating t: done=%v err=%v", batch.Done, err)
	}
	entry := wire.SplitEntry{Fragment: leaf.ID, NoMore: true}
	for _, s := range batch.Splits {
		data, err := mem.EncodeSplit(s)
		if err != nil {
			t.Fatal(err)
		}
		entry.Splits = append(entry.Splits, wire.SplitData{Catalog: "memory", Data: data})
	}
	create, err := json.Marshal(wire.CreateRequest{
		Fragments: []json.RawMessage{frag},
		Tasks:     []wire.TaskSpec{{Fragment: leaf.ID, OutPartitions: 1}},
		Splits:    []wire.SplitEntry{entry},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 1})
	ws := NewWorkerServer(w, catalog)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(func() { srv.Close(); ws.Close(); w.Close() })
	return &controlFixture{ws: ws, url: srv.URL, create: create}
}

func (f *controlFixture) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// drain reads the task's one output partition to its end and returns the rows.
func (f *controlFixture) drain(t *testing.T, task string) int {
	t.Helper()
	fetch := &shuffle.HTTPFetcher{URL: f.url + "/v1/task/" + task + "/results/0"}
	rows, token := 0, int64(0)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		pages, next, done, err := fetch.Fetch(token, 1<<20, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("fetch %s: %v", task, err)
		}
		for _, p := range pages {
			rows += p.RowCount()
		}
		if token = next; done {
			return rows
		}
	}
	t.Fatalf("%s did not complete", task)
	return 0
}

func (f *controlFixture) status(t *testing.T, query string) wire.QueryStatus {
	t.Helper()
	code, body := f.do(t, http.MethodGet, "/v1/query/q/status?"+query, nil)
	var st wire.QueryStatus
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("status?%s: %d %s", query, code, body)
	}
	return st
}

// TestFetchBeforeProducerRegistered: workers hear of a query concurrently, so
// a consumer may ask for a task its worker has not been told of yet. The
// fetch waits on the worker, inside its own long-poll window, and is answered
// with pages — or with "nothing yet" — never with a 404 that would send the
// fetcher into its back-off. A query that was deleted is another matter.
func TestFetchBeforeProducerRegistered(t *testing.T) {
	f := newControlFixture(t)
	fetch := &shuffle.HTTPFetcher{URL: f.url + "/v1/task/q.0.0/results/0"}

	// Nothing lands inside the window: no pages, same token, no error.
	start := time.Now()
	pages, next, done, err := fetch.Fetch(0, 1<<20, 30*time.Millisecond)
	if err != nil || len(pages) != 0 || next != 0 || done {
		t.Fatalf("fetch of an unregistered task = (%d pages, token %d, done %v, %v), want an empty poll", len(pages), next, done, err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("the empty poll came back after %v: it did not wait for the task", waited)
	}

	// The create lands while a fetch is waiting: that fetch is served.
	type fetched struct {
		pages []*block.Page
		err   error
		took  time.Duration
	}
	got := make(chan fetched, 1)
	go func() {
		// The table is two pages, so the fetch that was waiting may be
		// answered with the first alone: what it must be is prompt and not
		// empty; the rest is read to the end of the stream.
		start := time.Now()
		pages, next, done, err := fetch.Fetch(0, 1<<20, time.Second)
		r := fetched{pages, err, time.Since(start)}
		for err == nil && !done && len(r.pages) > 0 {
			pages, next, done, err = fetch.Fetch(next, 1<<20, time.Second)
			r.pages, r.err = append(r.pages, pages...), err
		}
		got <- r
	}()
	time.Sleep(50 * time.Millisecond)
	if code, body := f.do(t, http.MethodPost, "/v1/query/q/tasks", f.create); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	r := <-got
	rows := 0
	for _, p := range r.pages {
		rows += p.RowCount()
	}
	if r.err != nil || rows != controlRows || r.took > 900*time.Millisecond {
		t.Errorf("the waiting fetch got %d rows, err %v, after %v: want the task's %d rows as soon as it exists", rows, r.err, r.took, controlRows)
	}

	// Deleted, the id is remembered: a late fetch is refused at once, and one
	// that was waiting for a task of the query is released.
	go func() {
		_, _, _, err := (&shuffle.HTTPFetcher{URL: f.url + "/v1/task/q.7.0/results/0"}).Fetch(0, 1<<20, time.Second)
		got <- fetched{err: err}
	}()
	time.Sleep(20 * time.Millisecond)
	start = time.Now()
	if code, _ := f.do(t, http.MethodDelete, "/v1/query/q", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if r := <-got; r.err == nil || !strings.Contains(r.err.Error(), "404") || time.Since(start) > 500*time.Millisecond {
		t.Errorf("a fetch waiting on a deleted query's task = %v after %v, want a prompt 404", r.err, time.Since(start))
	}
	if _, _, _, err := fetch.Fetch(0, 1<<20, time.Second); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("fetch after delete = %v, want 404", err)
	}
	if code, _ := f.do(t, http.MethodDelete, "/v1/query/q", nil); code != http.StatusNoContent {
		t.Errorf("second delete: %d, want it idempotent", code)
	}
	if ids := f.ws.TaskIDs(); len(ids) != 0 {
		t.Errorf("tasks %v survive their query's delete", ids)
	}
}

// TestCreateBatchIdempotent: a create batch replayed after it was applied — a
// retry whose first response was lost — finds the original tasks and
// re-applies nothing: the splits that came with it are read once.
func TestCreateBatchIdempotent(t *testing.T) {
	f := newControlFixture(t)
	for attempt := 0; attempt < 3; attempt++ {
		if code, body := f.do(t, http.MethodPost, "/v1/query/q/tasks", f.create); code != http.StatusOK {
			t.Fatalf("create #%d: %d %s", attempt, code, body)
		}
	}
	if ids := f.ws.TaskIDs(); len(ids) != 1 {
		t.Fatalf("three posts of one batch left tasks %v, want one", ids)
	}
	if rows := f.drain(t, "q.0.0"); rows != controlRows {
		t.Errorf("task read %d rows, want %d: a replayed batch re-applied its splits", rows, controlRows)
	}
	// So is a later split batch, by its sequence number; a gap is refused.
	for seq, want := range map[int]int{0: http.StatusOK, 1: http.StatusOK, 3: http.StatusConflict} {
		body, _ := json.Marshal(wire.SplitsRequest{Entries: []wire.SplitEntry{{Scan: 0, Seq: int64(seq), NoMore: true}}})
		if code, msg := f.do(t, http.MethodPost, "/v1/query/q/splits", body); code != want {
			t.Errorf("split batch seq %d: %d %s, want %d", seq, code, msg, want)
		}
	}
	if code, _ := f.do(t, http.MethodPost, "/v1/query/nope/splits", []byte(`{"entries":[{"noMore":true}]}`)); code != http.StatusNotFound {
		t.Errorf("splits for a task of an unknown query: %d, want 404", code)
	}
}

// TestStatusVersionMonotone: the status channel serves an append-only log.
// Asking for a version again serves the same events again (a response lost in
// transit costs nothing), a version at the head waits and then says "nothing
// new", and the version only ever grows.
func TestStatusVersionMonotone(t *testing.T) {
	f := newControlFixture(t)
	if code, _ := f.do(t, http.MethodGet, "/v1/query/q/status?version=0&waitMs=0", nil); code != http.StatusNotFound {
		t.Errorf("status of an unknown query: %d, want 404", code)
	}
	if code, body := f.do(t, http.MethodPost, "/v1/query/q/tasks", f.create); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	// The task is the query's last here, so its end answers the long-poll
	// well inside the window.
	start := time.Now()
	first := f.status(t, "version=0&waitMs=1000")
	if len(first.Events) != 1 || first.From != 0 || time.Since(start) > 900*time.Millisecond {
		t.Fatalf("first status = %+v after %v, want the task's end, promptly", first, time.Since(start))
	}
	if ev := first.Events[0]; ev.State != "finished" || ev.Fragment != 0 || ev.Index != 0 || ev.Error != "" {
		t.Errorf("event %+v, want q.0.0 finished", ev)
	}
	again := f.status(t, "version=0&waitMs=1000")
	if fmt.Sprint(again) != fmt.Sprint(first) {
		t.Errorf("version 0 asked again = %+v, want the first answer %+v", again, first)
	}
	start = time.Now()
	head := f.status(t, "version=1&waitMs=40")
	if len(head.Events) != 0 || head.From != 1 || time.Since(start) < 40*time.Millisecond {
		t.Errorf("status at the head = %+v after %v, want nothing new once the window closed", head, time.Since(start))
	}
	if ahead := f.status(t, "version=9&waitMs=0"); len(ahead.Events) != 0 || ahead.From != 1 {
		t.Errorf("status past the head = %+v, want it clamped to the log's length, 1", ahead)
	}
	if code, _ := f.do(t, http.MethodGet, "/v1/query/q/status?version=x", nil); code != http.StatusBadRequest {
		t.Errorf("malformed version: %d, want 400", code)
	}
	// Deleting the query answers the channel for good.
	gone := make(chan int, 1)
	go func() {
		code, _ := f.do(t, http.MethodGet, "/v1/query/q/status?version=1&waitMs=1000", nil)
		gone <- code
	}()
	time.Sleep(20 * time.Millisecond)
	start = time.Now()
	f.do(t, http.MethodDelete, "/v1/query/q", nil)
	if code := <-gone; code != http.StatusNotFound || time.Since(start) > 500*time.Millisecond {
		t.Errorf("long-poll of a deleted query: %d after %v, want a prompt 404", code, time.Since(start))
	}
}
