package httpapi

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// resultsServer is a worker server holding one finished task whose single
// output partition carries the given page.
func resultsServer(t *testing.T, page *block.Page) (*WorkerServer, string) {
	t.Helper()
	producer := shuffle.NewOutputBuffer(1, 1<<20)
	producer.Add(0, page)
	producer.SetNoMorePages()

	catalog := coordinator.NewCatalogManager()
	catalog.Register(memconn.New("memory"))
	w := exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 1})
	t.Cleanup(w.Close)
	frag := &plan.Fragment{
		Root:               &plan.RemoteSource{SourceFragments: []int{1}, Out: plan.Schema{{Name: "v", T: types.Varchar}}},
		OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer:     -1,
	}
	id := exec.TaskID{QueryID: "q"}
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: w.Pool})
	task, err := w.CreateTask(id, exec.TaskFragment{Load: func() (*plan.Fragment, error) { return frag, nil }}, qmem, 1,
		map[int][]shuffle.Fetcher{1: {&shuffle.LocalFetcher{Buf: producer.Partition(0)}}}, nil, exec.FilterRelay{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-task.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("task did not finish")
	}
	ws := NewWorkerServer(w, catalog)
	ws.tasks[id.String()] = &remoteTask{id: id, task: task, nextSeq: map[int]int64{}}
	return ws, "/v1/task/" + id.String() + "/results/0"
}

// frameFlags returns the flags byte of every frame in a results body.
func frameFlags(t *testing.T, body []byte) []byte {
	t.Helper()
	var flags []byte
	for len(body) > 0 {
		_, n, err := block.DecodePage(body)
		if err != nil {
			t.Fatal(err)
		}
		flags = append(flags, body[4])
		body = body[n:]
	}
	return flags
}

// TestResultsCompressOnlyForOtherHosts: who compresses a results response is
// decided by where the peer is, and by nothing a client can send. A loopback
// consumer gets raw frames; the same handler, asked by a peer elsewhere, sends
// deflated ones; and the fetcher decodes either.
func TestResultsCompressOnlyForOtherHosts(t *testing.T) {
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = "a value that repeats on every row"
	}
	page := block.NewPage(&block.VarcharBlock{Vals: vals})
	ws, path := resultsServer(t, page)
	handler := ws.Handler()

	// Over a real loopback connection.
	srv := httptest.NewServer(handler)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path + "/0?waitMs=1000")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("loopback fetch: status %d, err %v", resp.StatusCode, err)
	}
	if flags := frameFlags(t, body); len(flags) != 1 || flags[0] != 0 {
		t.Errorf("loopback peer got frame flags %v, want one raw frame", flags)
	}

	// The same handler, driven by a peer on another host.
	req := httptest.NewRequest(http.MethodGet, path+"/0?waitMs=1000", nil)
	req.RemoteAddr = "10.1.2.3:40000"
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("remote fetch: status %d: %s", rec.Code, rec.Body)
	}
	remoteBody := rec.Body.Bytes()
	if flags := frameFlags(t, remoteBody); len(flags) != 1 || flags[0] != 1 {
		t.Errorf("remote peer got frame flags %v, want one compressed frame", flags)
	}
	if len(remoteBody) >= len(body) {
		t.Errorf("compressed response is %d bytes, raw is %d", len(remoteBody), len(body))
	}

	// HTTPFetcher decodes both: against the loopback server, and against a
	// server replaying the compressed response.
	replay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Write(remoteBody)
	}))
	defer replay.Close()
	for name, url := range map[string]string{"raw": srv.URL + path, "compressed": replay.URL} {
		f := &shuffle.HTTPFetcher{Client: srv.Client(), URL: url}
		pages, next, done, err := f.Fetch(0, 1<<20, time.Second)
		if err != nil {
			t.Fatalf("%s fetch: %v", name, err)
		}
		if len(pages) != 1 || next != 1 || !done {
			t.Fatalf("%s fetch: %d pages, next %d, done %v", name, len(pages), next, done)
		}
		got := pages[0]
		if got.RowCount() != len(vals) || got.Col(0).Str(len(vals)-1) != vals[0] {
			t.Errorf("%s fetch: decoded page differs", name)
		}
	}
}

func TestPeerOnThisHost(t *testing.T) {
	for addr, want := range map[string]bool{
		"127.0.0.1:5000":  true,
		"127.8.9.10:5000": true,
		"[::1]:5000":      true,
		"10.1.2.3:5000":   false,
		"example.com:80":  false,
		"":                false,
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.RemoteAddr = addr
		if got := peerOnThisHost(r); got != want {
			t.Errorf("peerOnThisHost(%q) = %v, want %v", addr, got, want)
		}
	}
	// A peer that reached this worker on the worker's own LAN address is on
	// this machine too; one that reached it on a different address is not.
	for local, want := range map[string]bool{"10.1.2.3": true, "10.1.2.4": false} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.RemoteAddr = "10.1.2.3:5000"
		r = r.WithContext(context.WithValue(r.Context(), http.LocalAddrContextKey,
			&net.TCPAddr{IP: net.ParseIP(local), Port: 8080}))
		if got := peerOnThisHost(r); got != want {
			t.Errorf("peer 10.1.2.3 received on %s: peerOnThisHost = %v, want %v", local, got, want)
		}
	}
}
