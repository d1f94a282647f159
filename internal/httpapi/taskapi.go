package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/wire"
)

// WorkerServer serves the coordinator-to-worker task API on one worker
// process (paper §III: the coordinator distributes serialized fragments to
// workers, which pull shuffle data from each other over HTTP):
//
//	POST   /v1/task                                  create a task (idempotent)
//	POST   /v1/task/{id}/splits                      deliver a split batch
//	GET    /v1/task/{id}                             task status
//	GET    /v1/task/{id}/results/{partition}/{token} long-poll result fetch
//	DELETE /v1/task/{id}                             abort and forget the task
//	GET    /v1/worker/metrics                        this worker's gauges
//
// The server keeps its own task map because exec.Worker reaps finished
// tasks: consumers must still be able to fetch buffered results and status
// after the task completes, until the coordinator deletes it.
type WorkerServer struct {
	Worker   *exec.Worker
	Registry exec.ConnectorRegistry
	// Limits are the per-query memory limits applied to remote tasks.
	Limits memory.QueryLimits
	// Inject threads transport faults into result responses (nil = off).
	Inject *faultinject.Injector
	// Client is used for fetches from upstream workers (nil = default).
	Client *http.Client

	mu      sync.Mutex
	tasks   map[string]*remoteTask
	queries map[string]*queryMem
}

// remoteTask is one task created over HTTP plus its delivery state.
type remoteTask struct {
	id   exec.TaskID
	task *exec.Task

	mu sync.Mutex
	// nextSeq is the next expected split-batch sequence number per scan;
	// replayed batches (seq < nextSeq) are acknowledged without reapplying.
	nextSeq map[int]int64
}

// queryMem refcounts one query's memory context across its tasks on this
// worker, mirroring the coordinator's per-query context in embedded mode.
type queryMem struct {
	qmem *memory.QueryContext
	refs int
}

// NewWorkerServer wraps a worker for the task API.
func NewWorkerServer(w *exec.Worker, reg exec.ConnectorRegistry) *WorkerServer {
	return &WorkerServer{
		Worker:   w,
		Registry: reg,
		tasks:    map[string]*remoteTask{},
		queries:  map[string]*queryMem{},
	}
}

// Handler returns the worker API routes, with transport fault injection
// interposed when configured.
func (s *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/task", s.handleCreateTask)
	mux.HandleFunc("POST /v1/task/{id}/splits", s.handleSplits)
	mux.HandleFunc("POST /v1/task/{id}/filters", s.handleDeliverFilters)
	mux.HandleFunc("GET /v1/task/{id}", s.handleTaskStatus)
	mux.HandleFunc("GET /v1/task/{id}/filter/{fid}", s.handleFetchFilter)
	mux.HandleFunc("GET /v1/task/{id}/results/{partition}/{token}", s.handleResults)
	mux.HandleFunc("DELETE /v1/task/{id}", s.handleDeleteTask)
	mux.HandleFunc("GET /v1/worker/metrics", s.handleWorkerMetrics)
	return faultinject.WrapHTTPHandler(s.Inject, mux)
}

// Close aborts every live task (used by tests and worker shutdown).
func (s *WorkerServer) Close() {
	s.mu.Lock()
	ts := make([]*remoteTask, 0, len(s.tasks))
	for _, t := range s.tasks {
		ts = append(ts, t)
	}
	s.tasks = map[string]*remoteTask{}
	s.mu.Unlock()
	for _, t := range ts {
		t.task.Abort()
	}
}

// TaskIDs lists the ids still held by the server map (for tests).
func (s *WorkerServer) TaskIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	return ids
}

func (s *WorkerServer) handleCreateTask(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	var spec wire.TaskSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(&spec); err != nil {
		http.Error(w, "decode task spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	id := exec.TaskID{QueryID: spec.QueryID, Fragment: spec.Fragment, Index: spec.Index}
	key := id.String()

	s.mu.Lock()
	if rt, ok := s.tasks[key]; ok {
		// Idempotent create: a retried POST finds the original task.
		s.mu.Unlock()
		writeJSON(w, s.statusOf(rt))
		return
	}
	s.mu.Unlock()

	frag, err := wire.UnmarshalFragment(spec.Frag)
	if err != nil {
		http.Error(w, "decode fragment: "+err.Error(), http.StatusBadRequest)
		return
	}
	sources := map[int][]shuffle.Fetcher{}
	for _, src := range spec.Sources {
		for _, uri := range src.URIs {
			sources[src.Fragment] = append(sources[src.Fragment],
				&shuffle.HTTPFetcher{Client: s.Client, URL: uri})
		}
	}
	cfg := spec.Config.Decode()
	// The injector never travels on the wire; thread this worker's own into
	// the task so exec-level fault seams (morsel open, filter publish) fire
	// for remote tasks too.
	cfg.Inject = s.Inject

	s.mu.Lock()
	if rt, ok := s.tasks[key]; ok { // lost a concurrent create race
		s.mu.Unlock()
		writeJSON(w, s.statusOf(rt))
		return
	}
	qm, ok := s.queries[spec.QueryID]
	if !ok {
		qm = &queryMem{qmem: memory.NewQueryContext(spec.QueryID, s.Limits,
			map[int]*memory.NodePool{s.Worker.ID: s.Worker.Pool})}
		s.queries[spec.QueryID] = qm
	}
	qm.refs++
	s.mu.Unlock()

	t, err := s.Worker.CreateTask(id, frag, qm.qmem, spec.OutPartitions, sources, &cfg)
	if err != nil {
		s.releaseQuery(spec.QueryID)
		http.Error(w, "create task: "+err.Error(), http.StatusInternalServerError)
		return
	}
	rt := &remoteTask{id: id, task: t, nextSeq: map[int]int64{}}
	s.mu.Lock()
	s.tasks[key] = rt
	s.mu.Unlock()
	go func() {
		<-t.Done()
		s.releaseQuery(spec.QueryID)
	}()
	writeJSON(w, s.statusOf(rt))
}

// releaseQuery drops one task's reference on a query memory context,
// closing the context when the last task on this worker finishes.
func (s *WorkerServer) releaseQuery(queryID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qm, ok := s.queries[queryID]
	if !ok {
		return
	}
	qm.refs--
	if qm.refs <= 0 {
		qm.qmem.Close()
		delete(s.queries, queryID)
	}
}

func (s *WorkerServer) lookupTask(w http.ResponseWriter, r *http.Request) (*remoteTask, bool) {
	key := r.PathValue("id")
	s.mu.Lock()
	rt, ok := s.tasks[key]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown task "+key, http.StatusNotFound)
		return nil, false
	}
	return rt, true
}

func (s *WorkerServer) handleSplits(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	rt, ok := s.lookupTask(w, r)
	if !ok {
		return
	}
	var req wire.SplitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(&req); err != nil {
		http.Error(w, "decode splits: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	next := rt.nextSeq[req.Scan]
	switch {
	case req.Seq < next:
		// Replay of an applied batch: acknowledge without reapplying.
		w.WriteHeader(http.StatusOK)
		return
	case req.Seq > next:
		// The coordinator sends batches in order over retried POSTs; a gap
		// means the caller is confused, not a transport artifact.
		http.Error(w, fmt.Sprintf("split batch out of order: got seq %d, want %d", req.Seq, next),
			http.StatusConflict)
		return
	}
	for _, sd := range req.Splits {
		conn, err := s.Registry.Connector(sd.Catalog)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		codec, ok := conn.(connector.SplitCodec)
		if !ok {
			http.Error(w, fmt.Sprintf("catalog %q cannot decode remote splits", sd.Catalog),
				http.StatusBadRequest)
			return
		}
		sp, err := codec.DecodeSplit(sd.Data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := rt.task.AddSplit(req.Scan, sp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if req.NoMore {
		rt.task.NoMoreSplits(req.Scan)
	}
	rt.nextSeq[req.Scan] = req.Seq + 1
	w.WriteHeader(http.StatusOK)
}

func (s *WorkerServer) statusOf(rt *remoteTask) wire.TaskStatus {
	st := wire.TaskStatus{ID: rt.id.String(), State: "running", CPUNanos: rt.task.CPUNanos()}
	if pub := rt.task.PublishedFilters(); len(pub) > 0 {
		st.FiltersReady = make([]int, 0, len(pub))
		for id := range pub {
			st.FiltersReady = append(st.FiltersReady, id)
		}
		sort.Ints(st.FiltersReady)
	}
	select {
	case <-rt.task.Done():
		if err := rt.task.Err(); err != nil {
			st.State = "failed"
			st.Error = err.Error()
			st.Transient = faultinject.IsTransient(err)
		} else {
			st.State = "finished"
		}
	default:
		// A failing task can carry an error before Done closes; surface it
		// early so the coordinator aborts without waiting for wind-down.
		if err := rt.task.Err(); err != nil {
			st.State = "failed"
			st.Error = err.Error()
			st.Transient = faultinject.IsTransient(err)
		}
	}
	return st
}

func (s *WorkerServer) handleTaskStatus(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.lookupTask(w, r)
	if !ok {
		return
	}
	writeJSON(w, s.statusOf(rt))
}

// handleFetchFilter serves one published dynamic-filter summary (the
// coordinator pulls each summary announced in TaskStatus.FiltersReady once,
// merges them across the build fragment's tasks, and pushes the union to
// every task of the query).
func (s *WorkerServer) handleFetchFilter(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.lookupTask(w, r)
	if !ok {
		return
	}
	fid, err := strconv.Atoi(r.PathValue("fid"))
	if err != nil {
		http.Error(w, "bad filter id", http.StatusBadRequest)
		return
	}
	sum, ok := rt.task.PublishedFilters()[fid]
	if !ok {
		http.Error(w, fmt.Sprintf("filter %d not published", fid), http.StatusNotFound)
		return
	}
	writeJSON(w, wire.EncodeFilterSummary(sum))
}

// handleDeliverFilters accepts merged dynamic-filter summaries for this
// task's probe scans. Delivery is idempotent and safe at any point in the
// task lifecycle.
func (s *WorkerServer) handleDeliverFilters(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	rt, ok := s.lookupTask(w, r)
	if !ok {
		return
	}
	var req wire.FilterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(&req); err != nil {
		http.Error(w, "decode filters: "+err.Error(), http.StatusBadRequest)
		return
	}
	for _, fe := range req.Filters {
		sum, err := fe.Summary.Decode()
		if err != nil {
			http.Error(w, fmt.Sprintf("filter %d: %v", fe.ID, err), http.StatusBadRequest)
			return
		}
		rt.task.DeliverFilter(fe.ID, sum)
	}
	w.WriteHeader(http.StatusOK)
}

// handleResults is the producer half of the HTTP shuffle (paper §IV-E2):
// long-poll fetch with an acknowledged token. The response body is a
// sequence of binary page frames (internal/block codec); the next token and
// completion flag travel in headers. Frames for a consumer on this host are
// raw, frames for any other are deflated (peerOnThisHost).
func (s *WorkerServer) handleResults(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.lookupTask(w, r)
	if !ok {
		return
	}
	partition, err1 := strconv.Atoi(r.PathValue("partition"))
	token, err2 := strconv.ParseInt(r.PathValue("token"), 10, 64)
	if err1 != nil || err2 != nil || partition < 0 || token < 0 {
		http.Error(w, "bad partition or token", http.StatusBadRequest)
		return
	}
	maxBytes, _ := strconv.ParseInt(r.URL.Query().Get("maxBytes"), 10, 64)
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	waitMs, _ := strconv.Atoi(r.URL.Query().Get("waitMs"))
	wait := time.Duration(waitMs) * time.Millisecond
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	if wait > time.Second {
		wait = time.Second
	}

	// A failed task's destroyed buffers report "complete"; report the
	// failure instead so consumers fail fast rather than truncate.
	if err := rt.task.Err(); err != nil {
		w.Header().Set(shuffle.HeaderTaskFailed, "true")
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := rt.task.Output()
	if partition >= out.Partitions() {
		http.Error(w, fmt.Sprintf("partition %d of %d", partition, out.Partitions()), http.StatusBadRequest)
		return
	}
	pages, next, done := out.Partition(partition).Fetch(token, maxBytes, wait)
	if err := rt.task.Err(); err != nil {
		w.Header().Set(shuffle.HeaderTaskFailed, "true")
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(shuffle.HeaderNextToken, strconv.FormatInt(next, 10))
	w.Header().Set(shuffle.HeaderComplete, strconv.FormatBool(done))
	w.Header().Set("Content-Type", "application/x-presto-pages")
	compress := !peerOnThisHost(r)
	for _, p := range pages {
		if err := block.WritePage(w, p, compress); err != nil {
			// Headers are out; the client sees a truncated body and
			// retries with an unadvanced token.
			return
		}
	}
}

// peerOnThisHost reports whether a request came from this machine: from a
// loopback address, or from the very address it was received on. Bytes to
// such a peer never reach a network, so compressing them buys nothing.
func peerOnThisHost(r *http.Request) bool {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return false
	}
	peer := net.ParseIP(host)
	if peer == nil {
		return false
	}
	if peer.IsLoopback() {
		return true
	}
	local, _ := r.Context().Value(http.LocalAddrContextKey).(*net.TCPAddr)
	return local != nil && local.IP.Equal(peer)
}

func (s *WorkerServer) handleDeleteTask(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	s.mu.Lock()
	rt, ok := s.tasks[key]
	delete(s.tasks, key)
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown task "+key, http.StatusNotFound)
		return
	}
	rt.task.Abort()
	w.WriteHeader(http.StatusNoContent)
}

func (s *WorkerServer) handleWorkerMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeWorkerGauges(w, s.Worker)
}

// RegisterWorker announces a worker's public URI to the coordinator's
// /v1/node endpoint and returns the assigned node id. Called at worker
// startup (with retries) and periodically as a heartbeat.
func RegisterWorker(client *http.Client, coordinatorURL, selfURL string) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(wire.RegisterRequest{URI: selfURL})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(strings.TrimSuffix(coordinatorURL, "/")+"/v1/node",
		"application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return 0, fmt.Errorf("register worker: status %d: %s", resp.StatusCode, msg)
	}
	var rr wire.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, err
	}
	return rr.ID, nil
}

// writeWorkerGauges emits one worker's gauges in the Prometheus text
// format; the coordinator metrics endpoint and the per-worker endpoint
// share it so embedded and distributed deployments report identically.
func writeWorkerGauges(w io.Writer, wk *exec.Worker) {
	lbl := map[string]string{"worker": fmt.Sprintf("%d", wk.ID)}
	metrics.PromGauge(w, "presto_executor_utilization", lbl, wk.Exec.Utilization())
	metrics.PromGauge(w, "presto_executor_busy_nanos_total", lbl, float64(wk.Exec.BusyNanos()))
	metrics.PromGauge(w, "presto_executor_threads", lbl, float64(wk.Exec.Threads()))
	levels, blocked := wk.Exec.LevelOccupancy()
	for lvl, n := range levels {
		metrics.PromGauge(w, "presto_mlfq_level_runnable",
			map[string]string{"worker": lbl["worker"], "level": fmt.Sprintf("%d", lvl)}, float64(n))
	}
	metrics.PromGauge(w, "presto_mlfq_blocked", lbl, float64(blocked))
	metrics.PromGauge(w, "presto_shuffle_buffer_utilization", lbl, wk.OutputBufferUtilization())
	metrics.PromGauge(w, "presto_worker_tasks", lbl, float64(wk.TaskCount()))
	metrics.PromGauge(w, "presto_memory_general_used_bytes", lbl, float64(wk.Pool.GeneralUsed()))
	metrics.PromGauge(w, "presto_memory_general_limit_bytes", lbl, float64(wk.Pool.GeneralLimit()))
	metrics.PromGauge(w, "presto_memory_reserved_used_bytes", lbl, float64(wk.Pool.ReservedUsed()))
	metrics.PromGauge(w, "presto_memory_reserved_limit_bytes", lbl, float64(wk.Pool.ReservedLimit()))
	cs := wk.CacheStats()
	metrics.PromGauge(w, "presto_cache_hits_total", lbl, float64(cs.Hits))
	metrics.PromGauge(w, "presto_cache_misses_total", lbl, float64(cs.Misses))
	metrics.PromGauge(w, "presto_cache_evictions_total", lbl, float64(cs.Evictions))
	metrics.PromGauge(w, "presto_cache_corruptions_total", lbl, float64(cs.Corruptions))
	metrics.PromGauge(w, "presto_cache_bytes", lbl, float64(cs.Bytes))
	metrics.PromGauge(w, "presto_cache_entries", lbl, float64(cs.Entries))
	metrics.PromGauge(w, "presto_cache_capacity_bytes", lbl, float64(cs.Capacity))
	sh := wk.SharedScanStats()
	metrics.PromGauge(w, "presto_shared_scans_total", lbl, float64(sh.Scans))
	metrics.PromGauge(w, "presto_shared_scan_joined_total", lbl, float64(sh.Joined))
	metrics.PromGauge(w, "presto_shared_scan_truncated_total", lbl, float64(sh.Truncated))
	metrics.PromGauge(w, "presto_shared_scan_log_bytes", lbl, float64(sh.LogBytes))
}
