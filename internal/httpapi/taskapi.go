package httpapi

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/wire"
)

// WorkerServer serves the coordinator-to-worker task API on one worker
// process (paper §III: the coordinator distributes serialized fragments to
// workers, which pull shuffle data from each other over HTTP). The unit of
// control is the query, not the task — a statement costs a worker one create,
// one status channel and one delete however many tasks it runs here:
//
//	POST   /v1/query/{qid}/tasks    create the query's tasks placed here, splits in hand included
//	POST   /v1/query/{qid}/splits   split batches of lazy enumerations, by (task, scan, seq)
//	GET    /v1/query/{qid}/status   long-poll for the events from ?version=N on
//	POST   /v1/query/{qid}/filters  completed dynamic-filter unions, by fragment
//	DELETE /v1/query/{qid}          abort and forget the query's tasks, answering their CPU times
//	GET    /v1/task/{id}/results/{partition}/{token}  long-poll result fetch
//	GET    /v1/worker/metrics       this worker's gauges
//
// Workers hear of a query concurrently and consumers name their producers by
// URI, so a results fetch may precede the task it names: it waits for it
// inside its own long-poll window instead of 404-ing into the fetcher's
// back-off, and a deleted query's id is remembered for goneTTL so a fetch that
// is merely late is told so. A status version counts the query's events here —
// a task ended, a task published filter summaries — in an append-only log, so
// asking for version N again serves the same events again. That makes every
// request safe to retry: creates by task id, splits by sequence number,
// filters by id, status by version, and a delete is a delete.
//
// The server keeps its own task map because exec.Worker reaps finished
// tasks: consumers must still be able to fetch buffered results after the
// task completes, until the coordinator deletes the query.
type WorkerServer struct {
	Worker   *exec.Worker
	Registry exec.ConnectorRegistry
	// Limits are the per-query memory limits applied to remote tasks.
	Limits memory.QueryLimits
	// Inject threads transport faults into result responses (nil = off).
	Inject *faultinject.Injector
	// Client is used for fetches from upstream workers (nil = the shared
	// cluster client).
	Client *http.Client

	mu      sync.Mutex // guards the maps and every remoteQuery
	tasks   map[string]*remoteTask
	queries map[string]*remoteQuery
	gone    map[string]time.Time // deleted query ids, by when
	// wake is closed and replaced when a long-poll may have its answer: a task
	// was registered, an urgent event logged, a query deleted.
	wake chan struct{}

	requests [len(requestClasses)]atomic.Int64
	// Dynamic-filter summaries logged for the coordinator, and unions it sent.
	relayed, delivered atomic.Int64
}

// requestClasses label presto_task_api_requests_total.
var requestClasses = [...]string{"create", "splits", "status", "filters", "delete", "results"}

const (
	classCreate = iota
	classSplits
	classStatus
	classFilters
	classDelete
	classResults
)

// goneTTL is how long a deleted query's id is remembered.
const goneTTL = time.Minute

// remoteQuery is one query's presence on this worker: its tasks, their
// shared memory context, and the event log its status channel serves.
type remoteQuery struct {
	id   string
	qmem *memory.QueryContext
	// creating is held while a create batch is applied, so a replayed batch
	// finds every task the first one registered.
	creating sync.Mutex

	tasks   []*remoteTask
	running int // tasks not yet ended; the memory context closes at zero
	events  []wire.StatusEvent
	urgent  int // the log's length at its last urgent event (see recordLocked)
	deleted bool
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

// NewWorkerServer wraps a worker for the task API.
func NewWorkerServer(w *exec.Worker, reg exec.ConnectorRegistry) *WorkerServer {
	return &WorkerServer{Worker: w, Registry: reg, tasks: map[string]*remoteTask{},
		queries: map[string]*remoteQuery{}, gone: map[string]time.Time{}, wake: make(chan struct{})}
}

// Handler returns the worker API routes, with transport fault injection
// interposed when configured.
func (s *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/{qid}/tasks", s.handleCreateTasks)
	mux.HandleFunc("POST /v1/query/{qid}/splits", s.handleSplits)
	mux.HandleFunc("GET /v1/query/{qid}/status", s.handleStatus)
	mux.HandleFunc("POST /v1/query/{qid}/filters", s.handleFilters)
	mux.HandleFunc("DELETE /v1/query/{qid}", s.handleDeleteQuery)
	mux.HandleFunc("GET /v1/task/{id}/results/{partition}/{token}", s.handleResults)
	mux.HandleFunc("GET /v1/worker/metrics", s.handleWorkerMetrics)
	return faultinject.WrapHTTPHandler(s.Inject, mux)
}

// Close aborts every live task (used by tests and worker shutdown).
func (s *WorkerServer) Close() {
	s.mu.Lock()
	qids := make([]string, 0, len(s.queries))
	for qid := range s.queries {
		qids = append(qids, qid)
	}
	s.mu.Unlock()
	for _, qid := range qids {
		s.deleteQuery(qid)
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

// TaskStats snapshots the tasks the server still holds (for tests: a remote
// task's operator counters never leave its worker).
func (s *WorkerServer) TaskStats() []exec.TaskStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := make([]exec.TaskStats, 0, len(s.tasks))
	for _, rt := range s.tasks {
		stats = append(stats, rt.task.Stats())
	}
	return stats
}

// wakeLocked answers the long-polls; each re-checks what it was waiting for.
func (s *WorkerServer) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// awaitLocked returns once ready reports true or wait has passed, whichever
// is first; s.mu is released while it waits.
func (s *WorkerServer) awaitLocked(wait time.Duration, ready func() bool) {
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	for expired := false; !expired && !ready(); s.mu.Lock() {
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-timeout.C:
			expired = true
		}
	}
}

// decodeBody reads a request's JSON body into v, answering 400 when it is not.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	defer r.Body.Close()
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(v); err != nil {
		http.Error(w, "decode "+r.URL.Path+": "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleCreateTasks creates the batch's tasks in order, handing each the
// splits that came with it before the next is built: a scan is reading while
// its consumers are still being compiled. A task the query already has is
// not created again — a retried POST finds the originals — and its splits
// are sequence 0, which it has seen. Nothing is rolled back on error: the
// coordinator deletes a query whose create failed.
func (s *WorkerServer) handleCreateTasks(w http.ResponseWriter, r *http.Request) {
	s.requests[classCreate].Add(1)
	var req wire.CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	qid := r.PathValue("qid")
	s.mu.Lock()
	rq := s.queries[qid]
	if rq == nil {
		rq = &remoteQuery{id: qid, qmem: memory.NewQueryContext(qid, s.Limits,
			map[int]*memory.NodePool{s.Worker.ID: s.Worker.Pool})}
		s.queries[qid] = rq
		delete(s.gone, qid) // a re-admitted query schedules under its old id
	}
	s.mu.Unlock()
	rq.creating.Lock()
	defer rq.creating.Unlock()

	// A fragment is decoded only when the worker holds no compiled form of
	// it under the digest of its document, which the worker computes itself:
	// a digest taken on trust could name another fragment's compiled form.
	vals, err := wire.UnmarshalValues(req.Values)
	if err != nil {
		http.Error(w, "decode values: "+err.Error(), http.StatusBadRequest)
		return
	}
	frags := map[int]exec.TaskFragment{}
	for _, doc := range req.Fragments {
		body := doc.Body
		frags[doc.ID] = exec.TaskFragment{Digest: sha256.Sum256(body), Values: vals, Load: func() (*plan.Fragment, error) {
			f, err := wire.UnmarshalFragment(body)
			if err == nil && f.ID != doc.ID {
				err = fmt.Errorf("fragment %d sent as fragment %d", f.ID, doc.ID)
			}
			return f, err
		}}
	}
	// The injector never travels on the wire; thread this worker's own into
	// the task so exec-level fault seams (morsel open, filter publish) fire
	// for remote tasks too.
	cfg := req.Config
	cfg.Inject = s.Inject
	splits := map[exec.TaskID][]wire.SplitEntry{}
	for _, e := range req.Splits {
		id := exec.TaskID{QueryID: qid, Fragment: e.Fragment, Index: e.Index}
		splits[id] = append(splits[id], e)
	}
	for _, spec := range req.Tasks {
		id := exec.TaskID{QueryID: qid, Fragment: spec.Fragment, Index: spec.Index}
		frag, ok := frags[spec.Fragment]
		if !ok {
			http.Error(w, fmt.Sprintf("task %s: fragment not in the batch", id), http.StatusBadRequest)
			return
		}
		if s.task(id) == nil && !s.createTask(w, rq, id, spec, frag, &cfg) {
			return
		}
		if !s.applySplits(w, qid, splits[id]) {
			return
		}
	}
	w.WriteHeader(http.StatusOK)
}

// createTask starts one task of a batch and registers it; a failure is
// answered on w and reported as false.
func (s *WorkerServer) createTask(w http.ResponseWriter, rq *remoteQuery, id exec.TaskID,
	spec wire.TaskSpec, frag exec.TaskFragment, cfg *exec.TaskConfig) bool {
	sources := map[int][]shuffle.Fetcher{}
	for _, src := range spec.Sources {
		for _, uri := range src.URIs {
			sources[src.Fragment] = append(sources[src.Fragment], &shuffle.HTTPFetcher{Client: s.Client, URL: uri})
		}
		for _, index := range src.Local {
			producer := exec.TaskID{QueryID: id.QueryID, Fragment: src.Fragment, Index: index}
			sources[src.Fragment] = append(sources[src.Fragment],
				faultinject.WrapFetcher(s.Inject, &localResults{s: s, producer: producer.String(), part: id.Index}))
		}
	}
	// The task's own scans take its summaries themselves; the coordinator
	// hears, in the status channel, of those another fragment subscribes to.
	relay := exec.FilterRelay{IDs: spec.Relay, Publish: func(ids []int, sums []*dynfilter.Summary) {
		s.published(rq, id, ids, sums)
	}}
	t, err := s.Worker.CreateTask(id, frag, rq.qmem, spec.OutPartitions, sources, cfg, relay)
	if err != nil {
		http.Error(w, "create task: "+err.Error(), http.StatusInternalServerError)
		return false
	}
	rt := &remoteTask{id: id, task: t, nextSeq: map[int]int64{}}
	s.mu.Lock()
	if rq.deleted {
		s.mu.Unlock()
		t.Abort()
		http.Error(w, "query "+rq.id+" was deleted", http.StatusNotFound)
		return false
	}
	rq.tasks, rq.running = append(rq.tasks, rt), rq.running+1
	s.tasks[id.String()] = rt
	s.wakeLocked() // a fetch may be waiting for this task
	s.mu.Unlock()
	go func() {
		<-t.Done()
		s.ended(rq, rt)
	}()
	return true
}

func (s *WorkerServer) task(id exec.TaskID) *remoteTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasks[id.String()]
}

// recordLocked appends one event to the query's log. An urgent one —
// something the coordinator acts on — answers the status long-poll now; the
// others ride with the next answer.
func (s *WorkerServer) recordLocked(rq *remoteQuery, ev wire.StatusEvent, urgent bool) {
	if rq.events = append(rq.events, ev); urgent {
		rq.urgent = len(rq.events)
		s.wakeLocked()
	}
}

// published logs the dynamic-filter summaries a task relays, each encoded
// once.
func (s *WorkerServer) published(rq *remoteQuery, id exec.TaskID, ids []int, sums []*dynfilter.Summary) {
	ev := wire.StatusEvent{Fragment: id.Fragment, Index: id.Index, FilterIDs: ids}
	for _, sum := range sums {
		ev.Filters = append(ev.Filters, dynfilter.AppendSummary(nil, sum))
	}
	s.relayed.Add(int64(len(ids)))
	s.mu.Lock()
	s.recordLocked(rq, ev, true)
	s.mu.Unlock()
}

// ended logs a task's verdict. A failure is news at once: the coordinator
// aborts the query's other tasks. A clean end is news when it is the query's
// last here, which ends the status channel; until then nobody acts on it —
// a consumer learns that a stream is whole from the stream itself.
func (s *WorkerServer) ended(rq *remoteQuery, rt *remoteTask) {
	ev := wire.StatusEvent{Fragment: rt.id.Fragment, Index: rt.id.Index, State: "finished", CPUNanos: rt.task.CPUNanos()}
	if err := rt.task.Err(); err != nil {
		ev.State, ev.Error, ev.Transient = "failed", err.Error(), faultinject.IsTransient(err)
	}
	s.mu.Lock()
	rq.running--
	last := rq.running == 0
	s.recordLocked(rq, ev, last || ev.State == "failed")
	s.mu.Unlock()
	if last {
		rq.qmem.Close()
	}
}

func (s *WorkerServer) handleSplits(w http.ResponseWriter, r *http.Request) {
	s.requests[classSplits].Add(1)
	var req wire.SplitsRequest
	if decodeBody(w, r, &req) && s.applySplits(w, r.PathValue("qid"), req.Entries) {
		w.WriteHeader(http.StatusOK)
	}
}

// applySplits applies each entry whose sequence number is its scan's next; a
// failure is answered on w and reported as false.
func (s *WorkerServer) applySplits(w http.ResponseWriter, qid string, entries []wire.SplitEntry) bool {
	for _, e := range entries {
		id := exec.TaskID{QueryID: qid, Fragment: e.Fragment, Index: e.Index}
		rt := s.task(id)
		if rt == nil {
			http.Error(w, fmt.Sprintf("splits for unknown task %s", id), http.StatusNotFound)
			return false
		}
		if status, err := s.applyEntry(rt, e); err != nil {
			http.Error(w, err.Error(), status)
			return false
		}
	}
	return true
}

func (s *WorkerServer) applyEntry(rt *remoteTask, e wire.SplitEntry) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch next := rt.nextSeq[e.Scan]; {
	case e.Seq < next:
		return 0, nil // replay of an applied batch: acknowledge without reapplying
	case e.Seq > next:
		// The coordinator sends a scan's batches in order over retried POSTs;
		// a gap means the caller is confused, not a transport artifact.
		return http.StatusConflict, fmt.Errorf("split batch out of order: got seq %d, want %d", e.Seq, next)
	}
	for _, sd := range e.Splits {
		conn, err := s.Registry.Connector(sd.Catalog)
		if err != nil {
			return http.StatusBadRequest, err
		}
		codec, ok := conn.(connector.SplitCodec)
		if !ok {
			return http.StatusBadRequest, fmt.Errorf("catalog %q cannot decode remote splits", sd.Catalog)
		}
		sp, err := codec.DecodeSplit(sd.Data)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if err := rt.task.AddSplit(e.Scan, sp); err != nil {
			return http.StatusInternalServerError, err
		}
	}
	if e.NoMore {
		rt.task.NoMoreSplits(e.Scan)
	}
	rt.nextSeq[e.Scan] = e.Seq + 1
	return 0, nil
}

// waitParam reads a request's long-poll window, capped at a second.
func waitParam(r *http.Request) time.Duration {
	ms, _ := strconv.Atoi(r.URL.Query().Get("waitMs"))
	return min(time.Duration(max(ms, 0))*time.Millisecond, time.Second)
}

// handleStatus answers with the events from ?version=N on as soon as an urgent
// one is among them, and with whatever there is, possibly nothing, when
// ?waitMs runs out. A deleted query answers 404 at once, which is what ends
// the coordinator's long-poll when it deletes the query.
func (s *WorkerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.requests[classStatus].Add(1)
	from, err := strconv.Atoi(r.URL.Query().Get("version"))
	if err != nil || from < 0 {
		http.Error(w, "bad version", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	rq := s.queries[r.PathValue("qid")]
	if rq != nil {
		s.awaitLocked(waitParam(r), func() bool { return rq.deleted || rq.urgent > from })
	}
	if rq == nil || rq.deleted {
		s.mu.Unlock()
		http.Error(w, "query "+r.PathValue("qid")+" is unknown or was deleted", http.StatusNotFound)
		return
	}
	from = min(from, len(rq.events))
	st := wire.QueryStatus{From: int64(from), Events: rq.events[from:]}
	s.mu.Unlock()
	writeJSON(w, st)
}

// handleFilters hands completed unions to the tasks of the fragments that
// subscribe; each is decoded once and shared. Delivery is idempotent and safe
// at any point in a task's lifecycle.
func (s *WorkerServer) handleFilters(w http.ResponseWriter, r *http.Request) {
	s.requests[classFilters].Add(1)
	var req wire.FiltersRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	var tasks []*remoteTask
	if rq := s.queries[r.PathValue("qid")]; rq != nil {
		tasks = rq.tasks
	}
	s.mu.Unlock()
	for _, fd := range req.Filters {
		sum, err := dynfilter.DecodeSummary(fd.Summary)
		if err != nil {
			http.Error(w, fmt.Sprintf("filter %d: %v", fd.ID, err), http.StatusBadRequest)
			return
		}
		for _, rt := range tasks {
			if slices.Contains(fd.Fragments, rt.id.Fragment) {
				rt.task.DeliverFilter(fd.ID, sum)
			}
		}
		s.delivered.Add(1)
	}
	w.WriteHeader(http.StatusOK)
}

// handleResults is the producer half of the HTTP shuffle (paper §IV-E2):
// long-poll fetch with an acknowledged token. The response body is a
// sequence of binary page frames (internal/block codec); the next token and
// completion flag travel in headers. Frames for a consumer on this host are
// raw, frames for any other are deflated (peerOnThisHost).
func (s *WorkerServer) handleResults(w http.ResponseWriter, r *http.Request) {
	s.requests[classResults].Add(1)
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
	wait := waitParam(r)
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	pages, next, done, err := s.fetchResults(r.PathValue("id"), partition, token, maxBytes, wait)
	var failed *shuffle.TaskFailedError
	var refused *refusedFetch
	switch {
	case errors.As(err, &failed):
		w.Header().Set(shuffle.HeaderTaskFailed, "true")
		http.Error(w, failed.Err.Error(), http.StatusInternalServerError)
		return
	case errors.As(err, &refused):
		http.Error(w, refused.msg, refused.status)
		return
	}
	w.Header().Set("Content-Type", "application/x-presto-pages")
	w.Header().Set(shuffle.HeaderNextToken, strconv.FormatInt(next, 10))
	w.Header().Set(shuffle.HeaderComplete, strconv.FormatBool(done))
	compress := !peerOnThisHost(r)
	for _, p := range pages {
		if err := block.WritePage(w, p, compress); err != nil {
			// Headers are out; the client sees a truncated body and
			// retries with an unadvanced token.
			return
		}
	}
}

// refusedFetch is a results fetch the worker refuses, with the status
// handleResults answers it with.
type refusedFetch struct {
	status int
	msg    string
}

func (e *refusedFetch) Error() string { return e.msg }

// fetchResults is one fetch of partition part of task key from token on, for
// both kinds of consumer: one on another worker (handleResults) and one on
// this worker (localResults). The task may not be here yet (see
// WorkerServer): the fetch waits for it inside wait, and finding none
// answers "no pages, same token", unless its query — the id less
// ".<fragment>.<index>" — was deleted, which is refused. A failed or aborted
// task's buffer fails the fetch with the task's error, a TaskFailedError:
// its consumer fails rather than truncate. Like PartitionBuffer.Fetch, it
// returns within wait.
func (s *WorkerServer) fetchResults(key string, part int, token, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	start, qid := time.Now(), key
	for range 2 {
		qid = qid[:max(strings.LastIndexByte(qid, '.'), 0)]
	}
	var rt *remoteTask
	gone := false
	s.mu.Lock()
	s.awaitLocked(wait, func() bool {
		rt, gone = s.tasks[key], !s.gone[qid].IsZero()
		return rt != nil || gone
	})
	s.mu.Unlock()
	switch {
	case gone:
		return nil, token, false, &refusedFetch{http.StatusNotFound, "task " + key + " was deleted with its query"}
	case rt == nil:
		return nil, token, false, nil
	}
	out := rt.task.Output()
	if part >= out.Partitions() {
		return nil, token, false, &refusedFetch{http.StatusBadRequest, fmt.Sprintf("partition %d of %d", part, out.Partitions())}
	}
	pages, next, done, err := out.Partition(part).Fetch(token, maxBytes, max(wait-time.Since(start), 0))
	if err != nil {
		return nil, token, false, &shuffle.TaskFailedError{Err: err}
	}
	return pages, next, done, nil
}

// localResults reads partition part of a producer on this worker straight
// from its output buffer: the pages its consumer gets are the ones the
// producer buffered, neither encoded nor sent. The coordinator, which placed
// both tasks, names such a producer in wire.SourceEntry.Local.
type localResults struct {
	s        *WorkerServer
	producer string // the producer's task id
	part     int
}

func (l *localResults) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	return l.s.fetchResults(l.producer, l.part, token, maxBytes, wait)
}

// InProcess declares the fetcher in-process (shuffle.InProcess): fetchResults
// returns within its wait.
func (l *localResults) InProcess() {}

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

// handleDeleteQuery is idempotent: deleting a query this worker never heard
// of (its create never landed) still remembers the id. It answers each task's
// CPU time, which the status channel may not have reported yet.
func (s *WorkerServer) handleDeleteQuery(w http.ResponseWriter, r *http.Request) {
	s.requests[classDelete].Add(1)
	var resp wire.DeleteResponse
	for _, rt := range s.deleteQuery(r.PathValue("qid")) {
		resp.Tasks = append(resp.Tasks, wire.StatusEvent{Fragment: rt.id.Fragment, Index: rt.id.Index,
			CPUNanos: rt.task.CPUNanos()})
	}
	writeJSON(w, resp)
}

// deleteQuery forgets a query and aborts its tasks, which it returns; its
// status long-poll and the fetches waiting for its tasks are answered.
func (s *WorkerServer) deleteQuery(qid string) []*remoteTask {
	s.mu.Lock()
	now := time.Now()
	maps.DeleteFunc(s.gone, func(_ string, at time.Time) bool { return now.Sub(at) > goneTTL })
	s.gone[qid] = now
	var tasks []*remoteTask
	if rq := s.queries[qid]; rq != nil {
		rq.deleted, tasks = true, rq.tasks
		delete(s.queries, qid)
		for _, rt := range tasks {
			delete(s.tasks, rt.id.String())
		}
	}
	s.wakeLocked()
	s.mu.Unlock()
	for _, rt := range tasks {
		rt.task.Abort()
	}
	return tasks
}

func (s *WorkerServer) handleWorkerMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeWorkerGauges(w, s.Worker)
	worker := fmt.Sprintf("%d", s.Worker.ID)
	for class, name := range requestClasses {
		metrics.PromGauge(w, "presto_task_api_requests_total",
			map[string]string{"worker": worker, "class": name}, float64(s.requests[class].Load()))
	}
	lbl := map[string]string{"worker": worker}
	metrics.PromGauge(w, "presto_dynfilter_remote_publications_total", lbl, float64(s.relayed.Load()))
	metrics.PromGauge(w, "presto_dynfilter_remote_deliveries_total", lbl, float64(s.delivered.Load()))
}

// RegisterWorker announces a worker's public URI to the coordinator's
// /v1/node endpoint and returns the assigned node id. Called at worker
// startup (with retries) and periodically as a heartbeat.
func RegisterWorker(client *http.Client, coordinatorURL, selfURL string) (int, error) {
	if client == nil {
		client = shuffle.ClusterClient()
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
	fc := wk.FragmentCacheStats()
	metrics.PromGauge(w, "presto_worker_fragment_cache_hits_total", lbl, float64(fc.Hits))
	metrics.PromGauge(w, "presto_worker_fragment_cache_misses_total", lbl, float64(fc.Misses))
	metrics.PromGauge(w, "presto_worker_fragment_cache_evictions_total", lbl, float64(fc.Evictions))
}

// scrapedFragmentCacheStats reads a remote worker's fragment-cache counters
// back from its scrape (writeWorkerGauges).
func scrapedFragmentCacheStats(scrape []byte) exec.FragmentCacheStats {
	var st exec.FragmentCacheStats
	counters := map[string]*int64{
		"presto_worker_fragment_cache_hits_total":      &st.Hits,
		"presto_worker_fragment_cache_misses_total":    &st.Misses,
		"presto_worker_fragment_cache_evictions_total": &st.Evictions,
	}
	for _, line := range strings.Split(string(scrape), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if c := counters[name]; ok && c != nil {
			_, value, _ := strings.Cut(rest, "} ")
			if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
				*c += int64(v)
			}
		}
	}
	return st
}
