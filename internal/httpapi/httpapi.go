// Package httpapi exposes the engine over HTTP, following the shape of
// Presto's client protocol (paper §III, §IV-B1): the client POSTs a SQL
// statement to /v1/statement and receives a JSON document carrying every
// result page the coordinator holds; while the stream is still open the
// document carries a nextUri, which the client long-polls for further
// batches until a document carries none. A document ends the stream as soon
// as the end is known, so a statement whose result fits one fetch costs one
// round trip. Results stream incrementally — clients see rows before the
// query completes. The server also exposes cluster and query introspection
// endpoints.
//
// The paper's multi-node deployment runs HTTP between coordinator and
// workers too: this package also serves the worker-side task API (see
// taskapi.go) and the coordinator's /v1/node registration endpoint used by
// the multi-process mode (prestod -coordinator / -worker).
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/spill"
	"repro/internal/wire"
)

// Server serves the client protocol for one coordinator.
type Server struct {
	Coord *coordinator.Coordinator

	mu      sync.Mutex
	results map[string]*liveResult
	nextID  atomic.Int64
}

type liveResult struct {
	res     *coordinator.Result
	columns []string
	done    bool
}

// NewServer wraps a coordinator.
func NewServer(c *coordinator.Coordinator) *Server {
	return &Server{Coord: c, results: map[string]*liveResult{}}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/statement", s.handleStatement)
	mux.HandleFunc("GET /v1/statement/{id}", s.handleNext)
	mux.HandleFunc("DELETE /v1/statement/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/catalogs", s.handleCatalogs)
	mux.HandleFunc("GET /v1/query/{id}", s.handleQueryInfo)
	mux.HandleFunc("DELETE /v1/query/{id}", s.handleQueryCancel)
	mux.HandleFunc("GET /v1/query/{id}/stats", s.handleQueryStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/node", s.handleRegisterNode)
	return mux
}

// handleRegisterNode registers (or heartbeats) a worker process in
// distributed mode.
func (s *Server) handleRegisterNode(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	reg := s.Coord.Registry()
	if reg == nil {
		http.Error(w, "coordinator does not accept remote workers", http.StatusNotFound)
		return
	}
	var req wire.RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "decode registration: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.URI == "" {
		http.Error(w, "registration without uri", http.StatusBadRequest)
		return
	}
	writeJSON(w, wire.RegisterResponse{ID: reg.Register(strings.TrimSuffix(req.URI, "/"))})
}

// StatementResponse is one protocol document.
type StatementResponse struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Columns []string        `json:"columns,omitempty"`
	Data    [][]interface{} `json:"data,omitempty"`
	NextURI string          `json:"nextUri,omitempty"`
	Error   string          `json:"error,omitempty"`
	// QueryID names the tracked query behind this statement (empty for DDL
	// and other literal results); clients pass it to /v1/query/{id}/stats.
	QueryID string `json:"queryId,omitempty"`
}

func (s *Server) handleStatement(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	sql, err := readStatement(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read statement: "+err.Error(), status)
		return
	}
	session := coordinator.Session{
		Catalog: r.Header.Get("X-Presto-Catalog"),
		Source:  r.Header.Get("X-Presto-Source"),
		User:    r.Header.Get("X-Presto-User"),
	}
	for i, name := range exec.SwitchHeaders {
		v := r.Header.Get(name)
		if v == "" {
			continue
		}
		on, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("%s: %q is not a boolean", name, v), http.StatusBadRequest)
			return
		}
		if on {
			session.Switches |= 1 << i
		}
	}
	// The request context cancels admission: a client that disconnects
	// while its statement is queued is removed from the queue instead of
	// leaking a parked waiter.
	res, err := s.Coord.ExecuteCtx(r.Context(), sql, session)
	if err != nil {
		writeDocument(w, &StatementResponse{State: "FAILED", Error: err.Error()}, nil)
		return
	}
	id := fmt.Sprintf("s%d", s.nextID.Add(1))
	lr := &liveResult{res: res, columns: res.Columns}
	s.mu.Lock()
	s.results[id] = lr
	s.mu.Unlock()
	s.respond(w, id, lr)
}

func (s *Server) lookup(id string) (*liveResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lr, ok := s.results[id]
	return lr, ok
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	lr, ok := s.lookup(id)
	if !ok {
		http.Error(w, "unknown statement "+id, http.StatusNotFound)
		return
	}
	s.respond(w, id, lr)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	lr, ok := s.lookup(id)
	if !ok {
		http.Error(w, "unknown statement "+id, http.StatusNotFound)
		return
	}
	lr.res.Close()
	s.mu.Lock()
	delete(s.results, id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// respond emits the next protocol document. Its first page may long-poll
// (Result.NextPage's wait); after that it takes every page the result already
// holds, without fetching again, so one document carries at most one fetch.
// When that fetch reported the stream complete, the same document drains it —
// the result-cache capture included — and ends it with no nextUri: a small
// statement costs one round trip.
func (s *Server) respond(w http.ResponseWriter, id string, lr *liveResult) {
	doc := StatementResponse{ID: id, State: "RUNNING", Columns: lr.columns, QueryID: lr.res.QueryID}
	var pages []*block.Page
	for {
		p, err := lr.res.NextPage()
		if err != nil {
			doc.State, doc.Error, pages = "FAILED", err.Error(), nil
			s.drop(id)
			break
		}
		if p == nil {
			doc.State = "FINISHED"
			s.drop(id)
			break
		}
		pages = append(pages, p)
		if !lr.res.Ready() {
			doc.NextURI = "/v1/statement/" + id
			break
		}
	}
	writeDocument(w, &doc, pages)
}

func (s *Server) drop(id string) {
	s.mu.Lock()
	delete(s.results, id)
	s.mu.Unlock()
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{
		"engine":  "presto-repro",
		"version": "0.1",
		"uptime":  time.Now().String(),
	})
}

func (s *Server) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Coord.Catalog.Catalogs())
}

// handleQueryInfo exposes a query's lifecycle and statistics (state, times,
// aggregate task CPU, peak memory) — the introspection surface behind the
// paper's "effortless instrumentation" philosophy (§VII).
func (s *Server) handleQueryInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.Coord.QueryInfo(id)
	if !ok {
		s.unknownQuery(w, id)
		return
	}
	doc := map[string]interface{}{
		"id":         info.ID,
		"sql":        info.SQL,
		"state":      info.State.String(),
		"queued":     info.Queued,
		"cpuNanos":   info.CPUNanos,
		"peakMemory": info.PeakMemory,
	}
	if info.Err != nil {
		doc["error"] = info.Err.Error()
	}
	writeJSON(w, doc)
}

// handleQueryCancel cancels a query by query id (as opposed to statement
// id): queued queries leave the admission queue, running queries abort their
// tasks and fail at the client.
func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Coord.Cancel(id) {
		http.Error(w, "unknown or finished query "+id, http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQueryStats serves the live per-operator rollup: splits done/total,
// rows/bytes read, and per-stage operator timing/memory (paper §VII). Works
// while the query runs and after it finishes.
func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Coord.QueryStats(id)
	if !ok {
		s.unknownQuery(w, id)
		return
	}
	writeJSON(w, st)
}

// unknownQuery answers for a query id the coordinator does not hold: 410 Gone
// when it issued the id and has since forgotten the finished query, 404 when
// it never issued it.
func (s *Server) unknownQuery(w http.ResponseWriter, id string) {
	if s.Coord.Forgotten(id) {
		http.Error(w, "query "+id+" finished and is no longer remembered", http.StatusGone)
		return
	}
	http.Error(w, "unknown query "+id, http.StatusNotFound)
}

// handleMetrics exposes cluster gauges in the Prometheus text format:
// executor utilization, MLFQ level occupancy, shuffle buffer utilization,
// and memory-pool usage per worker.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// The compiled-fragment caches are summed over the workers, in process
	// and remote.
	var fc exec.FragmentCacheStats
	add := func(st exec.FragmentCacheStats) {
		fc.Hits, fc.Misses, fc.Evictions = fc.Hits+st.Hits, fc.Misses+st.Misses, fc.Evictions+st.Evictions
	}
	for _, wk := range s.Coord.Workers() {
		writeWorkerGauges(w, wk)
		add(wk.FragmentCacheStats())
	}
	// In distributed mode the workers are remote processes: proxy each
	// registered worker's gauges so one scrape covers the cluster. The
	// Prometheus text format concatenates safely — every line already
	// carries its worker label.
	if reg := s.Coord.Registry(); reg != nil {
		for _, rw := range reg.Alive() {
			resp, err := shuffle.ClusterClient().Get(rw.URI + "/v1/worker/metrics")
			if err != nil {
				metrics.PromGauge(w, "presto_worker_scrape_failed",
					map[string]string{"worker": fmt.Sprintf("%d", rw.ID)}, 1)
				continue
			}
			scrape, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			add(scrapedFragmentCacheStats(scrape))
			w.Write(scrape)
		}
	}
	metrics.PromGauge(w, "presto_fragment_cache_hits_total", nil, float64(fc.Hits))
	metrics.PromGauge(w, "presto_fragment_cache_misses_total", nil, float64(fc.Misses))
	metrics.PromGauge(w, "presto_fragment_cache_evictions_total", nil, float64(fc.Evictions))
	metrics.PromGauge(w, "presto_queries_running", nil, float64(s.Coord.RunningQueries()))
	// Distributed mode's control plane, seen from here: summaries that came
	// up workers' status channels, unions a worker acknowledged, DELETEs that
	// never got through (the workers count the requests they served, by
	// class, in the lines proxied above).
	pubs, deliveries, lostDeletes := s.Coord.ControlPlaneTotals()
	metrics.PromGauge(w, "presto_dynfilter_remote_publications_total", nil, float64(pubs))
	metrics.PromGauge(w, "presto_dynfilter_remote_deliveries_total", nil, float64(deliveries))
	metrics.PromGauge(w, "presto_task_api_delete_failures_total", nil, float64(lostDeletes))
	dynRows, dynSplits, dynWait := s.Coord.DynFilterTotals()
	metrics.PromGauge(w, "presto_dynamic_filter_rows_skipped_total", nil, float64(dynRows))
	metrics.PromGauge(w, "presto_dynamic_filter_splits_skipped_total", nil, float64(dynSplits))
	metrics.PromGauge(w, "presto_dynamic_filter_wait_nanos_total", nil, float64(dynWait))
	// Where the splits went: max/mean of per-task input rows, one
	// observation per scanning stage of every finished query.
	s.Coord.StageSkew().WriteProm(w, "presto_stage_input_skew")
	s.Coord.ScanRowsPerPage().WriteProm(w, "presto_scan_rows_per_page")
	vecEvals, cseHits, dictEvict := s.Coord.VecProjTotals()
	metrics.PromGauge(w, "presto_vecproj_evals_total", nil, float64(vecEvals))
	metrics.PromGauge(w, "presto_vecproj_cse_hits_total", nil, float64(cseHits))
	metrics.PromGauge(w, "presto_dict_proj_evictions_total", nil, float64(dictEvict))
	// Rows operators of finished queries handled by dictionary entry: an
	// aggregation's or a join's memo, a projection evaluated per combination.
	dictRows := s.Coord.DictionaryRows()
	ops := make([]string, 0, len(dictRows))
	for op := range dictRows {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		metrics.PromGauge(w, "presto_dictionary_rows_total", map[string]string{"operator": op}, float64(dictRows[op]))
	}
	// End-to-end statement latency (admission through final page) over the
	// most recent statements, plus admission-queue depth per resource group.
	lat := s.Coord.StatementLatency()
	metrics.PromGauge(w, "presto_statement_latency_p50_seconds", nil, lat.Quantile(0.50).Seconds())
	metrics.PromGauge(w, "presto_statement_latency_p95_seconds", nil, lat.Quantile(0.95).Seconds())
	metrics.PromGauge(w, "presto_statement_latency_p99_seconds", nil, lat.Quantile(0.99).Seconds())
	metrics.PromGauge(w, "presto_statements_total", nil, float64(lat.Total()))
	for _, g := range s.Coord.AdmissionStats() {
		glbl := map[string]string{"group": g.Name}
		metrics.PromGauge(w, "presto_admission_running", glbl, float64(g.Running))
		metrics.PromGauge(w, "presto_admission_queued", glbl, float64(g.Queued))
	}
	ss := s.Coord.ServingStats()
	metrics.PromGauge(w, "presto_plan_cache_hits_total", nil, float64(ss.Plan.Hits))
	metrics.PromGauge(w, "presto_plan_cache_misses_total", nil, float64(ss.Plan.Misses))
	metrics.PromGauge(w, "presto_plan_cache_invalidations_total", nil, float64(ss.Plan.Invalidations))
	metrics.PromGauge(w, "presto_plan_cache_entries", nil, float64(ss.Plan.Entries))
	metrics.PromGauge(w, "presto_result_cache_hits_total", nil, float64(ss.Result.Hits))
	metrics.PromGauge(w, "presto_result_cache_misses_total", nil, float64(ss.Result.Misses))
	metrics.PromGauge(w, "presto_result_cache_invalidations_total", nil, float64(ss.Result.Invalidations))
	metrics.PromGauge(w, "presto_result_cache_restamps_total", nil, float64(ss.Result.Restamps))
	metrics.PromGauge(w, "presto_result_cache_corruptions_total", nil, float64(ss.Result.Corruptions))
	metrics.PromGauge(w, "presto_result_cache_skipped_total", nil, float64(ss.Result.Skipped))
	metrics.PromGauge(w, "presto_result_cache_bytes", nil, float64(ss.Result.Bytes))
	metrics.PromGauge(w, "presto_result_cache_entries", nil, float64(ss.Result.Entries))
	// Larger-than-memory execution: disk-backed operator spill
	// (process-wide counters).
	sp := spill.CurrentStats()
	metrics.PromGauge(w, "presto_spill_files_created_total", nil, float64(sp.FilesCreated))
	metrics.PromGauge(w, "presto_spill_files_deleted_total", nil, float64(sp.FilesDeleted))
	metrics.PromGauge(w, "presto_spill_pages_written_total", nil, float64(sp.PagesWritten))
	metrics.PromGauge(w, "presto_spill_bytes_written_total", nil, float64(sp.BytesWritten))
	metrics.PromGauge(w, "presto_spill_bytes_read_total", nil, float64(sp.BytesRead))
}

// writeJSON answers with v, or with 500 and the error when v cannot be
// encoded: a document is encoded whole before its status is sent.
func writeJSON(w http.ResponseWriter, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("httpapi: encoding a %T response: %v", v, err)
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// maxStatementBytes bounds a statement's text.
const maxStatementBytes = 10 << 20

// readStatement reads the request body whole, into a buffer of its declared
// length when it declares one. A body cut short is an error, never a shorter
// statement.
func readStatement(w http.ResponseWriter, r *http.Request) (string, error) {
	body := http.MaxBytesReader(w, r.Body, maxStatementBytes)
	if n := r.ContentLength; n >= 0 && n <= maxStatementBytes {
		buf := make([]byte, n)
		_, err := io.ReadFull(body, buf)
		return string(buf), err
	}
	buf, err := io.ReadAll(body)
	return string(buf), err
}
