package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/kvconn"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/types"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return testServerWith(t, nil)
}

// testServerWith is testServer with a serving tier (nil: none) and the
// catalogs extra.
func testServerWith(t *testing.T, tier *serving.Tier, extra ...connector.Connector) *httptest.Server {
	t.Helper()
	catalog := coordinator.NewCatalogManager()
	mem := memconn.New("memory")
	flags := make([]string, 64)
	for i := range flags {
		flags[i] = []string{"A", "N", "R"}[i%3]
	}
	mem.LoadTable("flags", []connector.Column{{Name: "flag", T: types.Varchar}},
		[]*block.Page{block.NewPage(block.NewVarcharBlock(flags, nil))})
	catalog.Register(mem)
	for _, conn := range extra {
		catalog.Register(conn)
	}
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	coord := coordinator.New(catalog, workers, coordinator.Config{DefaultCatalog: "memory", Serving: tier})
	srv := httptest.NewServer(NewServer(coord).Handler())
	t.Cleanup(func() {
		srv.Close()
		workers[0].Close()
	})
	return srv
}

func runSQL(t *testing.T, srv *httptest.Server, sql string) ([][]interface{}, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/statement", "text/plain", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]interface{}
	for {
		var doc StatementResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.Error != "" {
			return rows, doc.Error
		}
		rows = append(rows, doc.Data...)
		if doc.NextURI == "" {
			return rows, ""
		}
		resp, err = http.Get(srv.URL + doc.NextURI)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatementProtocol(t *testing.T) {
	srv := testServer(t)
	if _, errStr := runSQL(t, srv, "CREATE TABLE t (a BIGINT)"); errStr != "" {
		t.Fatal(errStr)
	}
	if _, errStr := runSQL(t, srv, "INSERT INTO t SELECT * FROM (VALUES (1), (2), (3))"); errStr != "" {
		t.Fatal(errStr)
	}
	rows, errStr := runSQL(t, srv, "SELECT sum(a) FROM t")
	if errStr != "" {
		t.Fatal(errStr)
	}
	if len(rows) != 1 || rows[0][0].(float64) != 6 {
		t.Errorf("rows: %v", rows)
	}
}

// TestStatementNonFiniteDoubles: NaN and ±Infinity reach a client as the
// strings Presto's client protocol uses, beside a finite double, not as an
// empty 200 the JSON encoder gave up on.
func TestStatementNonFiniteDoubles(t *testing.T) {
	srv := testServer(t)
	rows, errStr := runSQL(t, srv, "SELECT CAST('NaN' AS DOUBLE), CAST('Infinity' AS DOUBLE), CAST('-Infinity' AS DOUBLE), 1.5")
	if errStr != "" {
		t.Fatal(errStr)
	}
	if want := []interface{}{"NaN", "Infinity", "-Infinity", 1.5}; len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("rows %v, want [%v]", rows, want)
	}
}

// TestWriteJSONFailureIs500: a document the encoder refuses is answered 500
// with the encoder's error, not 200 with an empty body.
func TestWriteJSONFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "+Inf") {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
}

func TestStatementError(t *testing.T) {
	srv := testServer(t)
	_, errStr := runSQL(t, srv, "SELECT * FROM missing_table")
	if errStr == "" || !strings.Contains(errStr, "does not exist") {
		t.Errorf("error: %q", errStr)
	}
}

func TestParseError(t *testing.T) {
	srv := testServer(t)
	_, errStr := runSQL(t, srv, "SELEKT 1")
	if errStr == "" {
		t.Error("expected parse error")
	}
}

func TestInfoAndCatalogs(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/info")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("info: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/catalogs")
	if err != nil {
		t.Fatal(err)
	}
	var catalogs []string
	json.NewDecoder(resp.Body).Decode(&catalogs)
	resp.Body.Close()
	if len(catalogs) != 1 || catalogs[0] != "memory" {
		t.Errorf("catalogs: %v", catalogs)
	}
}

func TestUnknownStatementID(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/statement/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status: %d", resp.StatusCode)
	}
}

// runSQLWithQueryID drains a statement sent with the given headers and
// returns the queryId the server attached to the protocol documents.
func runSQLWithQueryID(t *testing.T, srv *httptest.Server, sql string, header http.Header) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/statement", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range header {
		req.Header[name] = vals
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	queryID := ""
	for {
		var doc StatementResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.Error != "" {
			t.Fatal(doc.Error)
		}
		if doc.QueryID != "" {
			queryID = doc.QueryID
		}
		if doc.NextURI == "" {
			return queryID
		}
		resp, err = http.Get(srv.URL + doc.NextURI)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	if _, errStr := runSQL(t, srv, "CREATE TABLE qs (a BIGINT)"); errStr != "" {
		t.Fatal(errStr)
	}
	if _, errStr := runSQL(t, srv, "INSERT INTO qs SELECT * FROM (VALUES (1), (2), (3))"); errStr != "" {
		t.Fatal(errStr)
	}
	queryID := runSQLWithQueryID(t, srv, "SELECT sum(a) FROM qs", nil)
	if queryID == "" {
		t.Fatal("statement documents carried no queryId")
	}

	resp, err := http.Get(srv.URL + "/v1/query/" + queryID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status: %d", resp.StatusCode)
	}
	var st coordinator.QueryStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != queryID {
		t.Errorf("id = %q, want %q", st.ID, queryID)
	}
	if st.RowsRead != 3 {
		t.Errorf("rowsRead = %d, want 3", st.RowsRead)
	}
	if st.SplitsTotal == 0 || st.SplitsDone != int(st.SplitsTotal) {
		t.Errorf("splits done/total = %d/%d, want all done", st.SplitsDone, st.SplitsTotal)
	}
	if len(st.Stages) == 0 {
		t.Fatal("no stages in rollup")
	}
	names := map[string]bool{}
	var scanned int64
	for _, sg := range st.Stages {
		if len(sg.TaskInputRows) != sg.Tasks || len(sg.TaskSplits) != sg.Tasks {
			t.Errorf("fragment %d: %d tasks but per-task rows %v, splits %v", sg.Fragment, sg.Tasks, sg.TaskInputRows, sg.TaskSplits)
		}
		for _, rows := range sg.TaskInputRows {
			scanned += rows
		}
		if (sg.Skew >= 1) != (slices.Max(sg.TaskInputRows) > 0) {
			t.Errorf("fragment %d: skew %.2f over per-task rows %v", sg.Fragment, sg.Skew, sg.TaskInputRows)
		}
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				names[op.Name] = true
			}
		}
	}
	if scanned != 3 {
		t.Errorf("per-task input rows sum to %d, want the 3 rows scanned", scanned)
	}
	if !names["TableScan"] || !names["HashAggregation"] {
		t.Errorf("operator names = %v, want TableScan and HashAggregation", names)
	}

	// Unknown query id is a 404.
	resp2, err := http.Get(srv.URL + "/v1/query/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query status: %d", resp2.StatusCode)
	}
}

// TestSwitchHeaders: each header of the switches' name table set to a true
// value sets its switch in the session the coordinator runs the statement
// under — what the query's stats report — and set to a false one leaves it
// off; a value that is not a boolean is refused with a 400 naming the header,
// and an unknown X-Presto-Disable-* header (a removed switch's among them)
// sets nothing.
func TestSwitchHeaders(t *testing.T) {
	srv := testServer(t)
	switchesOf := func(header http.Header) string {
		t.Helper()
		id := runSQLWithQueryID(t, srv, "SELECT flag, count(*) FROM flags GROUP BY flag", header)
		resp, err := http.Get(srv.URL + "/v1/query/" + id + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st coordinator.QueryStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Switches
	}
	for i, name := range exec.SwitchHeaders {
		want := exec.Switches(1 << i).String()
		if got := switchesOf(http.Header{name: {"1"}}); got != want {
			t.Errorf("%s: the query ran under %q, want %q", name, got, want)
		}
	}
	for _, v := range []string{"false", "0"} {
		if got := switchesOf(http.Header{"X-Presto-Disable-Spill": {v}}); got != "defaults" {
			t.Errorf("X-Presto-Disable-Spill: %s: the query ran under %q, want the defaults", v, got)
		}
	}
	for _, name := range []string{"X-Presto-Disable-Foo", "X-Presto-Disable-HBO", "X-Presto-Disable-Shared-Scans", "X-Presto-Disable-Cache"} {
		if got := switchesOf(http.Header{name: {"1"}}); got != "defaults" {
			t.Errorf("%s: the query ran under %q, want the defaults", name, got)
		}
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/statement", strings.NewReader("SELECT 1"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Presto-Disable-Spill", "maybe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "X-Presto-Disable-Spill") {
		t.Errorf("X-Presto-Disable-Spill: maybe: status %d %q, want 400 naming the header", resp.StatusCode, body)
	}
	all := http.Header{}
	for _, name := range exec.SwitchHeaders {
		all.Set(name, "true")
	}
	if got, want := switchesOf(all), exec.Switches(1<<len(exec.SwitchHeaders)-1).String(); got != want {
		t.Errorf("every header: the query ran under %q, want %q", got, want)
	}
}

// TestFragmentCacheMetrics: statements of one template compile each fragment
// once per worker, and /v1/metrics sums the workers' lookups.
func TestFragmentCacheMetrics(t *testing.T) {
	srv := testServerWith(t, &serving.Tier{Plans: serving.NewPlanCache(serving.PlanCacheConfig{})})
	for _, flag := range []string{"A", "N", "R", "A"} {
		if _, errStr := runSQL(t, srv, "SELECT count(*) FROM memory.flags WHERE flag = '"+flag+"'"); errStr != "" {
			t.Fatal(errStr)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "presto_fragment_cache_") {
			got[name] = value
		}
	}
	// The first statement plans, and its tasks compile their own; the second,
	// the template's first hit, compiles its fragments into the worker's
	// cache, and the two after it run them from there.
	misses, hits := got["presto_fragment_cache_misses_total"], got["presto_fragment_cache_hits_total"]
	if misses == "" || misses == "0" || hits == "" || hits == "0" || got["presto_fragment_cache_evictions_total"] != "0" {
		t.Fatalf("fragment cache metrics %v, want misses and hits and no evictions", got)
	}
	if want := fmt.Sprint(2 * mustAtoi(t, misses)); hits != want {
		t.Errorf("fragment cache hits %s, want two statements' worth of misses: %s", hits, want)
	}
}

// TestResultCacheSkippedMetric: a read the result cache cannot hold — one
// calling random() — is counted as skipped each time it runs; a cacheable
// read is not, a key-value read included: every connector versions its
// tables.
func TestResultCacheSkippedMetric(t *testing.T) {
	kv := kvconn.New("kv")
	if err := kv.CreateTable("t", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("t", []types.Value{types.BigintValue(1), types.BigintValue(10)}); err != nil {
		t.Fatal(err)
	}
	srv := testServerWith(t, &serving.Tier{
		Plans:   serving.NewPlanCache(serving.PlanCacheConfig{}),
		Results: serving.NewResultCache(serving.ResultCacheConfig{}),
	}, kv)
	for _, sql := range []string{
		"SELECT count(*) FROM memory.flags WHERE flag = 'A'",
		"SELECT count(*) FROM memory.flags WHERE flag = 'A'", // a hit
		"SELECT v FROM kv.t WHERE k = 1",
		"SELECT v FROM kv.t WHERE k = 1", // a hit
		"SELECT count(*) FROM memory.flags WHERE random() < 2",
		"SELECT count(*) FROM memory.flags WHERE random() < 2", // never a plan hit
	} {
		if _, errStr := runSQL(t, srv, sql); errStr != "" {
			t.Fatal(errStr)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"presto_result_cache_skipped_total 2\n",
		"presto_result_cache_hits_total 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestScrapedFragmentCacheStats: a remote worker's fragment-cache counters
// are read back from its scrape, whatever else the scrape holds.
func TestScrapedFragmentCacheStats(t *testing.T) {
	var scrape bytes.Buffer
	lbl := map[string]string{"worker": "3"}
	metrics.PromGauge(&scrape, "presto_worker_tasks", lbl, 9)
	metrics.PromGauge(&scrape, "presto_worker_fragment_cache_hits_total", lbl, 12)
	metrics.PromGauge(&scrape, "presto_worker_fragment_cache_misses_total", lbl, 4)
	metrics.PromGauge(&scrape, "presto_worker_fragment_cache_evictions_total", lbl, 1)
	got := scrapedFragmentCacheStats(scrape.Bytes())
	if want := (exec.FragmentCacheStats{Hits: 12, Misses: 4, Evictions: 1}); got != want {
		t.Errorf("scraped %+v, want %+v", got, want)
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	if _, errStr := runSQL(t, srv, "SELECT 1 + 2"); errStr != "" {
		t.Fatal(errStr)
	}
	// A group-by over a loaded table's low-cardinality string: the catalog
	// stores it under a dictionary and the aggregation resolves it by entry.
	if _, errStr := runSQL(t, srv, "SELECT flag, count(*) FROM memory.flags GROUP BY flag"); errStr != "" {
		t.Fatal(errStr)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`presto_executor_utilization{worker="0"}`,
		`presto_executor_threads{worker="0"} 2`,
		`presto_mlfq_level_runnable{level="0",worker="0"}`,
		`presto_shuffle_buffer_utilization{worker="0"}`,
		`presto_memory_general_limit_bytes{worker="0"}`,
		`presto_memory_reserved_limit_bytes{worker="0"}`,
		"presto_result_cache_restamps_total ",
		"presto_result_cache_skipped_total ",
		"presto_queries_running ",
		`presto_stage_input_skew_bucket{le="1.15"} `,
		`presto_stage_input_skew_bucket{le="+Inf"} `,
		"presto_stage_input_skew_sum ",
		"presto_stage_input_skew_count ",
		`presto_scan_rows_per_page_bucket{le="16"} `,
		"presto_scan_rows_per_page_count ",
		`presto_dictionary_rows_total{operator="HashAggregation"} 64`,
		`presto_worker_fragment_cache_misses_total{worker="0"} `,
		"presto_fragment_cache_hits_total ",
		"presto_fragment_cache_misses_total ",
		"presto_fragment_cache_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	// Workers keep no page cache, so a worker scrape carries no gauge of one.
	if strings.Contains(text, "presto_cache_") {
		t.Errorf("metrics output carries a page-cache gauge\n%s", text)
	}
}

// TestQueryCancelEndpoint: a statement whose stream is still open after its
// first document — a scan held in its connector — is cancellable by query id,
// and the fetch of its next document, in flight when the cancel arrives,
// answers FAILED at once: it does not wait for the drivers to exit, which a
// driver blocked in its connector does only when the call returns. Once the
// scan is let go, the node pool empties. An unknown id is a 404.
func TestQueryCancelEndpoint(t *testing.T) {
	s := newProtocolServer(t)
	doc := s.get(t, "/v1/statement", "SELECT a FROM gate.gated")
	if doc.QueryID == "" {
		t.Fatal("statement document carried no queryId")
	}
	if doc.NextURI == "" {
		t.Fatalf("the first document of a gated scan ended the stream (state %s)", doc.State)
	}
	type answer struct {
		doc StatementResponse
		err error
	}
	next, sent := make(chan answer, 1), s.requests.Load()
	go func() {
		var a answer
		resp, err := http.Get(s.URL + doc.NextURI)
		if a.err = err; err == nil {
			a.err = json.NewDecoder(resp.Body).Decode(&a.doc)
			resp.Body.Close()
		}
		next <- a
	}()
	for s.requests.Load() == sent { // the fetch has reached the server
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", s.URL+"/v1/query/"+doc.QueryID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("cancel status: %d", dresp.StatusCode)
	}
	select {
	case a := <-next:
		if a.err != nil || a.doc.State != "FAILED" || a.doc.NextURI != "" {
			t.Errorf("after the cancel the stream answered %+v (%v), want it ended FAILED", a.doc, a.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no document within 2 s of the cancel while the scan is held")
	}
	s.release()
	deadline := time.Now().Add(10 * time.Second)
	for s.worker.Pool.GeneralUsed() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the cancelled query left %d bytes in the node pool", s.worker.Pool.GeneralUsed())
		}
		time.Sleep(20 * time.Millisecond)
	}

	req, _ = http.NewRequest("DELETE", s.URL+"/v1/query/nope", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query cancel status: %d", dresp.StatusCode)
	}
}

// TestCancel: a statement whose stream is still open after its first
// document is cancelled by DELETE on its nextUri, which then names nothing.
func TestCancel(t *testing.T) {
	s := newProtocolServer(t)
	doc := s.get(t, "/v1/statement", "SELECT a FROM gate.gated")
	if doc.NextURI == "" {
		t.Fatalf("the first document of a gated scan ended the stream (state %s)", doc.State)
	}
	req, _ := http.NewRequest("DELETE", s.URL+doc.NextURI, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("cancel status: %d", dresp.StatusCode)
	}
	resp, err := http.Get(s.URL + doc.NextURI)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nextUri of a cancelled statement: status %d, want 404", resp.StatusCode)
	}
}

// failingBody delivers its first bytes and then a read error, like a request
// cut by a reset connection.
type failingBody struct {
	data []byte
	err  error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// TestStatementBodyReadError: a body that fails after ten bytes is a 400 with
// the error's text. Its first ten bytes are a statement of their own, which
// the server used to parse and run.
func TestStatementBodyReadError(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		name     string
		declared int64
		err      error
		want     string
	}{
		{"undeclared length", -1, io.ErrClosedPipe, io.ErrClosedPipe.Error()},
		{"declared length", 13, io.EOF, io.ErrUnexpectedEOF.Error()},
	} {
		req := httptest.NewRequest("POST", "/v1/statement", &failingBody{data: []byte("SELECT 123"), err: tc.err})
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: status %d body %q, want 400 naming %q", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
	}
}

func TestStatementTooLarge(t *testing.T) {
	srv := testServer(t)
	sql := "SELECT '" + strings.Repeat("x", maxStatementBytes) + "'"
	for _, declared := range []bool{true, false} {
		var body io.Reader = strings.NewReader(sql)
		if !declared {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		resp, err := http.Post(srv.URL+"/v1/statement", "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("declared length %v: status %d, want 413", declared, resp.StatusCode)
		}
	}
}
