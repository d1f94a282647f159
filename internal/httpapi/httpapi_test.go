package httpapi

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/types"
)

func testServer(t *testing.T) *httptest.Server {
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
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	coord := coordinator.New(catalog, workers, coordinator.Config{DefaultCatalog: "memory"})
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
	for _, name := range []string{"X-Presto-Disable-Foo", "X-Presto-Disable-HBO", "X-Presto-Disable-Shared-Scans"} {
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
		"presto_metadata_cache_hits_total ",
		"presto_metadata_cache_entries ",
		"presto_queries_running ",
		`presto_stage_input_skew_bucket{le="1.15"} `,
		`presto_stage_input_skew_bucket{le="+Inf"} `,
		"presto_stage_input_skew_sum ",
		"presto_stage_input_skew_count ",
		`presto_scan_rows_per_page_bucket{le="16"} `,
		"presto_scan_rows_per_page_count ",
		`presto_dictionary_rows_total{operator="HashAggregation"} 64`,
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

func TestQueryCancelEndpoint(t *testing.T) {
	srv := testServer(t)
	// A statement whose first document still carries a nextUri leaves the
	// query in the running state, so it is cancellable by query id.
	resp, err := http.Post(srv.URL+"/v1/statement", "text/plain",
		strings.NewReader("SELECT * FROM (VALUES (1),(2),(3)) t (a)"))
	if err != nil {
		t.Fatal(err)
	}
	var doc StatementResponse
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if doc.QueryID == "" {
		t.Fatal("statement document carried no queryId")
	}
	if doc.NextURI == "" {
		t.Skip("query finished in one document; nothing left to cancel")
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/query/"+doc.QueryID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("cancel status: %d", dresp.StatusCode)
	}

	req, _ = http.NewRequest("DELETE", srv.URL+"/v1/query/nope", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query cancel status: %d", dresp.StatusCode)
	}
}

func TestCancel(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/statement", "text/plain",
		strings.NewReader("SELECT * FROM (VALUES (1),(2)) t (a)"))
	if err != nil {
		t.Fatal(err)
	}
	var doc StatementResponse
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if doc.NextURI == "" {
		return // finished in one document; nothing to cancel
	}
	req, _ := http.NewRequest("DELETE", srv.URL+doc.NextURI, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("cancel status: %d", dresp.StatusCode)
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
