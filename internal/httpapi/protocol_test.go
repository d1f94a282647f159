package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/types"
)

// gatedConnector is memconn, except that a scan of the table "gated" returns
// its first page and then waits for gate to close before it goes on: with
// failure when that is set, otherwise with the rest of the table.
type gatedConnector struct {
	*memconn.Connector
	gate    chan struct{}
	failure error
}

func (c *gatedConnector) PageSource(s connector.Split, columns []string, h plan.TableHandle) (connector.PageSource, error) {
	src, err := c.Connector.PageSource(s, columns, h)
	if err != nil || h.Table != "gated" {
		return src, err
	}
	return &gatedSource{PageSource: src, c: c}, nil
}

type gatedSource struct {
	connector.PageSource
	c     *gatedConnector
	pages int
}

func (s *gatedSource) NextPage() (*block.Page, error) {
	if s.pages++; s.pages > 1 {
		<-s.c.gate
		if s.c.failure != nil {
			return nil, s.c.failure
		}
	}
	return s.PageSource.NextPage()
}

// protocolServer is a coordinator with the serving tier's caches, behind the
// statement protocol, counting the statement requests it serves. Its memory
// catalog has "big", 12 pages of 1 024 rows (k, s) with a 1 KiB s, some
// 12 MiB in all; its gate catalog has "gated", of two one-row pages, in one
// split (gatedConnector).
type protocolServer struct {
	*httptest.Server
	coord    *coordinator.Coordinator
	worker   *exec.Worker
	gate     *gatedConnector
	requests atomic.Int64
}

func newProtocolServer(t *testing.T) *protocolServer {
	t.Helper()
	catalog := coordinator.NewCatalogManager()
	mem := memconn.New("memory")
	var pages []*block.Page
	for p := 0; p < bigRows/1024; p++ {
		ks := make([]int64, 1024)
		ss := make([]string, 1024)
		for i := range ks {
			ks[i] = int64(p*1024 + i)
			// Distinct values, so the catalog keeps them flat.
			ss[i] = fmt.Sprintf("%08d", ks[i]) + strings.Repeat(string(rune('a'+p)), 1<<10-8)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(ks, nil), block.NewVarcharBlock(ss, nil)))
	}
	mem.LoadTable("big", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}, pages)
	catalog.Register(mem)
	gate := &gatedConnector{Connector: memconn.New("gate"), gate: make(chan struct{})}
	gate.SplitsPerTable = 1
	gate.LoadTable("gated", []connector.Column{{Name: "a", T: types.Bigint}}, []*block.Page{
		block.NewPage(block.NewLongBlock([]int64{1}, nil)), block.NewPage(block.NewLongBlock([]int64{2}, nil))})
	catalog.Register(gate)
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	tier := &serving.Tier{
		Plans:   serving.NewPlanCache(serving.PlanCacheConfig{}),
		Results: serving.NewResultCache(serving.ResultCacheConfig{}),
	}
	s := &protocolServer{
		coord:  coordinator.New(catalog, workers, coordinator.Config{DefaultCatalog: "memory", Serving: tier}),
		gate:   gate,
		worker: workers[0],
	}
	h := NewServer(s.coord).Handler()
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/statement") {
			s.requests.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		s.release()
		s.Close()
		workers[0].Close()
	})
	return s
}

// release opens the gate (once).
func (s *protocolServer) release() {
	select {
	case <-s.gate.gate:
	default:
		close(s.gate.gate)
	}
}

// get decodes the document at url (POSTing sql when it is not empty).
func (s *protocolServer) get(t *testing.T, url, sql string) StatementResponse {
	t.Helper()
	var resp *http.Response
	var err error
	if sql != "" {
		resp, err = http.Post(s.URL+url, "text/plain", strings.NewReader(sql))
	} else {
		resp, err = http.Get(s.URL + url)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatementResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s: status %d: %v", url, resp.StatusCode, err)
	}
	return doc
}

// run drains sql and returns its documents.
func (s *protocolServer) run(t *testing.T, sql string) []StatementResponse {
	t.Helper()
	docs := []StatementResponse{s.get(t, "/v1/statement", sql)}
	for docs[len(docs)-1].NextURI != "" {
		docs = append(docs, s.get(t, docs[len(docs)-1].NextURI, ""))
	}
	if last := docs[len(docs)-1]; last.Error != "" {
		t.Fatalf("%s: %s", sql, last.Error)
	}
	return docs
}

// TestSmallStatementCostsOneRequest: a DDL statement, an INSERT, a one-page
// SELECT and a repeat the result cache serves each cost exactly one HTTP
// request: the document that carries the rows also ends the stream. A DDL
// statement's and a cache hit's end is known when the statement is admitted;
// an INSERT's row count and a SELECT's aggregate are drained after their
// pipeline's source finished, so the output sink holds that last page until
// the task ends and the fetch receives it together with the end of the
// stream (operators.PartitionedOutputOperator.Tail).
func TestSmallStatementCostsOneRequest(t *testing.T) {
	s := newProtocolServer(t)
	const runs = 20
	for _, shape := range []struct {
		name string
		sql  func(i int) string
		rows int // in the statement's result
	}{
		{"DDL", func(i int) string { return fmt.Sprintf("CREATE TABLE t%d (a BIGINT)", i) }, 1},
		{"INSERT", func(i int) string { return fmt.Sprintf("INSERT INTO t0 SELECT * FROM (VALUES (%d), (1))", i) }, 1},
		{"one-page SELECT", func(i int) string { return fmt.Sprintf("SELECT count(*), sum(a) FROM t0 WHERE a >= %d", i) }, 1},
		{"result-cache repeat", func(int) string { return "SELECT sum(a) FROM t0" }, 1},
	} {
		if shape.name == "result-cache repeat" {
			s.run(t, shape.sql(0)) // fills the cache
		}
		hits := s.coord.ServingStats().Result.Hits
		before := s.requests.Load()
		for i := 0; i < runs; i++ {
			sql := shape.sql(i)
			n := s.requests.Load()
			docs := s.run(t, sql)
			n = s.requests.Load() - n
			if n != 1 {
				t.Errorf("%s: %s cost %d requests", shape.name, sql, n)
			}
			if len(docs[0].Data) != shape.rows || docs[len(docs)-1].State != "FINISHED" {
				t.Errorf("%s: %s: %d rows in the first document, ended %s", shape.name, sql, len(docs[0].Data), docs[len(docs)-1].State)
			}
		}
		t.Logf("%s: %.2f requests per statement", shape.name, float64(s.requests.Load()-before)/runs)
		if got := s.coord.ServingStats().Result.Hits - hits; shape.name == "result-cache repeat" && got != runs {
			t.Errorf("%d of %d repeats were result-cache hits", got, runs)
		}
	}
}

// bigRows is the row count of the table "big".
const bigRows = 12 * 1024

// TestLargeResultStreamsOverDocuments: a result larger than one fetch (4 MB)
// still streams over several documents, its rows in order, and only the last
// document lacks a nextUri.
func TestLargeResultStreamsOverDocuments(t *testing.T) {
	s := newProtocolServer(t)
	docs := s.run(t, "SELECT k, s FROM big ORDER BY k")
	if len(docs) < 2 {
		t.Fatalf("%d documents for a 12 MiB result, want more than one fetch's", len(docs))
	}
	next := int64(0)
	for i, doc := range docs {
		if last := i == len(docs)-1; (doc.NextURI == "") != last {
			t.Errorf("document %d of %d: nextUri %q", i+1, len(docs), doc.NextURI)
		}
		for _, row := range doc.Data {
			if k := int64(row[0].(float64)); k != next || len(row[1].(string)) != 1<<10 {
				t.Fatalf("document %d: row k=%d, want k=%d", i+1, k, next)
			}
			next++
		}
	}
	if next != bigRows {
		t.Errorf("%d rows, want %d", next, bigRows)
	}
}

// TestFailureAfterFirstPagesIsFailedDocument: a scan that fails after its
// first page has reached the client ends the stream with a FAILED document
// carrying the error.
func TestFailureAfterFirstPagesIsFailedDocument(t *testing.T) {
	s := newProtocolServer(t)
	s.gate.failure = errors.New("disk on fire")
	first := s.get(t, "/v1/statement", "SELECT a FROM gate.gated")
	if first.NextURI == "" || first.State != "RUNNING" || len(first.Data) != 1 {
		t.Fatalf("first document: state %s, %d rows, nextUri %q; want the first page of an open stream",
			first.State, len(first.Data), first.NextURI)
	}
	s.release()
	doc := first
	for doc.NextURI != "" {
		doc = s.get(t, doc.NextURI, "")
	}
	if doc.State != "FAILED" || !strings.Contains(doc.Error, "disk on fire") {
		t.Fatalf("last document: state %s, error %q; want FAILED with the scan's error", doc.State, doc.Error)
	}
}

// TestOneDocumentDrainCommitsToResultCache: a statement drained in one
// document commits its result, so the next identical statement is a
// result-cache hit, also served in one document. (A statement whose end
// missed its first document is drained by a second; the first of twenty
// distinct statements that did not is the one repeated.)
func TestOneDocumentDrainCommitsToResultCache(t *testing.T) {
	s := newProtocolServer(t)
	sql := ""
	for k := 100; sql == "" && k < 120; k++ {
		stmt := fmt.Sprintf("SELECT count(*), max(k) FROM big WHERE k < %d", k)
		if docs := s.run(t, stmt); len(docs) == 1 {
			sql = stmt
		}
	}
	if sql == "" {
		t.Fatal("none of twenty one-page statements was drained in one document")
	}
	before := s.coord.ServingStats().Result
	docs := s.run(t, sql)
	after := s.coord.ServingStats().Result
	if after.Hits != before.Hits+1 || len(docs) != 1 {
		t.Fatalf("repeat: result-cache hits %d -> %d in %d documents; want one hit in one", before.Hits, after.Hits, len(docs))
	}
	data, _ := json.Marshal(docs[0].Data)
	var n, k int
	if _, err := fmt.Sscanf(string(data), "[[%d,%d]]", &n, &k); err != nil || n != k+1 {
		t.Errorf("repeat served %s", data)
	}
}

// TestForgottenQueryIsGone: once the coordinator has forgotten a finished
// query, its info and stats answer 410 Gone; an id it never issued is still a
// 404.
func TestForgottenQueryIsGone(t *testing.T) {
	s := newProtocolServer(t)
	id := s.run(t, "SELECT count(*) FROM big")[0].QueryID
	for i := 0; !s.coord.Forgotten(id); i++ {
		if i == 5000 {
			t.Fatalf("%s still remembered after %d more queries", id, i)
		}
		res, err := s.coord.Execute("SELECT 1", coordinator.Session{})
		if err == nil {
			_, err = res.All()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/query/" + id, http.StatusGone},
		{"/v1/query/" + id + "/stats", http.StatusGone},
		{"/v1/query/q99999999", http.StatusNotFound},
		{"/v1/query/q99999999/stats", http.StatusNotFound},
		{"/v1/query/nope/stats", http.StatusNotFound},
	} {
		resp, err := http.Get(s.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

// TestFinishedQueryStatsOverHTTP: /v1/query/{id}/stats of a finished query
// carries the stages and operator rows the coordinator builds in process from
// the query's task tallies (coordinator.TestFinishedQueryStatsMatchSnapshots
// holds those to the snapshot builder).
func TestFinishedQueryStatsOverHTTP(t *testing.T) {
	s := newProtocolServer(t)
	docs := s.run(t, "SELECT count(*), max(k) FROM memory.big WHERE k > 10")
	id := docs[0].QueryID
	if id == "" {
		t.Fatal("the statement carried no queryId")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, _ := s.coord.QueryInfo(id); info.State == coordinator.StateFinished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the drained statement never finished")
		}
	}
	resp, err := http.Get(s.URL + "/v1/query/" + id + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got coordinator.QueryStats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	st, ok := s.coord.QueryStats(id)
	if !ok {
		t.Fatal("the coordinator forgot the query")
	}
	// Through JSON, as the server sent it.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var want coordinator.QueryStats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stages, want.Stages) || len(want.Stages) < 2 {
		t.Errorf("stages over HTTP\n%+v\nin process\n%+v", got.Stages, want.Stages)
	}
	if a, b := coordinator.FormatOperatorTable(got), coordinator.FormatOperatorTable(st); a != b {
		t.Errorf("operator rows over HTTP\n%s\nin process\n%s", a, b)
	}
}
