package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	presto "repro"
	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/connectors/tpch"
	"repro/internal/coordinator"
	"repro/internal/httpapi"
	"repro/internal/types"
	engineworkload "repro/internal/workload"
)

// serving_mix sizing. The key pool is far larger than the 512-entry plan
// cache; the Zipf skew decides how often the caches hit.
const (
	servingClients  = 2
	servingZipfS    = 1.1
	servingWritePct = 5
	// eventsPerKey rows are preloaded for every key of memory.events.
	eventsPerKey = 4
	adShards     = 4
	adDays       = 4
)

type servingShape int

var shapeNames = [...]string{"ads", "orders", "events", "insert"}

const (
	shapeAds servingShape = iota
	shapeOrders
	shapeEvents
	shapeInsert
)

// servingMix is the advertiser/developer use case: two closed-loop clients
// (each sends its next statement when the previous reply is drained) speak
// the statement protocol to an in-process cluster behind httpapi.NewServer.
type servingMix struct {
	seed int64
	// keys is the size of the key pool every shape draws from, sliceOps the
	// fixed work of one pass: statements per client.
	keys, sliceOps int
	s              *samples
	mu             sync.Mutex // guards s between the two clients
	// warming is set during the warm-up pass: its statements are checked as
	// far as they can be (the writes count towards the final total), but they
	// are not timed and only the ones that fail are counted.
	warming bool

	eng   *engine
	conns []connector.Connector
	srv   *httptest.Server
	proto statementClient

	ads    map[int64][][]cell // reference rows per key
	byCust map[int64][][]cell
	// custOrders is the generator's own count of orders per customer.
	custOrders map[int64]int64

	clients []*servingClient
	// issued counts inserts sent per key (acknowledged or not): the upper
	// bound on what any read of that key may see.
	issued []atomic.Int64
	acked  atomic.Int64
	doubt  atomic.Int64 // inserts whose outcome is unknown (failed or expired)
}

type servingClient struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	// lastSeen is the last count(*) this client read per key, ownAcked its
	// own acknowledged inserts per key: reads must never go backwards and
	// must include the client's own writes.
	lastSeen map[int64]int64
	ownAcked map[int64]int64
}

func newServingMix(seed int64, s *samples, sz sizing) *servingMix {
	return &servingMix{seed: seed, s: s, keys: sz.servingKeys, sliceOps: sz.servingSliceOps}
}

func (m *servingMix) engine() *engine { return m.eng }

// ordersScale is the TPC-H scale with as many customers as keys: scale 1 has
// 1 500.
func (m *servingMix) ordersScale() float64 { return float64(m.keys) / 1500 }

func (m *servingMix) setup() error {
	ads, err := engineworkload.AdvertiserData("ads", adShards, m.keys, adDays)
	if err != nil {
		return err
	}
	tp := engineworkload.LoadTPCHMemory("tpch", m.ordersScale())

	events := memconn.New("memory")
	cols := []connector.Column{{Name: "app", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	apps := make([]int64, 0, m.keys*eventsPerKey)
	ones := make([]int64, 0, m.keys*eventsPerKey)
	for k := 0; k < m.keys; k++ {
		for i := 0; i < eventsPerKey; i++ {
			apps = append(apps, int64(k))
			ones = append(ones, 1)
		}
	}
	events.LoadTable("events", cols, []*block.Page{
		block.NewPage(block.NewLongBlock(apps, nil), block.NewLongBlock(ones, nil))})

	m.conns = []connector.Connector{ads, tp}
	// Every serving cache at its shipped default.
	m.eng = newLocalEngine(presto.ClusterConfig{}, ads, tp, events)
	m.srv = httptest.NewServer(httpapi.NewServer(m.eng.coord).Handler())
	m.proto = statementClient{
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servingClients}},
		url:   m.srv.URL,
		coord: m.eng.coord,
	}
	m.issued = make([]atomic.Int64, m.keys)
	m.clients = nil
	for id := 0; id < servingClients; id++ {
		r := rand.New(rand.NewSource(m.seed*31 + int64(id)))
		m.clients = append(m.clients, &servingClient{
			id: id, rng: r, zipf: rand.NewZipf(r, servingZipfS, 1, uint64(m.keys-1)),
			lastSeen: map[int64]int64{}, ownAcked: map[int64]int64{},
		})
	}
	m.warming = true
	m.pass(nil)
	m.warming = false
	return nil
}

// reference takes two bulk queries on the oracle and splits them by key, so
// every possible point read has its expected rows without 6 000 oracle runs.
func (m *servingMix) reference() error {
	oracle := newOracle(m.conns...)
	defer oracle.Close()
	split := func(sql string) (map[int64][][]cell, error) {
		rows, err := oracle.reference(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		out := map[int64][][]cell{}
		for _, row := range rows {
			out[row[0].i] = append(out[row[0].i], row[1:])
		}
		return out, nil
	}
	var err error
	if m.ads, err = split(`SELECT app_id, metric, sum(v), avg(v) FROM ads.app_metrics
		GROUP BY app_id, metric ORDER BY app_id, metric`); err != nil {
		return err
	}
	if m.byCust, err = split(`SELECT o_custkey, o_orderkey, o_orderstatus, o_totalprice, o_orderdate
		FROM tpch.orders ORDER BY o_custkey, o_orderkey`); err != nil {
		return err
	}
	m.custOrders = map[int64]int64{}
	for _, p := range tpch.Generate("orders", m.ordersScale(), tpchPageRows) {
		cust := p.Col(1)
		for i := 0; i < p.RowCount(); i++ {
			m.custOrders[cust.Long(i)]++
		}
	}
	return nil
}

func (c *servingClient) next() (servingShape, int64) {
	key := int64(c.zipf.Uint64())
	if c.rng.Intn(100) < servingWritePct {
		return shapeInsert, key
	}
	return servingShape(c.rng.Intn(3)), key
}

func servingSQL(shape servingShape, key int64) string {
	switch shape {
	case shapeAds:
		return engineworkload.AdvertiserQuery("ads", int(key))
	case shapeOrders:
		return fmt.Sprintf(`SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate
			FROM tpch.orders WHERE o_custkey = %d ORDER BY o_orderkey`, key)
	case shapeEvents:
		return fmt.Sprintf(`SELECT count(*), sum(v) FROM memory.events WHERE app = %d`, key)
	}
	return fmt.Sprintf(`INSERT INTO memory.events SELECT * FROM (VALUES (%d, 1))`, key)
}

// statementClient speaks the client statement protocol to one server.
type statementClient struct {
	http *http.Client
	url  string
	// coord cancels a statement that passed its deadline.
	coord *coordinator.Coordinator
}

// run sends one statement through the protocol and follows nextUri until the
// result is drained.
func (c *statementClient) run(sql string) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var r opResult
	r.start = time.Now()
	method, url, body := http.MethodPost, c.url+"/v1/statement", []byte(sql)
	for {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			r.err = err
			break
		}
		resp, err := c.http.Do(req)
		if err != nil {
			r.err = err
			if ctx.Err() != nil {
				r.err = errDeadline
				if r.queryID != "" {
					c.coord.Cancel(r.queryID)
				}
			}
			break
		}
		var doc httpapi.StatementResponse
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		err = dec.Decode(&doc)
		resp.Body.Close()
		if r.executed.IsZero() {
			r.executed = time.Now()
			r.firstPage = r.executed
		}
		if err != nil {
			r.err = fmt.Errorf("decode protocol document: %w", err)
			break
		}
		if doc.QueryID != "" {
			r.queryID = doc.QueryID
		}
		if doc.Error != "" {
			r.err = fmt.Errorf("statement failed: %s", doc.Error)
			break
		}
		for _, row := range doc.Data {
			cells := make([]cell, len(row))
			for j, v := range row {
				if cells[j], err = cellOfJSON(v); err != nil {
					r.err = err
				}
			}
			r.rows = append(r.rows, cells)
		}
		if doc.NextURI == "" || r.err != nil {
			break
		}
		method, url, body = http.MethodGet, c.url+doc.NextURI, nil
	}
	r.end = time.Now()
	if r.executed.IsZero() {
		r.executed, r.firstPage = r.end, r.end
	}
	return r
}

// checkOp holds one reply to what it must be. Reads of the immutable tables
// have reference rows; reads of memory.events, which the other client is
// writing, must be internally consistent, never go backwards, include the
// client's own acknowledged writes and not exceed the writes sent.
func (m *servingMix) checkOp(c *servingClient, shape servingShape, key int64, r *opResult, issuedAfter int64) error {
	if r.err != nil {
		return r.err
	}
	switch shape {
	case shapeAds:
		if m.ads == nil {
			return nil // warm-up, before the reference exists
		}
		return compareRows(r.rows, m.ads[key], true)
	case shapeOrders:
		if m.byCust == nil {
			return nil
		}
		if int64(len(r.rows)) != m.custOrders[key] {
			return fmt.Errorf("%d orders, generator says %d", len(r.rows), m.custOrders[key])
		}
		return compareRows(r.rows, m.byCust[key], true)
	case shapeEvents:
		if len(r.rows) != 1 || len(r.rows[0]) != 2 || r.rows[0][0].kind != cellInt {
			return fmt.Errorf("want one (count, sum) row, got %v", r.rows)
		}
		n := r.rows[0][0].i
		if sum, _ := r.rows[0][1].numeric(); sum != float64(n) {
			return fmt.Errorf("sum(v) %v differs from count(*) %d though every v is 1", sum, n)
		}
		lo := eventsPerKey + c.ownAcked[key]
		if c.lastSeen[key] > lo {
			lo = c.lastSeen[key]
		}
		if hi := eventsPerKey + issuedAfter; n < lo || n > hi {
			return fmt.Errorf("count(*) %d outside [%d, %d]", n, lo, hi)
		}
		c.lastSeen[key] = n
		return nil
	}
	return wantInt(r.rows, 0, 0, 1, "rows inserted")
}

// slice runs one client's share of a pass.
func (m *servingMix) slice(c *servingClient, tr *tracer) {
	for i := 0; i < m.sliceOps; i++ {
		shape, key := c.next()
		sql := servingSQL(shape, key)
		var pt planTimes
		if tr != nil {
			pt = m.eng.replayPlan(sql)
		}
		if shape == shapeInsert {
			m.issued[key].Add(1)
		}
		r := m.proto.run(sql)
		err := m.checkOp(c, shape, key, &r, m.issued[key].Load())
		if shape == shapeInsert {
			if err == nil {
				c.ownAcked[key]++
				m.acked.Add(1)
			} else {
				m.doubt.Add(1)
			}
		}
		what := fmt.Sprintf("client %d %s", c.id, sql)
		m.mu.Lock()
		switch {
		case !m.warming:
			m.s.record(shapeNames[shape], what, ms(r.latency()), err)
			if tr != nil {
				recordOp(tr, m.eng, m.s.layers, c.id, sql, pt, &r)
			}
		case err != nil:
			m.s.count(what+" (warm-up)", err)
		}
		m.mu.Unlock()
	}
}

func (m *servingMix) pass(tr *tracer) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range m.clients {
		wg.Add(1)
		go func(c *servingClient) {
			defer wg.Done()
			m.slice(c, tr)
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// finish counts the table once the clients are done: every acknowledged
// insert, and no more than the doubtful ones besides, must be there.
func (m *servingMix) finish() {
	lo := int64(m.keys*eventsPerKey) + m.acked.Load()
	hi := lo + m.doubt.Load()
	r := m.proto.run("SELECT count(*) FROM memory.events")
	err := r.err
	if err == nil && (len(r.rows) != 1 || r.rows[0][0].kind != cellInt || r.rows[0][0].i < lo || r.rows[0][0].i > hi) {
		err = fmt.Errorf("memory.events has %v rows, want %d..%d (preload + acknowledged inserts)", r.rows, lo, hi)
	}
	m.s.count("final count", err)
}

// close may be called more than once.
func (m *servingMix) close() {
	if m.srv != nil {
		m.srv.Close()
		m.proto.http.CloseIdleConnections()
		m.srv = nil
	}
	if m.eng != nil {
		m.eng.Close()
		m.eng = nil
	}
}
