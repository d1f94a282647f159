package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	presto "repro"
	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/coordinator"
	"repro/internal/serving"
	engineworkload "repro/internal/workload"
)

// workload is one of the benchmark's five. A run is: setup (construction,
// data load, one warm-up pass), reference (untimed: the oracle and the
// generator produce what outputs are checked against), then a frozen number
// of timed passes of a fixed amount of work each.
type workload interface {
	// setup ends with the warm-up pass. Warm-up statements run before the
	// reference exists, so their outputs are checked only as far as they can
	// be; one that fails counts as a failed operation, the others are not
	// counted.
	setup() error
	reference() error
	// pass runs one pass and returns its time in seconds: the sum of its
	// statements' latencies for the analytic workloads, the elapsed time of
	// one slice of statements for serving_mix. A non-nil tracer makes it a
	// traced pass.
	pass(tr *tracer) float64
	// finish makes the checks that need the whole run (serving_mix counts
	// the table it wrote to).
	finish()
	engine() *engine
	close()
}

// samples is what the timed passes of a run add up to.
type samples struct {
	latMs     []float64            // per-statement latency, pooled over timed passes
	byStmt    map[string][]float64 // the same by statement id (serving_mix: by shape)
	attempted int
	failed    int
	failures  []string // first few failure messages, for the operator
	layers    *layerStats
}

func newSamples() *samples {
	return &samples{layers: newLayerStats(), byStmt: map[string][]float64{}}
}

// record counts one statement of a timed pass: its latency whatever the
// outcome, and the failure if err is an error, a passed deadline or a wrong
// output.
func (s *samples) record(id, what string, latMs float64, err error) {
	s.latMs = append(s.latMs, latMs)
	s.byStmt[id] = append(s.byStmt[id], latMs)
	s.count(what, err)
}

// count counts one checked operation that is not timed.
func (s *samples) count(what string, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.failures) < 5 {
			s.failures = append(s.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// counters are the engine-exported counters the benchmark reads before and
// after the timed phase; the metrics are their differences.
type counters struct {
	serving  serving.TierStats
	page     cache.Stats
	meta     cache.MetaStats
	requests int64
	bytes    int64
}

func (e *engine) counters() counters {
	c := counters{
		serving: e.coord.ServingStats(),
		page:    e.pageCacheStats(),
		meta:    e.coord.MetaCacheStats(),
	}
	if e.transport != nil {
		c.requests, c.bytes = e.transport.requests.Load(), e.transport.bytes.Load()
	}
	return c
}

// counterMetrics renders the counter differences over the timed phase.
func counterMetrics(before, after counters, ops int, out map[string]float64) {
	n := float64(ops)
	hitRate := func(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	ps, pe := before.serving.Plan, after.serving.Plan
	rs, re := before.serving.Result, after.serving.Result
	out["serving.plan_hit_rate"] = hitRate(pe.Hits-ps.Hits, pe.Misses-ps.Misses)
	out["serving.result_hit_rate"] = hitRate(re.Hits-rs.Hits, re.Misses-rs.Misses)
	out["serving.plan_invalidations"] = float64(pe.Invalidations - ps.Invalidations)
	out["serving.result_invalidations"] = float64(re.Invalidations - rs.Invalidations)
	out["cache.page_hit_rate"] = hitRate(after.page.Hits-before.page.Hits, after.page.Misses-before.page.Misses)
	out["cache.page_evictions"] = float64(after.page.Evictions - before.page.Evictions)
	out["cache.meta_hit_rate"] = hitRate(after.meta.Hits-before.meta.Hits, after.meta.Misses-before.meta.Misses)
	out["wire.http_requests_per_op"] = ratio(float64(after.requests-before.requests), n)
	out["wire.http_bytes_per_op"] = ratio(float64(after.bytes-before.bytes), n)
}

// analytic is the shape scan_agg, join_local, join_http and spill_etl share:
// one statement at a time from a fixed list against one engine, each output
// checked against the oracle's.
type analytic struct {
	seed int64
	// build makes the data and the deployment: it sets eng, conns (what the
	// oracle must share) and stmts.
	build func(a *analytic) error
	// facts makes the checks computed from the generator alone, by statement.
	facts func() map[string]func([][]cell) error
	// fixedOrder keeps the list order every pass (spill_etl creates, reads
	// and drops a table); otherwise the seed shuffles each pass.
	fixedOrder bool

	eng    *engine
	conns  []connector.Connector
	stmts  []stmt
	expect map[string]*expectation
	order  *rand.Rand
	s      *samples
	tmpDir string
}

func (a *analytic) engine() *engine { return a.eng }
func (a *analytic) finish()         {}

func (a *analytic) setup() error {
	a.order = rand.New(rand.NewSource(a.seed ^ 0x5eed))
	if err := a.build(a); err != nil {
		return err
	}
	for _, st := range a.stmts {
		if r := a.eng.run(st.SQL); r.err != nil {
			a.s.count(st.ID+" (warm-up)", r.err)
		}
	}
	return nil
}

// reference runs every statement's reference SQL on the oracle, once.
func (a *analytic) reference() error {
	oracle := newOracle(a.conns...)
	defer oracle.Close()
	self := a.facts()
	a.expect = map[string]*expectation{}
	for _, st := range a.stmts {
		e := &expectation{kind: st.Kind, ordered: st.Ordered, self: self[st.ID]}
		if st.Kind != kindDDL {
			rows, err := oracle.reference(st.refSQL())
			if err != nil {
				return fmt.Errorf("oracle %s: %w", st.ID, err)
			}
			e.rows = rows
		}
		a.expect[st.ID] = e
	}
	return nil
}

func (a *analytic) pass(tr *tracer) float64 {
	list := a.stmts
	if !a.fixedOrder {
		list = append([]stmt(nil), a.stmts...)
		a.order.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	var total time.Duration
	for _, st := range list {
		var pt planTimes
		if tr != nil {
			pt = a.eng.replayPlan(st.SQL)
		}
		r := a.eng.run(st.SQL)
		err := r.err
		if err == nil {
			err = a.expect[st.ID].check(r.rows)
		}
		total += r.latency()
		if tr != nil {
			recordOp(tr, a.eng, a.s.layers, 0, st.ID, pt, &r)
		}
		a.s.record(st.ID, st.ID, ms(r.latency()), err)
	}
	return total.Seconds()
}

// recordOp records one statement's spans and folds its numbers into the layer
// statistics.
func recordOp(tr *tracer, eng *engine, layers *layerStats, client int, id string, pt planTimes, r *opResult) {
	st, ok := coordinator.QueryStats{}, false
	if r.queryID != "" {
		st, ok = eng.coord.QueryStats(r.queryID)
		ok = ok && st.ElapsedNanos > 0 && len(st.Stages) > 0
	}
	layers.addOp(pt, r, st, ok)

	op := tr.newOp()
	args := map[string]interface{}{"stmt": id, "rows": len(r.rows)}
	if r.err != nil {
		args["error"] = r.err.Error()
	}
	if ok {
		args["cpu_ms"] = float64(st.CPUNanos) / 1e6
		args["blocked_ms"] = float64(st.BlockedNanos) / 1e6
		args["exec_elapsed_ms"] = float64(st.ElapsedNanos) / 1e6
		args["splits"] = st.SplitsTotal
		args["rows_read"] = st.RowsRead
		args["peak_memory_bytes"] = st.PeakMemoryBytes
		cpu := map[string]float64{}
		for _, sg := range st.Stages {
			for _, pl := range sg.Pipelines {
				for _, o := range pl.Operators {
					cpu[o.Name] += float64(o.CPUNanos) / 1e6
				}
			}
		}
		args["operator_cpu_ms"] = cpu
	}
	child := func(name string, start, end time.Time) {
		if end.After(start) {
			tr.add(span{name: name, op: op, client: client, start: start, end: end})
		}
	}
	t := pt.parseStart
	if t.IsZero() {
		t = r.start
	}
	tr.add(span{name: spanOp, op: op, client: client, start: t, end: r.end, args: args})
	child(spanParse, t, t.Add(pt.parse))
	t = t.Add(pt.parse)
	child(spanAnalyze, t, t.Add(pt.analyze))
	t = t.Add(pt.analyze)
	child(spanOptimize, t, t.Add(pt.optimize))
	t = t.Add(pt.optimize)
	child(spanFragment, t, t.Add(pt.fragment))
	child(spanExecute, r.start, r.executed)
	child(spanFirstPage, r.executed, r.firstPage)
	child(spanDrain, r.firstPage, r.end)
}

// close may be called more than once.
func (a *analytic) close() {
	if a.eng != nil {
		a.eng.Close()
		a.eng = nil
	}
	if a.tmpDir != "" {
		os.RemoveAll(a.tmpDir)
		a.tmpDir = ""
	}
}

// sizing is how much data a run uses. The benchmark always runs benchSizing;
// the package's smoke test shrinks it to finish in seconds.
type sizing struct {
	// TPC-H scale factors (scale 1 = 60 000 lineitem rows, 15 000 orders).
	scanAggScale, joinScale, spillScale, probeScale float64
	// serving_mix: the key pool (far larger than the 512-entry plan cache)
	// and the statements per client and pass.
	servingKeys, servingSliceOps int
}

// benchSizing is sized so that, on the two-core reference box, the set-ups,
// the oracle's pass and the timed phase of one workload fit in about twenty
// seconds: the acceptance driver makes over a hundred runs in under an hour.
var benchSizing = sizing{
	scanAggScale: 5, joinScale: 2, spillScale: 1, probeScale: 1,
	servingKeys: 3000, servingSliceOps: 500,
}

// passesPer10s freezes the length of the timed phase: this many passes for
// every ten of the --seconds asked for, which on the reference box take about
// that long. The amount of work is set here and not by the clock, because the
// coordinator keeps every finished query (README, engine defect 3): the heap,
// and with it the cost of a collection, grows with every statement, so a run
// cut off by the clock would measure a faster engine on a bigger heap.
var passesPer10s = map[string]float64{
	"scan_agg": 60, "join_local": 40, "join_http": 18, "serving_mix": 12, "spill_etl": 20,
}

// minPasses are measured however few seconds are asked for.
const minPasses = 3

func timedPasses(name string, seconds float64) int {
	if n := int(passesPer10s[name]*seconds/10 + 0.5); n > minPasses {
		return n
	}
	return minPasses
}

// spillNodeCap is the per-node query memory of spill_etl: small enough that
// both aggregations revoke and spill at benchSizing.spillScale.
const spillNodeCap = 1 << 20

func newScanAgg(seed int64, s *samples, scale float64) *analytic {
	return &analytic{seed: seed, s: s,
		build: func(a *analytic) error {
			mem := engineworkload.LoadTPCHMemory("tpch", scale)
			a.conns = []connector.Connector{mem}
			a.eng = newLocalEngine(presto.ClusterConfig{DisableResultCache: true}, mem)
			a.stmts = scanAggStatements(seed, partCount(scale))
			return nil
		},
		facts: func() map[string]func([][]cell) error {
			facts := generatedLineitemFacts(scale, 0)
			return map[string]func([][]cell) error{"q09": func(rows [][]cell) error {
				if err := wantInt(rows, 0, 0, facts.rows, "count(*)"); err != nil {
					return err
				}
				return wantInt(rows, 0, 1, facts.sumQuantity, "sum(l_quantity)")
			}}
		}}
}

// joinFacts checks q78 against the generator: every order key the generator
// draws for a line exists in orders, so the join keeps every line.
func joinFacts(scale float64) map[string]func([][]cell) error {
	facts := generatedLineitemFacts(scale, 0)
	return map[string]func([][]cell) error{"q78": func(rows [][]cell) error {
		var orders, lines float64
		for _, r := range rows {
			o, _ := r[1].numeric()
			l, _ := r[2].numeric()
			orders, lines = orders+o, lines+l
		}
		if int64(orders) != facts.distinctOrders || int64(lines) != facts.rows {
			return fmt.Errorf("q78 totals %v orders / %v lines, generator says %d / %d",
				orders, lines, facts.distinctOrders, facts.rows)
		}
		return nil
	}}
}

func newJoin(seed int64, s *samples, scale float64, overHTTP bool) *analytic {
	return &analytic{seed: seed, s: s,
		build: func(a *analytic) error {
			mem := engineworkload.LoadTPCHMemory("tpch", scale)
			a.conns = []connector.Connector{mem}
			if overHTTP {
				a.eng = newHTTPEngine(mem)
			} else {
				a.eng = newLocalEngine(presto.ClusterConfig{DisableResultCache: true}, mem)
			}
			a.stmts = joinStatements(seed)
			return nil
		},
		facts: func() map[string]func([][]cell) error { return joinFacts(scale) }}
}

func newSpillETL(seed int64, s *samples, scale float64, scratch string) *analytic {
	return &analytic{seed: seed, s: s, fixedOrder: true,
		build: func(a *analytic) error {
			dir, err := os.MkdirTemp(scratch, "spill_etl-")
			if err != nil {
				return err
			}
			a.tmpDir = dir
			lake, err := engineworkload.LoadTPCHHiveConfig("lake", scale, lakeConfig(dir+"/lake"))
			if err != nil {
				return err
			}
			if err := os.Mkdir(dir+"/spill", 0o755); err != nil {
				return err
			}
			a.conns = []connector.Connector{lake}
			a.eng = newLocalEngine(presto.ClusterConfig{
				DisableResultCache:      true,
				SpillEnabled:            true,
				SpillDir:                dir + "/spill",
				PerNodeQueryMemoryBytes: spillNodeCap,
			}, lake)
			a.stmts = spillStatements(seed)
			return nil
		},
		facts: func() map[string]func([][]cell) error {
			facts := generatedLineitemFacts(scale, int64(spillSince(seed)))
			return map[string]func([][]cell) error{"totals": func(rows [][]cell) error {
				if err := wantInt(rows, 0, 0, facts.partFlagGroups, "count(*)"); err != nil {
					return err
				}
				if err := wantInt(rows, 0, 1, facts.rows, "sum(line_count)"); err != nil {
					return err
				}
				return wantInt(rows, 0, 2, facts.sumQuantity, "sum(qty)")
			}}
		}}
}

// settle brings the heap to a comparable state before timing starts.
func settle() {
	runtime.GC()
	runtime.GC()
}
