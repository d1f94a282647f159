package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestSameSeedSameStatements(t *testing.T) {
	lists := map[string]func(seed int64) []stmt{
		"scan_agg": func(seed int64) []stmt { return scanAggStatements(seed, 10000) },
		"join":     joinStatements,
		"spill":    spillStatements,
	}
	for name, build := range lists {
		if listHash(build(7)) != listHash(build(7)) {
			t.Errorf("%s: seed 7 gave two different statement lists", name)
		}
		if listHash(build(7)) == listHash(build(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same statement list", name)
		}
	}
	draws := func(seed int64) [20]int64 {
		r := rand.New(rand.NewSource(seed * 31))
		c := &servingClient{rng: r, zipf: rand.NewZipf(r, servingZipfS, 1, 2999)}
		var out [20]int64
		for i := range out {
			shape, key := c.next()
			out[i] = key*4 + int64(shape)
		}
		return out
	}
	if draws(7) != draws(7) || draws(7) == draws(8) {
		t.Errorf("serving_mix draws do not follow the seed: %v %v %v", draws(7), draws(7), draws(8))
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(hundred, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := percentile(hundred, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 4", q1, q3)
	}
}

func TestCheckerAcceptsAndRejects(t *testing.T) {
	row := func(k int64, s string, f float64) []cell {
		return []cell{{kind: cellInt, i: k}, {kind: cellStr, s: s}, {kind: cellFloat, f: f}}
	}
	sum := 1.1529737339700025e+07
	want := [][]cell{row(1, "a", sum), row(2, "b", 0.07), row(3, "c", 42)}

	lastUlp := [][]cell{row(1, "a", math.Nextafter(sum, 0)), row(2, "b", 0.06999999999999999), row(3, "c", 42)}
	if err := compareRows(lastUlp, want, true); err != nil {
		t.Errorf("last-ulp DOUBLE difference rejected: %v", err)
	}
	oracleSum := [][]cell{row(1, "a", 1.1529737339699984e+07), row(2, "b", 0.07), row(3, "c", 42)}
	if err := compareRows(oracleSum, want, true); err != nil {
		t.Errorf("summation-order difference rejected: %v", err)
	}
	if err := compareRows(want[:2], want, true); err == nil {
		t.Error("dropped row accepted")
	}
	swapped := [][]cell{want[1], want[0], want[2]}
	if err := compareRows(swapped, want, true); err == nil {
		t.Error("swapped rows accepted in an ordered result")
	}
	if err := compareRows(swapped, want, false); err != nil {
		t.Errorf("swapped rows rejected in an unordered result: %v", err)
	}
	off := [][]cell{row(1, "a", sum*(1+1e-6)), want[1], want[2]}
	if err := compareRows(off, want, true); err == nil {
		t.Error("1e-6 relative error accepted")
	}
	if err := compareRows(off, want, false); err == nil {
		t.Error("1e-6 relative error accepted in an unordered result")
	}
	wrongKey := [][]cell{row(9, "a", sum), want[1], want[2]}
	if err := compareRows(wrongKey, want, true); err == nil {
		t.Error("wrong bigint accepted")
	}

	// A DOUBLE with an integral value arrives over the protocol without a
	// fraction; it still has to equal the oracle's float.
	c, err := cellOfJSON(json.Number("42"))
	if err != nil || !cellsEqual(c, cell{kind: cellFloat, f: 42}) {
		t.Errorf("JSON 42 vs DOUBLE 42: %v %v", c, err)
	}
	c, _ = cellOfJSON(json.Number("1.1529737339700025e+07"))
	if !cellsEqual(c, cell{kind: cellFloat, f: sum}) {
		t.Errorf("JSON float did not round-trip: %v", c)
	}

	count := &expectation{kind: kindRowCount, rows: want}
	if err := count.check([][]cell{{{kind: cellInt, i: 3}}}); err != nil {
		t.Errorf("row count 3 rejected: %v", err)
	}
	if err := count.check([][]cell{{{kind: cellInt, i: 2}}}); err == nil {
		t.Error("row count 2 accepted for 3 reference rows")
	}
	self := &expectation{rows: want, ordered: true, self: func(rows [][]cell) error {
		return wantInt(rows, 2, 2, 41, "answer")
	}}
	if err := self.check(want); err == nil {
		t.Error("generator check that disagrees was ignored")
	}
}

// tiny is a sizing at which a whole run takes a fraction of a second.
var tiny = sizing{
	scanAggScale: 0.05, joinScale: 0.05, spillScale: 0.05, probeScale: 0.05,
	servingKeys: 100, servingSliceOps: 20,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifestIsCommittedAndWellFormed(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `bench/run.sh --manifest > BENCHMARK.json`")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(committed, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the permitted form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
}

// TestEveryWorkloadEmitsEveryMetric runs all five workloads, plain and
// traced, at a size that takes a moment: every declared metric must be
// emitted under its name and nothing undeclared may be, outputs must check
// out, the sanity predictions must hold, and the traced run must leave a
// span file with an op span per statement.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			traceOut := filepath.Join(dir, "trace-"+w.Name+".json")
			// As measure does, an attempt that engine defect 1 spoiled is
			// made again (about one of these ten in 250 is).
			r, err := runWorkload(w.Name, 3, 0.01, traced, tiny, dir)
			for attempt := 1; err == nil && r.s.failed > 0 && attempt < 3; attempt++ {
				t.Logf("%s traced=%v: attempt %d discarded: %v", w.Name, traced, attempt, r.s.failures)
				r, err = runWorkload(w.Name, 3, 0.01, traced, tiny, dir)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			line := r.report(w.Name, 3, traced)
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", w.Name, traced, line.Correct, line.Attempted, r.s.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the result line, %d declared", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := r.values[d.Name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s is never computed", w.Name, traced, d.Name)
				}
				if !traced && r.values[d.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, r.values[d.Name])
				}
			}
			declared := map[string]bool{}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				declared[d.Name] = true
			}
			for k := range r.values {
				if !declared[k] {
					t.Errorf("%s traced=%v: computed metric %s is not declared", w.Name, traced, k)
				}
			}
			if !traced {
				continue
			}
			// The predictions that need no timing: nothing spills without a
			// memory cap, HTTP traffic exists only in join_http (which alone
			// has a communication overhead), and the result cache is off on
			// the analytic workloads.
			v := r.values
			if w.Name != "spill_etl" && (v["spill.files_per_op"] != 0 || v["spill.read_amplification"] != 0) {
				t.Errorf("%s spilled without a memory cap: %v files/op", w.Name, v["spill.files_per_op"])
			}
			if w.Name != "serving_mix" && v["serving.result_hit_rate"] != 0 {
				t.Errorf("%s hit the result cache, which is off: %v", w.Name, v["serving.result_hit_rate"])
			}
			if http := v["wire.http_requests_per_op"]; (w.Name == "join_http") != (http > 0) {
				t.Errorf("%s: %v HTTP requests per op", w.Name, http)
			}
			if (w.Name == "join_http") != (v["shuffle.comm_overhead_ratio"] > 0) {
				t.Errorf("%s: communication overhead ratio %v", w.Name, v["shuffle.comm_overhead_ratio"])
			}
			raw, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatalf("%s: no span file: %v", w.Name, err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Args map[string]interface{}
				}
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("%s: span file: %v", w.Name, err)
			}
			roots, children := 0, 0
			for _, e := range trace.TraceEvents {
				if e.Name == spanOp {
					roots++
				} else if e.Args["parent"] == spanOp {
					children++
				}
			}
			if roots == 0 || children < roots {
				t.Errorf("%s: span file has %d op spans and %d children", w.Name, roots, children)
			}
		}
	}
}
