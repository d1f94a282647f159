package presto

// Differential property tests: random queries executed through the full
// distributed engine are checked against a straightforward in-Go reference
// evaluation over the same data. This catches whole-pipeline bugs (planning,
// pushdown, shuffles, partial aggregation) that unit tests miss.
//
// Every query runs twice — cold and warm — through diffQuery: the runs must
// agree row-for-row (the page cache may never change results), and the warm
// run's leaf scans must have served at least one split from the cache.

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffQuery runs sql twice and cross-checks the cache: identical rows both
// times, and the second (warm) run hits the page cache on its scans. Returns
// the warm rows in arrival order.
func diffQuery(t *testing.T, c *Cluster, sql string) [][]Value {
	t.Helper()
	coldRows, _ := runTrackedQuery(t, c, sql)
	warmRows, warmID := runTrackedQuery(t, c, sql)
	coldStr, warmStr := stringifyRows(coldRows), stringifyRows(warmRows)
	if len(coldStr) != len(warmStr) {
		t.Fatalf("%s: cold %d rows, warm %d rows", sql, len(coldStr), len(warmStr))
	}
	for i := range coldStr {
		if coldStr[i] != warmStr[i] {
			t.Fatalf("%s: cold/warm diverge at row %d: %q vs %q", sql, i, coldStr[i], warmStr[i])
		}
	}
	if hits := scanCacheHits(t, c, warmID); hits == 0 {
		t.Errorf("%s: warm run recorded no page-cache hits on its scans", sql)
	}
	return warmRows
}

// diffQueryRow is diffQuery for single-row results.
func diffQueryRow(t *testing.T, c *Cluster, sql string) []Value {
	t.Helper()
	rows := diffQuery(t, c, sql)
	if len(rows) != 1 {
		t.Fatalf("%s: expected 1 row, got %d", sql, len(rows))
	}
	return rows[0]
}

func runTrackedQuery(t *testing.T, c *Cluster, sql string) ([][]Value, string) {
	t.Helper()
	res, err := c.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows, res.QueryID
}

// scanCacheHits sums page-cache hits across a finished query's operators.
func scanCacheHits(t *testing.T, c *Cluster, id string) int64 {
	t.Helper()
	st, ok := c.QueryStats(id)
	if !ok {
		t.Fatalf("no stats for query %s", id)
	}
	var hits int64
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				hits += op.CacheHits
			}
		}
	}
	return hits
}

// refTable mirrors the engine table in plain Go.
type refRow struct {
	k    int64
	v    int64
	s    string
	null bool // v is NULL
}

func buildDifferentialCluster(t *testing.T, rows []refRow) *Cluster {
	t.Helper()
	// Serving caches off: this harness asserts page-cache hit behaviour on
	// warm repeats, which a result-cache hit would short-circuit. The serving
	// tier has its own differential suite in serving_test.go.
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true})
	t.Cleanup(c.Close)
	coldCatalog(t, c.catalog, "memory")
	mustExec(t, c, "CREATE TABLE d (k BIGINT, v BIGINT, s VARCHAR)")
	sql := "INSERT INTO d SELECT * FROM (VALUES "
	for i, r := range rows {
		if i > 0 {
			sql += ", "
		}
		v := fmt.Sprint(r.v)
		if r.null {
			v = "NULL"
		}
		sql += fmt.Sprintf("(%d, %s, '%s')", r.k, v, r.s)
	}
	sql += ")"
	mustExec(t, c, sql)
	return c
}

func randomRows(r *rand.Rand, n int) []refRow {
	letters := []string{"aa", "ab", "ba", "bb", "cc"}
	rows := make([]refRow, n)
	for i := range rows {
		rows[i] = refRow{
			k:    int64(r.Intn(20)),
			v:    int64(r.Intn(100) - 50),
			s:    letters[r.Intn(len(letters))],
			null: r.Intn(10) == 0,
		}
	}
	return rows
}

// TestDifferentialFilters compares engine row counts for random conjunctive
// predicates with a reference evaluation.
func TestDifferentialFilters(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rows := randomRows(r, 200)
	c := buildDifferentialCluster(t, rows)

	for trial := 0; trial < 25; trial++ {
		lo := int64(r.Intn(20))
		hi := lo + int64(r.Intn(10))
		vcut := int64(r.Intn(100) - 50)
		s := []string{"aa", "ab", "ba", "bb", "cc"}[r.Intn(5)]

		sql := fmt.Sprintf(
			"SELECT count(*) FROM d WHERE k BETWEEN %d AND %d AND (v > %d OR s = '%s')",
			lo, hi, vcut, s)
		got := diffQueryRow(t, c, sql)
		var want int64
		for _, row := range rows {
			if row.k < lo || row.k > hi {
				continue
			}
			// SQL three-valued logic: NULL v fails v > cut but can still
			// pass via the OR branch.
			cond := (!row.null && row.v > vcut) || row.s == s
			if cond {
				want++
			}
		}
		if got[0].I != want {
			t.Errorf("%s: engine=%d reference=%d", sql, got[0].I, want)
		}
	}
}

// TestDifferentialAggregates compares grouped aggregates with a reference.
func TestDifferentialAggregates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := randomRows(r, 300)
	c := buildDifferentialCluster(t, rows)

	got := diffQuery(t, c, "SELECT s, count(*), count(v), sum(v), min(v), max(v) FROM d GROUP BY s")
	type agg struct {
		cnt, cntV, sum, min, max int64
		has                      bool
	}
	want := map[string]*agg{}
	for _, row := range rows {
		a := want[row.s]
		if a == nil {
			a = &agg{}
			want[row.s] = a
		}
		a.cnt++
		if !row.null {
			a.cntV++
			a.sum += row.v
			if !a.has || row.v < a.min {
				a.min = row.v
			}
			if !a.has || row.v > a.max {
				a.max = row.v
			}
			a.has = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("groups: engine=%d reference=%d", len(got), len(want))
	}
	for _, g := range got {
		w := want[g[0].S]
		if w == nil {
			t.Fatalf("unexpected group %q", g[0].S)
		}
		if g[1].I != w.cnt || g[2].I != w.cntV || g[3].I != w.sum {
			t.Errorf("group %s counts/sums: engine=%v reference=%+v", g[0].S, g, *w)
		}
		if w.has && (g[4].I != w.min || g[5].I != w.max) {
			t.Errorf("group %s min/max: engine=%v reference=%+v", g[0].S, g, *w)
		}
	}
}

// TestDifferentialJoins compares join cardinalities with a reference
// nested-loop evaluation.
func TestDifferentialJoins(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	left := randomRows(r, 120)
	c := buildDifferentialCluster(t, left)
	right := randomRows(r, 60)
	mustExec(t, c, "CREATE TABLE e (k BIGINT, v BIGINT, s VARCHAR)")
	sql := "INSERT INTO e SELECT * FROM (VALUES "
	for i, row := range right {
		if i > 0 {
			sql += ", "
		}
		v := fmt.Sprint(row.v)
		if row.null {
			v = "NULL"
		}
		sql += fmt.Sprintf("(%d, %s, '%s')", row.k, v, row.s)
	}
	mustExec(t, c, sql+")")

	// Inner join on k.
	got := diffQueryRow(t, c, "SELECT count(*) FROM d JOIN e ON d.k = e.k")
	var inner int64
	for _, l := range left {
		for _, rr := range right {
			if l.k == rr.k {
				inner++
			}
		}
	}
	if got[0].I != inner {
		t.Errorf("inner join count: engine=%d reference=%d", got[0].I, inner)
	}

	// Left join preserves every left row.
	got = diffQueryRow(t, c, "SELECT count(*) FROM d LEFT JOIN e ON d.k = e.k AND e.v > 0")
	var leftCount int64
	for _, l := range left {
		matches := int64(0)
		for _, rr := range right {
			if l.k == rr.k && !rr.null && rr.v > 0 {
				matches++
			}
		}
		if matches == 0 {
			matches = 1 // null-extended row
		}
		leftCount += matches
	}
	if got[0].I != leftCount {
		t.Errorf("left join count: engine=%d reference=%d", got[0].I, leftCount)
	}

	// Semi join via IN.
	got = diffQueryRow(t, c, "SELECT count(*) FROM d WHERE k IN (SELECT k FROM e WHERE v > 0)")
	keys := map[int64]bool{}
	for _, rr := range right {
		if !rr.null && rr.v > 0 {
			keys[rr.k] = true
		}
	}
	var semi int64
	for _, l := range left {
		if keys[l.k] {
			semi++
		}
	}
	if got[0].I != semi {
		t.Errorf("semi join count: engine=%d reference=%d", got[0].I, semi)
	}
}

// TestDifferentialOrderLimit compares TopN results with a reference sort.
func TestDifferentialOrderLimit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := randomRows(r, 150)
	c := buildDifferentialCluster(t, rows)
	got := diffQuery(t, c, "SELECT v FROM d WHERE v IS NOT NULL ORDER BY v DESC LIMIT 10")
	var vals []int64
	for _, row := range rows {
		if !row.null {
			vals = append(vals, row.v)
		}
	}
	// Reference: selection sort for the top 10.
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] > vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	if len(got) != 10 {
		t.Fatalf("rows: %d", len(got))
	}
	for i := range got {
		if got[i][0].I != vals[i] {
			t.Errorf("rank %d: engine=%d reference=%d", i, got[i][0].I, vals[i])
		}
	}
}
