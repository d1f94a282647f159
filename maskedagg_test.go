package presto

import (
	"math"
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/connectors/tpch"
	"repro/internal/types"
	"repro/internal/workload"
)

// maskedRows is the table the masked-aggregate cases read: g groups, p = 1 is
// the mask (NULL on rows 3 and 8), y and d are the arguments (NULL, -0.0 and
// NaN among them), and x is zero only on rows whose p is not 1.
//
//	row g  p    y    d     x
//	1   a  1    10   1.5   2
//	2   a  0    20   -0.0  0
//	3   a  NULL 30   4.0   0
//	4   b  1    NULL NULL  5
//	5   b  1    NULL -0.0  1
//	6   c  0    7    NaN   0
//	7   d  1    100  NaN   4
//	8   e  NULL 5    2.0   0
func maskedRows() (cols []connector.Column, rows [][]types.Value) {
	cols = []connector.Column{
		{Name: "g", T: types.Varchar}, {Name: "p", T: types.Bigint}, {Name: "y", T: types.Bigint},
		{Name: "d", T: types.Double}, {Name: "x", T: types.Bigint},
	}
	nullB, nullD := types.NullValue(types.Bigint), types.NullValue(types.Double)
	b, d, s := types.BigintValue, types.DoubleValue, types.VarcharValue
	negZero, nan := math.Copysign(0, -1), math.NaN()
	rows = [][]types.Value{
		{s("a"), b(1), b(10), d(1.5), b(2)},
		{s("a"), b(0), b(20), d(negZero), b(0)},
		{s("a"), nullB, b(30), d(4), b(0)},
		{s("b"), b(1), nullB, nullD, b(5)},
		{s("b"), b(1), nullB, d(negZero), b(1)},
		{s("c"), b(0), b(7), d(nan), b(0)},
		{s("d"), b(1), b(100), d(nan), b(4)},
		{s("e"), nullB, b(5), d(2), b(0)},
	}
	return cols, rows
}

// maskedCase is one statement over maskedRows and its rows, worked out by
// hand from the table above (ordered by g). masked says whether the plan
// masks its aggregates (the CASE forms maskCaseAggregates rewrites) or keeps
// the CASE.
type maskedCase struct {
	sql    string
	masked bool
	want   []string
}

var maskedCases = []maskedCase{
	// ELSE 0: a group with rows none of which the mask holds sums to 0; one
	// whose masked rows all have a NULL y is NULL.
	{`SELECT g, sum(CASE WHEN p = 1 THEN y ELSE 0 END) FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|10", "b|NULL", "c|0", "d|100", "e|0"}},
	// THEN 0 ELSE y: the mask is "p = 1 is not TRUE", so a NULL p takes y.
	{`SELECT g, sum(CASE WHEN p = 1 THEN 0 ELSE y END) FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|50", "b|0", "c|7", "d|0", "e|5"}},
	// No ELSE: every aggregate of the masked rows only.
	{`SELECT g, sum(CASE WHEN p = 1 THEN y END), count(CASE WHEN p = 1 THEN y END),
			avg(CASE WHEN p = 1 THEN d END), min(CASE WHEN p = 1 THEN d END), max(CASE WHEN p = 1 THEN d END)
		FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|10|1|1.5|1.5|1.5", "b|NULL|0|0|-0|-0", "c|NULL|0|NULL|NULL|NULL", "d|100|1|NaN|NaN|NaN", "e|NULL|0|NULL|NULL|NULL"}},
	// DOUBLE y under ELSE 0, with -0.0 and NaN; a BIGINT y under ELSE 0.0.
	{`SELECT g, sum(CASE WHEN p = 1 THEN d ELSE 0 END), sum(CASE WHEN p = 1 THEN y ELSE 0.0 END)
		FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|1.5|10", "b|0|NULL", "c|0|0", "d|NaN|100", "e|0|0"}},
	// y is evaluated at the masked rows only: x is zero nowhere else.
	{`SELECT g, sum(CASE WHEN p = 1 THEN 100 / x ELSE 0 END), sum(CASE WHEN x = 0 THEN 0 ELSE 100 / x END),
			max(CASE WHEN x <> 0 THEN 100 / x END)
		FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|50|50|50", "b|120|120|100", "c|0|0|NULL", "d|25|25|25", "e|0|0|NULL"}},
	// An all-false mask.
	{`SELECT g, sum(CASE WHEN p = 7 THEN y ELSE 0 END), sum(CASE WHEN p = 7 THEN y END)
		FROM memory.masked GROUP BY g ORDER BY g`, true,
		[]string{"a|0|NULL", "b|0|NULL", "c|0|NULL", "d|0|NULL", "e|0|NULL"}},
	// A WHERE clause that empties group c, and one that keeps some rows.
	{`SELECT g, sum(CASE WHEN p = 1 THEN y ELSE 0 END) FROM memory.masked WHERE g <> 'c' GROUP BY g ORDER BY g`, true,
		[]string{"a|10", "b|NULL", "d|100", "e|0"}},
	{`SELECT g, sum(CASE WHEN p = 1 THEN 0 ELSE y END), count(CASE WHEN p = 1 THEN d END)
		FROM memory.masked WHERE x <> 0 GROUP BY g ORDER BY g`, true,
		[]string{"a|0|1", "b|0|1", "d|0|1"}},
	// Global aggregations: over every row, an all-false mask among them, and
	// over an empty input.
	{`SELECT sum(CASE WHEN p = 1 THEN y ELSE 0 END), sum(CASE WHEN p = 1 THEN 0 ELSE y END), count(CASE WHEN p = 1 THEN y END),
			sum(CASE WHEN p = 7 THEN y ELSE 0 END), sum(CASE WHEN p = 7 THEN y END)
		FROM memory.masked`, true,
		[]string{"110|62|2|0|NULL"}},
	{`SELECT sum(CASE WHEN p = 1 THEN y ELSE 0 END), count(CASE WHEN p = 1 THEN y END), max(CASE WHEN p = 1 THEN d END)
		FROM memory.masked WHERE g = 'zzz'`, true,
		[]string{"NULL|0|NULL"}},
	// An empty table, globally and grouped.
	{`SELECT sum(CASE WHEN p = 1 THEN y ELSE 0 END), sum(CASE WHEN p = 1 THEN 0 ELSE y END), count(CASE WHEN p = 1 THEN y END)
		FROM memory.empty`, true,
		[]string{"NULL|NULL|0"}},
	{`SELECT g, sum(CASE WHEN p = 1 THEN y ELSE 0 END) FROM memory.empty GROUP BY g`, true, nil},
	// Forms that stay CASE: an ELSE other than 0 or NULL, and two WHENs.
	{`SELECT g, sum(CASE WHEN p = 1 THEN y ELSE 1 END) FROM memory.masked GROUP BY g ORDER BY g`, false,
		[]string{"a|12", "b|NULL", "c|1", "d|100", "e|1"}},
	{`SELECT g, sum(CASE WHEN p = 1 THEN y WHEN p = 0 THEN 2 ELSE 0 END) FROM memory.masked GROUP BY g ORDER BY g`, false,
		[]string{"a|12", "b|NULL", "c|2", "d|100", "e|0"}},
}

// TestMaskedAggregates runs maskedCases in process and on two HTTP workers,
// whose fragments carry the masks over the wire, and checks each against its
// hand-worked rows and its plan against the rewrite it expects.
func TestMaskedAggregates(t *testing.T) {
	cols, rows := maskedRows()
	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer local.Close()
	mem := memconn.New("memory")
	local.Register(mem)
	dist := newDistCluster(t, 2, nil)
	for _, conn := range []*memconn.Connector{mem, dist.mem} {
		if err := conn.CreateTable("masked", cols); err != nil {
			t.Fatal(err)
		}
		if err := conn.AppendRows("masked", rows); err != nil {
			t.Fatal(err)
		}
		if err := conn.CreateTable("empty", cols); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range maskedCases {
		plan, err := local.Explain(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan, " mask "); got != tc.masked {
			t.Errorf("%s: plan masks an aggregate = %v, want %v\n%s", tc.sql, got, tc.masked, plan)
		}
		want := strings.Join(tc.want, "\n")
		if got := joinRows(execSession(t, local, tc.sql, Session{})); got != want {
			t.Errorf("%s in process:\n%s\nwant:\n%s", tc.sql, got, want)
		}
		if got := joinRows(dist.mustQuery(t, tc.sql)); got != want {
			t.Errorf("%s on HTTP workers:\n%s\nwant:\n%s", tc.sql, got, want)
		}
	}
}

// joinRows renders rows in their order, one a line, columns joined by |.
func joinRows(rows [][]Value) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	return strings.Join(lines, "\n")
}

// TestMaskedSumsMatchGenerator checks the masked forms against totals worked
// out in Go from the generator's rows, independently of the engine: q09's five
// bucket sums (ELSE 0), and q80's two sums per brand (THEN 0 ELSE y and ELSE
// 0) over the lineitem ⋈ part join. Double sums are compared to a relative
// 1e-9: the engine adds in its own order.
func TestMaskedSumsMatchGenerator(t *testing.T) {
	const scale = 1
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", scale))

	colOf := func(table, name string) int {
		for i, col := range tpch.Columns(table) {
			if col.Name == name {
				return i
			}
		}
		t.Fatalf("no column %s.%s", table, name)
		return -1
	}
	brand := map[int64]string{}
	for _, p := range tpch.Generate("part", scale, 4096) {
		key, b := p.Col(colOf("part", "p_partkey")), p.Col(colOf("part", "p_brand"))
		for i := 0; i < p.RowCount(); i++ {
			brand[key.Long(i)] = b.Str(i)
		}
	}
	since, err := types.ParseDate("1994-01-03")
	if err != nil {
		t.Fatal(err)
	}
	var buckets [5]float64
	type q80Row struct {
		lines          int64
		kept, returned float64
	}
	perBrand := map[string]*q80Row{}
	for _, p := range tpch.Generate("lineitem", scale, 4096) {
		qty, price := p.Col(colOf("lineitem", "l_quantity")), p.Col(colOf("lineitem", "l_extendedprice"))
		part, flag, ship := p.Col(colOf("lineitem", "l_partkey")), p.Col(colOf("lineitem", "l_returnflag")), p.Col(colOf("lineitem", "l_shipdate"))
		for i := 0; i < p.RowCount(); i++ {
			if q := qty.Double(i); q >= 1 && q <= 50 {
				buckets[int(q-1)/10] += price.Double(i)
			}
			b, ok := brand[part.Long(i)]
			if !ok || ship.Long(i) < since {
				continue
			}
			r := perBrand[b]
			if r == nil {
				r = &q80Row{}
				perBrand[b] = r
			}
			r.lines++
			if flag.Str(i) == "R" {
				r.returned += price.Double(i)
			} else {
				r.kept += price.Double(i)
			}
		}
	}
	near := func(got Value, want float64) bool {
		return !got.Null && math.Abs(got.F-want) <= 1e-9*math.Abs(want)
	}

	q09 := `SELECT ` + strings.Join([]string{
		"sum(CASE WHEN l_quantity BETWEEN 1 AND 10 THEN l_extendedprice ELSE 0 END)",
		"sum(CASE WHEN l_quantity BETWEEN 11 AND 20 THEN l_extendedprice ELSE 0 END)",
		"sum(CASE WHEN l_quantity BETWEEN 21 AND 30 THEN l_extendedprice ELSE 0 END)",
		"sum(CASE WHEN l_quantity BETWEEN 31 AND 40 THEN l_extendedprice ELSE 0 END)",
		"sum(CASE WHEN l_quantity BETWEEN 41 AND 50 THEN l_extendedprice ELSE 0 END)",
	}, ", ") + ` FROM tpch.lineitem`
	row, err := c.QueryRow(q09)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range buckets {
		if !near(row[k], want) {
			t.Errorf("q09 bucket %d: %v, generator says %v", k, row[k], want)
		}
	}

	q80 := `SELECT p_brand, count(*), sum(CASE WHEN l_returnflag = 'R' THEN 0 ELSE l_extendedprice END),
			sum(CASE WHEN l_returnflag = 'R' THEN l_extendedprice ELSE 0 END)
		FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey
		WHERE l_shipdate >= DATE '1994-01-03' GROUP BY p_brand ORDER BY p_brand`
	rows, err := c.Query(q80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(perBrand) {
		t.Fatalf("q80: %d brands, generator says %d", len(rows), len(perBrand))
	}
	for _, r := range rows {
		want := perBrand[r[0].S]
		if want == nil || r[1].I != want.lines || !near(r[2], want.kept) || !near(r[3], want.returned) {
			t.Errorf("q80 %s: %v, generator says %+v", r[0].S, r, want)
		}
	}
}

// TestSelectedPageRowCounts: EXPLAIN ANALYZE counts a page an aggregation
// reads through the filter's selection by its selected rows — the 4 of
// maskedRows' 8 whose x is not zero, into the 3 groups they fall in.
func TestSelectedPageRowCounts(t *testing.T) {
	cols, rows := maskedRows()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mem := memconn.New("memory")
	c.Register(mem)
	if err := mem.CreateTable("masked", cols); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendRows("masked", rows); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range mustExec(t, c, "EXPLAIN ANALYZE SELECT g, sum(CASE WHEN p = 1 THEN y ELSE 0 END), sum(d) FROM memory.masked WHERE x <> 0 GROUP BY g") {
		text.WriteString(r[0].S + "\n")
	}
	for _, want := range []string{"FilterProject        rows 8/4 ", "HashAggregation      rows 4/3 "} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("explain analyze has no %q:\n%s", want, text.String())
		}
	}
}
