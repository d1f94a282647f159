package presto

import (
	"math"
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/types"
)

// windowLake holds w(k, x, b, d, s, dt) and w0, its empty twin. k partitions
// and x orders; neither is NULL, so that both can be joined back on. The
// arguments are what a window aggregate's arithmetic gets wrong: BIGINTs a
// double cannot hold (2⁵³+1 beside 2, 2⁶³−1 beside −1), NULLs, a partition
// whose arguments are all NULL, DOUBLE −0.0, NaN and ±Inf, and VARCHAR and
// DATE extremes. Each partition's values give one result in any order of
// addition and comparison: NaN is alone in its partition, −0.0 meets no +0.0.
func windowLake(t *testing.T) *memconn.Connector {
	t.Helper()
	c := memconn.New("lake")
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "x", T: types.Bigint}, {Name: "b", T: types.Bigint},
		{Name: "d", T: types.Double}, {Name: "s", T: types.Varchar}, {Name: "dt", T: types.Date}}
	bi, db, vc := types.BigintValue, types.DoubleValue, types.VarcharValue
	date := func(s string) types.Value {
		v, err := types.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return types.DateValue(v)
	}
	nb, nd, ns, ndt := types.NullValue(types.Bigint), types.NullValue(types.Double), types.NullValue(types.Varchar), types.NullValue(types.Date)
	rows := [][]types.Value{
		{bi(1), bi(1), bi(1<<53 + 1), db(1.5), vc("b"), date("2020-01-02")},
		{bi(1), bi(2), bi(2), db(math.Copysign(0, -1)), vc("a"), date("1999-12-31")},
		{bi(1), bi(2), nb, nd, ns, ndt},
		{bi(2), bi(1), bi(math.MaxInt64), db(math.Inf(1)), vc("zz"), date("1970-01-01")},
		{bi(2), bi(3), bi(-1), db(math.Inf(-1)), vc("z"), date("2038-01-19")},
		{bi(3), bi(5), nb, db(math.NaN()), ns, ndt},
		{bi(3), bi(5), bi(7), nd, vc("m"), date("2000-02-29")},
		{bi(4), bi(1), nb, nd, ns, ndt},
		{bi(4), bi(2), nb, nd, ns, ndt},
		{bi(5), bi(1), bi(-5), db(2.25), vc(""), date("1900-03-01")},
		{bi(5), bi(1), bi(3), db(-0.5), vc("é"), date("2100-12-31")},
		{bi(5), bi(4), bi(10), db(4), vc("x"), date("2000-01-01")},
	}
	for _, table := range []string{"w", "w0"} {
		if err := c.CreateTable(table, cols); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AppendRows("w", rows); err != nil {
		t.Fatal(err)
	}
	return c
}

// windowAggregates are the aggregates of the wall, with % for the argument's
// table alias; the BIGINT sum, which a float64 fold gets wrong, first.
var windowAggregates = []string{
	"sum(%b)", "sum(%d)", "avg(%b)", "avg(%d)",
	"count(*)", "count(%b)", "count(%s)",
	"min(%b)", "max(%b)", "min(%d)", "max(%d)",
	"min(%s)", "max(%s)", "min(%dt)", "max(%dt)",
}

// TestWindowAggregatesMatchGroupBy: a window aggregate is the aggregation's
// arithmetic. Over PARTITION BY k it equals GROUP BY k joined back to every
// row; with ORDER BY x its default RANGE frame — every row of the partition up
// to the current row's peers — equals the self-join that groups each (k, x)
// with the rows of k at or before x. In process and on HTTP workers, over the
// table and over an empty one. A BIGINT sum is exact, as GROUP BY's is.
func TestWindowAggregatesMatchGroupBy(t *testing.T) {
	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	t.Cleanup(local.Close)
	local.Register(windowLake(t))
	d := newDistClusterWith(t, 2, distConfig{})
	d.catalog.Register(windowLake(t))

	for _, table := range []string{"lake.w", "lake.w0"} {
		for _, f := range windowAggregates {
			arg := func(alias string) string { return strings.ReplaceAll(f, "%", alias) }
			cases := [][2]string{{
				"SELECT k, " + arg("") + " OVER (PARTITION BY k) FROM " + table,
				"SELECT t.k, g.r FROM " + table + " t JOIN (SELECT k, " + arg("") + " AS r FROM " + table + " GROUP BY k) g ON g.k = t.k",
			}, {
				"SELECT k, x, " + arg("") + " OVER (PARTITION BY k ORDER BY x) FROM " + table,
				"SELECT t.k, t.x, g.r FROM " + table + " t JOIN (SELECT a.k, a.x, " + arg("o.") + " AS r FROM (SELECT DISTINCT k, x FROM " + table +
					") a JOIN " + table + " o ON o.k = a.k AND o.x <= a.x GROUP BY a.k, a.x) g ON g.k = t.k AND g.x = t.x",
			}}
			for _, c := range cases {
				sql, oracle := c[0], c[1]
				want := stringifyRows(mustExec(t, local, oracle))
				if table == "lake.w" && len(want) != 12 {
					t.Fatalf("%s: the oracle has %d rows, want one a row of the table", oracle, len(want))
				}
				assertRows(t, sql+" in process", stringifyRows(mustExec(t, local, sql)), want)
				assertRows(t, sql+" on HTTP workers", stringifyRows(d.mustQuery(t, sql)), want)
			}
		}
	}
	// A window aggregate is typed as GROUP BY's is: neither sums a VARCHAR or
	// a DATE.
	for _, arg := range []string{"s", "dt"} {
		for _, sql := range []string{
			"SELECT k, sum(" + arg + ") OVER (PARTITION BY k) FROM lake.w",
			"SELECT k, sum(" + arg + ") FROM lake.w GROUP BY k",
		} {
			if _, err := local.Query(sql); err == nil || !strings.Contains(err.Error(), "sum over") {
				t.Errorf("%s: err = %v, want sum over %s refused", sql, err, arg)
			}
		}
	}
}
