package presto

import (
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/spill"
	"repro/internal/types"
)

// inProbe is the probe table of the IN differential: a value that matches
// at or past 1e15 (where a double no longer shares the integer's key cell), a
// small one that matches, NULL, and sixteen that do not match — enough that a
// hash-partitioned build would leave some of them in a task without the
// build's NULL.
func inProbe() []types.Value {
	vals := []types.Value{types.BigintValue(1e16), types.BigintValue(100), types.NullValue(types.Bigint)}
	for v := int64(1); v <= 16; v++ {
		vals = append(vals, types.BigintValue(v))
	}
	return vals
}

// inLake holds ti(a BIGINT), the probe; tb(b BIGINT) and td(d DOUBLE), the
// subqueries' columns, each 1e16, 100 and NULL; and tdbig(d DOUBLE), td's rows
// under filler doubles that match no probe value, enough for a join build to
// spill.
func inLake(t *testing.T) *memconn.Connector {
	t.Helper()
	c := memconn.New("lake")
	fill := func(table, col string, typ types.Type, vals []types.Value) {
		if err := c.CreateTable(table, []connector.Column{{Name: col, T: typ}}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]types.Value, len(vals))
		for i, v := range vals {
			rows[i] = []types.Value{v}
		}
		if err := c.AppendRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	fill("ti", "a", types.Bigint, inProbe())
	fill("tb", "b", types.Bigint, []types.Value{types.BigintValue(1e16), types.BigintValue(100), types.NullValue(types.Bigint)})
	doubles := []types.Value{types.DoubleValue(1e16), types.DoubleValue(100), types.NullValue(types.Double)}
	fill("td", "d", types.Double, doubles)
	big := append([]types.Value(nil), doubles...)
	for i := 0; i < 30_000; i++ {
		big = append(big, types.DoubleValue(float64(i)+0.5))
	}
	fill("tdbig", "d", types.Double, big)
	return c
}

// inCase is one cell of the differential: the subquery form and the list form
// that is its oracle (no list: an empty subquery, which IN keeps no row
// against and NOT IN every row).
type inCase struct {
	subquery, list string
	not            bool
}

func (c inCase) sql() string {
	op := " IN "
	if c.not {
		op = " NOT IN "
	}
	return "SELECT a FROM lake.ti WHERE a" + op + "(" + c.subquery + ")"
}

func (c inCase) oracle() string {
	switch {
	case c.list != "":
		return strings.Replace(c.sql(), c.subquery, c.list, 1)
	case c.not:
		return "SELECT a FROM lake.ti"
	}
	return "SELECT a FROM lake.ti WHERE 1 = 0"
}

// inKey is a subquery's column: its name, its table and its non-NULL values
// as a list.
type inKey struct{ col, table, vals string }

var (
	bigintKey    = inKey{"b", "lake.tb", "10000000000000000, 100"}
	doubleKey    = inKey{"d", "lake.td", "1e16, 100.0"}
	bigDoubleKey = inKey{"d", "lake.tdbig", "1e16, 100.0"}
)

// inCases crosses the subquery's content (empty unless nonEmpty, no NULL, a
// NULL) over each key with IN and NOT IN; every probe row — a match, a
// non-match, NULL — is in each.
func inCases(nonEmpty bool, keys ...inKey) []inCase {
	var out []inCase
	for _, k := range keys {
		for _, content := range []struct{ where, list string }{
			{" WHERE " + k.col + " < 0", ""},
			{" WHERE " + k.col + " IS NOT NULL", k.vals},
			{"", k.vals + ", NULL"},
		} {
			if content.list == "" && nonEmpty {
				continue
			}
			for _, not := range []bool{false, true} {
				out = append(out, inCase{subquery: "SELECT " + k.col + " FROM " + k.table + content.where, list: content.list, not: not})
			}
		}
	}
	return out
}

// TestInSubqueryMatchesInList: x IN (subquery) and x NOT IN (subquery) keep
// the rows the list form keeps, in process, on HTTP workers that partition
// every other join, and with a build that spills (a spilled build is never
// empty). The subquery and the probe
// compare in their common type, as = does, so 10^16 finds 1e16; NOT IN is
// three-valued: a subquery holding a NULL keeps no row, an empty one every
// row, and otherwise a NULL probe is dropped.
func TestInSubqueryMatchesInList(t *testing.T) {
	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	t.Cleanup(local.Close)
	local.Register(inLake(t))
	// Every other join there is partitioned: NOT IN's build stays replicated.
	d := newDistClusterWith(t, 2, distConfig{broadcastRows: 1})
	d.catalog.Register(inLake(t))
	spilling := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, SpillEnabled: true, SpillDir: t.TempDir(),
		PerNodeQueryMemoryBytes: 64 << 10, DisableResultCache: true})
	t.Cleanup(spilling.Close)
	spilling.Register(inLake(t))

	for _, tc := range inCases(false, bigintKey, doubleKey) {
		want := stringifyRows(mustExec(t, local, tc.oracle()))
		assertRows(t, tc.sql()+" in process", stringifyRows(mustExec(t, local, tc.sql())), want)
		assertRows(t, tc.sql()+" on HTTP workers", stringifyRows(d.mustQuery(t, tc.sql())), want)
	}
	for _, tc := range inCases(true, bigDoubleKey) {
		want := stringifyRows(mustExec(t, local, tc.oracle()))
		before := spill.CurrentStats().FilesCreated
		assertRows(t, tc.sql()+" spilled", stringifyRows(mustExec(t, spilling, tc.sql())), want)
		if spill.CurrentStats().FilesCreated == before {
			t.Errorf("%s: the build did not spill", tc.sql())
		}
	}

	// The rows that went missing or were kept wrongly before the sides were
	// coerced and NOT IN was three-valued.
	for sql, want := range map[string]int{
		"SELECT a FROM lake.ti WHERE a IN (SELECT d FROM lake.td WHERE d IS NOT NULL)":     2,
		"SELECT a FROM lake.ti WHERE a NOT IN (SELECT d FROM lake.td)":                     0,
		"SELECT a FROM lake.ti WHERE a NOT IN (SELECT d FROM lake.td WHERE d IS NOT NULL)": 16,
	} {
		if got := len(mustExec(t, local, sql)); got != want {
			t.Errorf("%s: %d rows, want %d", sql, got, want)
		}
	}
}

// TestInListComparesInCommonType: an IN list compares the probe and each
// value in their common type, as = does, so it keeps the rows its
// OR-of-equalities form keeps — in WHERE and in SELECT, on the kernels and on
// the interpreter: a BIGINT a is not IN (2.5) where a = 2, and a IN (d) over a
// DOUBLE d runs as a = d does. A list of the probe's own type compares the
// column itself, which a scan still prunes by.
func TestInListComparesInCommonType(t *testing.T) {
	c := memconn.New("lake")
	if err := c.CreateTable("t", []connector.Column{{Name: "a", T: types.Bigint}, {Name: "d", T: types.Double}}); err != nil {
		t.Fatal(err)
	}
	rows := [][]types.Value{
		{types.BigintValue(2), types.DoubleValue(2.5)},
		{types.BigintValue(3), types.DoubleValue(3)},
		{types.BigintValue(7), types.DoubleValue(2.5)},
		{types.NullValue(types.Bigint), types.DoubleValue(7)},
		{types.BigintValue(5), types.NullValue(types.Double)},
	}
	if err := c.AppendRows("t", rows); err != nil {
		t.Fatal(err)
	}
	vec, interp := kernelClusters(t)
	vec.Register(c)
	interp.Register(c)
	for list, oracle := range map[string]string{
		"a IN (2.5)":         "a = 2.5",
		"a IN (2.5, 7)":      "a = 2.5 OR a = 7",
		"a NOT IN (2.5, 7)":  "NOT (a = 2.5 OR a = 7)",
		"a IN (d)":           "a = d",
		"a IN (d, 7)":        "a = d OR a = 7",
		"a NOT IN (d, NULL)": "NOT (a = d OR a = NULL)",
		"a IN (3, 7)":        "a = 3 OR a = 7",
	} {
		for _, q := range []string{"SELECT a, d FROM lake.t WHERE %s", "SELECT a, d, %s FROM lake.t"} {
			want := stringifyRows(execSession(t, vec, strings.ReplaceAll(q, "%s", oracle), Session{}))
			sql := strings.ReplaceAll(q, "%s", list)
			assertRows(t, sql, stringifyRows(execSession(t, vec, sql, Session{})), want)
			assertRows(t, sql+" interpreted", stringifyRows(execSession(t, interp, sql, Session{})), want)
		}
	}
	plan := stringifyRows(execSession(t, vec, "EXPLAIN SELECT a FROM lake.t WHERE a IN (3, 7)", Session{}))
	if !strings.Contains(strings.Join(plan, "\n"), "{a:IN(3,7)}") {
		t.Errorf("a same-type list lost its scan domain:\n%s", strings.Join(plan, "\n"))
	}
}
