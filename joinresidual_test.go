package presto

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestJoinResidualNaNIsIEEE: a join residual compares doubles as the same
// predicate in WHERE does, by IEEE 754: NaN is unordered and unequal to
// everything, itself included. Over a(k, x) and b(k, y), each with NaN on
// some rows, LEFT and FULL joins on a.k = b.k with x >= y, x < y and x <> y
// as the residual return the rows an IEEE comparison of the literal values
// gives, and their matched pairs are the rows the inner join with the
// predicate in WHERE returns. (A column-to-column = is not a residual: it
// becomes a second join key, whose NaN = NaN matching is the join table's.)
func TestJoinResidualNaNIsIEEE(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	nan := math.NaN()
	xs, ys := []float64{1, nan, 3, nan}, []float64{nan, 2, 3, nan}
	literal := func(vals []float64) string {
		rows := make([]string, len(vals))
		for i, v := range vals {
			rows[i] = fmt.Sprintf("(%d, CAST('%v' AS DOUBLE))", i+1, v)
		}
		return strings.Join(rows, ", ")
	}
	mustExec(t, c, "CREATE TABLE nan_a (k BIGINT, x DOUBLE)")
	mustExec(t, c, "INSERT INTO nan_a SELECT * FROM (VALUES "+literal(xs)+")")
	mustExec(t, c, "CREATE TABLE nan_b (k BIGINT, y DOUBLE)")
	mustExec(t, c, "INSERT INTO nan_b SELECT * FROM (VALUES "+literal(ys)+")")
	render := func(v float64) string { return Value{T: Double, F: v}.String() }
	for _, op := range []struct {
		sql  string
		ieee func(x, y float64) bool
	}{
		{">=", func(x, y float64) bool { return x >= y }},
		{"<", func(x, y float64) bool { return x < y }},
		{"<>", func(x, y float64) bool { return x != y }},
	} {
		where := stringifyRows(mustExec(t, c, fmt.Sprintf(
			"SELECT a.k, x, b.k, y FROM nan_a a JOIN nan_b b ON a.k = b.k WHERE x %s y", op.sql)))
		for _, jt := range []string{"LEFT", "FULL"} {
			var want, pairs []string
			for i := range xs {
				k := i + 1
				if op.ieee(xs[i], ys[i]) {
					row := fmt.Sprintf("%d|%s|%d|%s", k, render(xs[i]), k, render(ys[i]))
					want, pairs = append(want, row), append(pairs, row)
					continue
				}
				want = append(want, fmt.Sprintf("%d|%s|NULL|NULL", k, render(xs[i])))
				if jt == "FULL" {
					want = append(want, fmt.Sprintf("NULL|NULL|%d|%s", k, render(ys[i])))
				}
			}
			query := fmt.Sprintf("SELECT a.k, x, b.k, y FROM nan_a a %s JOIN nan_b b ON a.k = b.k AND x %s y", jt, op.sql)
			got := stringifyRows(mustExec(t, c, query))
			sort.Strings(want)
			assertRows(t, query, got, want)
			var matched []string
			for _, row := range got {
				if !strings.Contains(row, "NULL") {
					matched = append(matched, row)
				}
			}
			assertRows(t, query+" (matched pairs, against WHERE)", matched, where)
			assertRows(t, query+" (matched pairs, literal)", matched, pairs)
		}
	}
}
