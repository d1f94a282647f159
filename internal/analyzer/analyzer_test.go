package analyzer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// fakeCatalogs resolves tables from a static map.
type fakeCatalogs struct {
	tables map[string]*connector.TableMeta
}

func (f *fakeCatalogs) Resolve(name sqlparser.QualifiedName, def string) (string, *connector.TableMeta, error) {
	catalog := def
	table := name.Parts[len(name.Parts)-1]
	if len(name.Parts) > 1 {
		catalog = name.Parts[0]
	}
	m, ok := f.tables[catalog+"."+table]
	if !ok {
		return "", nil, fmt.Errorf("table %s.%s does not exist", catalog, table)
	}
	return catalog, m, nil
}

func testAnalyzer() *Analyzer {
	cats := &fakeCatalogs{tables: map[string]*connector.TableMeta{
		"memory.orders": {
			Name: "orders",
			Columns: []connector.Column{
				{Name: "orderkey", T: types.Bigint},
				{Name: "custkey", T: types.Bigint},
				{Name: "total", T: types.Double},
				{Name: "status", T: types.Varchar},
				{Name: "day", T: types.Date},
			},
		},
		"memory.customer": {
			Name: "customer",
			Columns: []connector.Column{
				{Name: "custkey", T: types.Bigint},
				{Name: "name", T: types.Varchar},
			},
		},
	}}
	return New(cats, "memory")
}

func planSQL(t *testing.T, sql string) *plan.Output {
	t.Helper()
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := testAnalyzer().PlanQuery(q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return out
}

func planErr(t *testing.T, sql string) error {
	t.Helper()
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = testAnalyzer().PlanQuery(q)
	if err == nil {
		t.Fatalf("plan %q: expected error", sql)
	}
	return err
}

func TestPlanSchema(t *testing.T) {
	out := planSQL(t, "SELECT orderkey, total * 2 AS dbl, status FROM orders")
	sch := out.Schema()
	if len(sch) != 3 {
		t.Fatalf("schema: %v", sch)
	}
	if sch[0].T != types.Bigint || sch[1].T != types.Double || sch[2].T != types.Varchar {
		t.Errorf("types: %v", sch)
	}
	if sch[1].Name != "dbl" {
		t.Errorf("alias lost: %v", sch[1])
	}
}

func TestCoercionInserted(t *testing.T) {
	out := planSQL(t, "SELECT orderkey + total FROM orders")
	if out.Schema()[0].T != types.Double {
		t.Errorf("bigint+double should widen to double, got %s", out.Schema()[0].T)
	}
}

func TestUnknownColumnError(t *testing.T) {
	err := planErr(t, "SELECT nosuch FROM orders")
	if !strings.Contains(err.Error(), "cannot be resolved") {
		t.Errorf("error: %v", err)
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	err := planErr(t, "SELECT custkey FROM orders JOIN customer ON orders.custkey = customer.custkey")
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("error: %v", err)
	}
}

func TestUnknownTableError(t *testing.T) {
	if err := planErr(t, "SELECT 1 FROM nOPE"); !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("error: %v", err)
	}
}

func TestAggregationValidation(t *testing.T) {
	// Non-aggregated column outside GROUP BY must fail.
	err := planErr(t, "SELECT status, sum(total) FROM orders GROUP BY custkey")
	if !strings.Contains(err.Error(), `column "status" must appear in GROUP BY`) {
		t.Errorf("error: %v", err)
	}
	// HAVING without aggregation must fail.
	if err := planErr(t, "SELECT orderkey FROM orders HAVING orderkey > 1"); err == nil {
		t.Error("expected HAVING error")
	}
}

func TestGroupByOrdinalAndAlias(t *testing.T) {
	out := planSQL(t, "SELECT status AS s, count(*) FROM orders GROUP BY 1")
	var agg *plan.Aggregation
	plan.Walk(out, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregation); ok {
			agg = a
		}
	})
	if agg == nil || len(agg.GroupBy) != 1 {
		t.Fatal("missing aggregation")
	}
	out2 := planSQL(t, "SELECT status AS s, count(*) FROM orders GROUP BY s")
	if out2.Schema()[0].Name != "s" {
		t.Error("alias group by")
	}
}

func TestJoinPlanEquiExtraction(t *testing.T) {
	out := planSQL(t, `
		SELECT o.orderkey, c.name
		FROM orders o JOIN customer c ON o.custkey = c.custkey AND o.total > 10`)
	var j *plan.Join
	plan.Walk(out, func(n plan.Node) {
		if jn, ok := n.(*plan.Join); ok {
			j = jn
		}
	})
	if j == nil {
		t.Fatal("no join")
	}
	if len(j.Equi) != 1 {
		t.Errorf("equi clauses: %v", j.Equi)
	}
	if j.Residual == nil {
		t.Error("non-equi conjunct should be residual")
	}
}

func TestSemiJoinFromInSubquery(t *testing.T) {
	out := planSQL(t, "SELECT orderkey FROM orders WHERE custkey IN (SELECT custkey FROM customer)")
	found := false
	plan.Walk(out, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Type == plan.SemiJoin {
			found = true
		}
	})
	if !found {
		t.Error("IN subquery should plan a semi join")
	}
}

func TestAntiJoinFromNotIn(t *testing.T) {
	out := planSQL(t, "SELECT orderkey FROM orders WHERE custkey NOT IN (SELECT custkey FROM customer)")
	found := false
	plan.Walk(out, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Type == plan.AntiJoin {
			found = true
		}
	})
	if !found {
		t.Error("NOT IN subquery should plan an anti join")
	}
}

func TestScalarSubquery(t *testing.T) {
	out := planSQL(t, "SELECT orderkey FROM orders WHERE total > (SELECT avg(total) FROM orders)")
	found := false
	plan.Walk(out, func(n plan.Node) {
		if _, ok := n.(*plan.EnforceSingleRow); ok {
			found = true
		}
	})
	if !found {
		t.Error("scalar subquery should plan EnforceSingleRow")
	}
}

func TestWindowPlanning(t *testing.T) {
	out := planSQL(t, "SELECT orderkey, row_number() OVER (PARTITION BY custkey ORDER BY total DESC) FROM orders")
	var w *plan.Window
	plan.Walk(out, func(n plan.Node) {
		if wn, ok := n.(*plan.Window); ok {
			w = wn
		}
	})
	if w == nil {
		t.Fatal("no window node")
	}
	if len(w.PartitionBy) != 1 || len(w.OrderBy) != 1 || !w.OrderBy[0].Descending {
		t.Errorf("window spec: %+v", w)
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	// ORDER BY references a non-projected column: hidden sort column added
	// then dropped.
	out := planSQL(t, "SELECT status FROM orders ORDER BY total")
	if len(out.Schema()) != 1 {
		t.Errorf("hidden sort column leaked: %v", out.Schema())
	}
	foundSort := false
	plan.Walk(out, func(n plan.Node) {
		if _, ok := n.(*plan.Sort); ok {
			foundSort = true
		}
	})
	if !foundSort {
		t.Error("missing sort")
	}
}

func TestOrderByWithDistinctRejectsHidden(t *testing.T) {
	if err := planErr(t, "SELECT DISTINCT status FROM orders ORDER BY total"); err == nil {
		t.Error("DISTINCT + hidden ORDER BY column should fail")
	}
}

func TestUnionTypeCheck(t *testing.T) {
	if err := planErr(t, "SELECT orderkey FROM orders UNION ALL SELECT status FROM orders"); err == nil {
		t.Error("incompatible UNION should fail")
	}
	out := planSQL(t, "SELECT orderkey FROM orders UNION ALL SELECT custkey FROM customer")
	if out.Schema()[0].T != types.Bigint {
		t.Error("union schema")
	}
}

func TestCTEPlanning(t *testing.T) {
	out := planSQL(t, `
		WITH big AS (SELECT * FROM orders WHERE total > 100)
		SELECT count(*) FROM big`)
	if out.Schema()[0].T != types.Bigint {
		t.Error("cte plan schema")
	}
}

func TestWildcardExpansion(t *testing.T) {
	out := planSQL(t, "SELECT o.* FROM orders o")
	if len(out.Schema()) != 5 {
		t.Errorf("o.* expanded to %d columns", len(out.Schema()))
	}
	if err := planErr(t, "SELECT x.* FROM orders o"); err == nil {
		t.Error("unknown qualifier wildcard should fail")
	}
}

func TestWhereTypeError(t *testing.T) {
	if err := planErr(t, "SELECT 1 FROM orders WHERE total"); err == nil {
		t.Error("non-boolean WHERE should fail")
	}
}

func TestInsertColumnCount(t *testing.T) {
	stmt, err := sqlparser.Parse("INSERT INTO orders SELECT 1, 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testAnalyzer().PlanStatement(stmt); err == nil {
		t.Error("column count mismatch should fail")
	}
}

func TestDateArithmetic(t *testing.T) {
	out := planSQL(t, "SELECT day + INTERVAL '7' DAY, day - day FROM orders")
	sch := out.Schema()
	if sch[0].T != types.Date {
		t.Errorf("date + interval type: %s", sch[0].T)
	}
	if sch[1].T != types.Bigint {
		t.Errorf("date - date type: %s", sch[1].T)
	}
}

// TestOrderByMatchesAcrossSlots: the plan cache lifts each 1 of
// "orderkey + 1 … ORDER BY orderkey + 1" into its own slot, and ORDER BY still
// names the select item: the plan sorts by it and adds no hidden column.
func TestOrderByMatchesAcrossSlots(t *testing.T) {
	sql := "SELECT orderkey + 1 FROM orders ORDER BY orderkey + 1"
	stmt, err := sqlparser.ParseSlots(sql, []int{strings.Index(sql, "1"), strings.LastIndex(sql, "1")})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testAnalyzer().PlanQuery(stmt.(*sqlparser.Query))
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(out, func(n plan.Node) {
		if p, ok := n.(*plan.Project); ok && len(p.Exprs) != 1 {
			t.Errorf("a projection of %d columns:\n%s", len(p.Exprs), plan.Format(out))
		}
	})
}
