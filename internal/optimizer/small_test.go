package optimizer

import (
	"testing"

	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// enforcing is fakeMeta with a connector that enforces the constraints on
// the named columns, as shardsql does on its shard column.
type enforcing struct {
	*fakeMeta
	cols []string
}

func (m enforcing) Pushdown(catalog, table string, d *plan.Domain) []string { return m.cols }

// pointScan is scan(table, a, b) constrained to a = 5.
func pointScan(table string) *plan.Scan {
	s := scan(table, "a", "b")
	s.Handle.Constraint = &plan.Domain{Columns: map[string]*plan.ColumnDomain{
		"a": {T: types.Bigint, Points: []types.Value{types.BigintValue(5)}},
	}}
	return s
}

// isSmall reports whether dp is one single fragment with no exchange and no
// partial or final step.
func isSmall(dp *plan.DistributedPlan) bool {
	if len(dp.Fragments) != 1 || !dp.Fragments[0].Single {
		return false
	}
	ok := true
	plan.Walk(dp.Fragments[0].Root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.RemoteSource:
			ok = false
		case *plan.Aggregation:
			ok = ok && x.Step == plan.AggSingle
		}
	})
	return ok
}

// TestSmallPlanRule: a plan whose scans read at most one morsel and emit at
// most one page is one single fragment; a plan past either bound, with a
// join estimated to emit more than one page, with a scan of unknown
// statistics, with statistics off or with a UNION is distributed. A scan
// reads its table narrowed only by what its connector enforces.
func TestSmallPlanRule(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"small": {RowCount: 1000, ColumnNDV: map[string]int64{"a": 300}},
		"wide":  {RowCount: 60000, ColumnNDV: map[string]int64{"a": 60000}},
		"huge":  {RowCount: 1 << 22, ColumnNDV: map[string]int64{"a": 1 << 22}},
		"l":     {RowCount: 2000, ColumnNDV: map[string]int64{"k": 2000, "g": 2}},
		"r":     {RowCount: 1000, ColumnNDV: map[string]int64{"k": 1000, "g": 2}},
	}}
	grouped := func(in plan.Node) plan.Node {
		return &plan.Output{Input: groupBy(in, 0), Names: []string{"a", "n"}}
	}
	// join joins l and r on col, or crosses them: two leaves under both
	// bounds, whose output the join's estimate bounds.
	join := func(typ plan.JoinType, col string) plan.Node {
		j := &plan.Join{
			Type:     typ,
			Left:     scan("l", col),
			Right:    scan("r", col),
			Strategy: plan.StrategyPartitioned,
			Out:      plan.Schema{{Name: col, T: types.Bigint}, {Name: col, T: types.Bigint}},
		}
		if typ == plan.CrossJoin {
			j.Strategy = plan.StrategyBroadcast
		} else {
			j.Equi = []plan.EquiClause{{Left: 0, Right: 0}}
		}
		return &plan.Output{Input: j, Names: []string{"a", "b"}}
	}
	union := &plan.Output{Input: &plan.Union{Inputs: []plan.Node{scan("small", "a"), scan("small", "a")}}, Names: []string{"a"}}
	off := DefaultConfig()
	off.UseStats = false
	for _, tc := range []struct {
		name  string
		o     *Optimizer
		root  plan.Node
		small bool
	}{
		{"a grouped scan of 1 000 rows", newOpt(meta), grouped(scan("small", "a", "b")), true},
		{"60 000 rows read and emitted", newOpt(meta), grouped(scan("wide", "a", "b")), false},
		{"a point read of 60 000 rows", newOpt(meta), grouped(pointScan("wide")), true},
		{"a point read of 4 Mi rows, not enforced", newOpt(meta), grouped(pointScan("huge")), false},
		{"a point read of 4 Mi rows, enforced", New(enforcing{meta, []string{"a"}}, DefaultConfig()), grouped(pointScan("huge")), true},
		{"unknown statistics", newOpt(meta), grouped(scan("nostats", "a", "b")), false},
		{"statistics off", New(meta, off), grouped(scan("small", "a", "b")), false},
		{"a union", newOpt(meta), union, false},
		{"a foreign-key join, 2 000 rows out", newOpt(meta), join(plan.InnerJoin, "k"), true},
		{"a join on a key of two values, 1 000 000 rows out", newOpt(meta), join(plan.InnerJoin, "g"), false},
		{"a cross join, 2 000 000 rows out", newOpt(meta), join(plan.CrossJoin, "k"), false},
	} {
		dp := tc.o.Fragment(tc.o.Optimize(tc.root))
		if got := isSmall(dp); got != tc.small {
			t.Errorf("%s: small plan %v, want %v:\n%s", tc.name, got, tc.small, dp.Format())
		}
		if !tc.small && len(dp.Fragments) < 2 {
			t.Errorf("%s: one fragment, want a distributed plan:\n%s", tc.name, dp.Format())
		}
	}
}

// TestSmallPlanRunsInPlace: a small plan's join exchanges neither side, and
// its write — a one-row INSERT … VALUES — has no writer stage.
func TestSmallPlanRunsInPlace(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"l": {RowCount: 2000}, "r": {RowCount: 100},
	}}
	o := newOpt(meta)
	j := &plan.Join{
		Type:     plan.InnerJoin,
		Left:     scan("l", "k"),
		Right:    scan("r", "k"),
		Equi:     []plan.EquiClause{{Left: 0, Right: 0}},
		Strategy: plan.StrategyPartitioned,
		Out:      plan.Schema{{Name: "k", T: types.Bigint}, {Name: "k", T: types.Bigint}},
	}
	dp := o.Fragment(&plan.Output{Input: j, Names: []string{"a", "b"}})
	if !isSmall(dp) {
		t.Errorf("a join of 2 000 and 100 rows is not one fragment:\n%s", dp.Format())
	}

	rows := plan.Schema{{Name: "rows", T: types.Bigint}}
	write := &plan.TableWrite{
		Input:   &plan.Values{Rows: [][]types.Value{{types.BigintValue(1)}}, Out: plan.Schema{{Name: "x", T: types.Bigint}}},
		Catalog: "c", Table: "t", Out: rows,
	}
	dp = o.Fragment(o.Optimize(&plan.Output{Input: write, Names: []string{"rows"}}))
	if !isSmall(dp) {
		t.Fatalf("a one-row INSERT is not one fragment:\n%s", dp.Format())
	}
	var sum *plan.Aggregation
	plan.Walk(dp.Fragments[0].Root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregation); ok {
			sum = a
		}
	})
	if _, ok := sum.Input.(*plan.TableWrite); !ok || sum.Aggregates[0].Func != plan.AggSum {
		t.Errorf("the written row count is not summed over the writer in place:\n%s", dp.Format())
	}
}
