package optimizer

import (
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// fakeMeta supplies stats and layouts for optimizer tests.
type fakeMeta struct {
	stats   map[string]connector.TableStats
	layouts map[string][]connector.Layout
}

func (m *fakeMeta) Stats(catalog, table string) connector.TableStats {
	if s, ok := m.stats[table]; ok {
		return s
	}
	return connector.NoStats
}

func (m *fakeMeta) Layouts(catalog, table string) []connector.Layout {
	return m.layouts[table]
}

func (m *fakeMeta) Pushdown(catalog, table string, d *plan.Domain) []string { return nil }

func scan(table string, cols ...string) *plan.Scan {
	out := make(plan.Schema, len(cols))
	for i, c := range cols {
		out[i] = plan.Field{Name: c, T: types.Bigint}
	}
	return &plan.Scan{
		Handle:  plan.TableHandle{Catalog: "c", Table: table},
		Columns: cols,
		Out:     out,
	}
}

func colRef(i int, name string) *expr.ColumnRef {
	return &expr.ColumnRef{Index: i, T: types.Bigint, Name: name}
}

func newOpt(meta Metadata) *Optimizer {
	if meta == nil {
		meta = &fakeMeta{}
	}
	return New(meta, DefaultConfig())
}

func TestPushFilterIntoScanDomain(t *testing.T) {
	s := scan("t", "a", "b")
	f := &plan.Filter{
		Input: s,
		Predicate: &expr.Compare{
			Op: expr.CmpEq, L: colRef(0, "a"), R: expr.NewConst(types.BigintValue(5)),
		},
	}
	out := newOpt(nil).Optimize(&plan.Output{Input: f, Names: []string{"a", "b"}})
	var got *plan.Scan
	plan.Walk(out, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			got = sc
		}
	})
	if got == nil || got.Handle.Constraint.All() {
		t.Fatalf("domain not pushed: %v", got)
	}
	if !got.Handle.Constraint.Columns["a"].Contains(types.BigintValue(5)) {
		t.Error("pushed domain should contain 5")
	}
}

func TestOptimizeIsStable(t *testing.T) {
	// Running the optimizer on an already optimized plan changes nothing
	// (the fixpoint property the Intersect fix guarantees).
	s := scan("t", "a", "b")
	f := &plan.Filter{Input: s, Predicate: &expr.Between{
		E: colRef(0, "a"), Lo: expr.NewConst(types.BigintValue(1)), Hi: expr.NewConst(types.BigintValue(9)),
	}}
	o := newOpt(nil)
	once := o.Optimize(&plan.Output{Input: f, Names: []string{"a", "b"}})
	twice := o.Optimize(once)
	if plan.Format(once) != plan.Format(twice) {
		t.Errorf("optimizer not stable:\n%s\nvs\n%s", plan.Format(once), plan.Format(twice))
	}
}

func TestTopNFusion(t *testing.T) {
	s := scan("t", "a")
	sorted := &plan.Sort{Input: s, Keys: []plan.SortKey{{Col: 0}}}
	lim := &plan.Limit{Input: sorted, N: 10}
	out := newOpt(nil).Optimize(&plan.Output{Input: lim, Names: []string{"a"}})
	found := false
	plan.Walk(out, func(n plan.Node) {
		if _, ok := n.(*plan.TopN); ok {
			found = true
		}
	})
	if !found {
		t.Error("Limit(Sort) should fuse into TopN")
	}
}

func TestColumnPruning(t *testing.T) {
	s := scan("t", "a", "b", "c", "d")
	proj := &plan.Project{
		Input: s,
		Exprs: []expr.Expr{colRef(1, "b")},
		Out:   plan.Schema{{Name: "b", T: types.Bigint}},
	}
	out := newOpt(nil).Optimize(&plan.Output{Input: proj, Names: []string{"b"}})
	var got *plan.Scan
	plan.Walk(out, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			got = sc
		}
	})
	if len(got.Columns) != 1 || got.Columns[0] != "b" {
		t.Errorf("scan not pruned: %v", got.Columns)
	}
}

func TestPruneKeepsFilterColumns(t *testing.T) {
	s := scan("t", "a", "b", "c")
	f := &plan.Filter{Input: s, Predicate: &expr.Compare{Op: expr.CmpGt, L: colRef(2, "c"), R: expr.NewConst(types.BigintValue(0))}}
	proj := &plan.Project{
		Input: f,
		Exprs: []expr.Expr{colRef(0, "a")},
		Out:   plan.Schema{{Name: "a", T: types.Bigint}},
	}
	out := newOpt(nil).Optimize(&plan.Output{Input: proj, Names: []string{"a"}})
	if got := out.Schema(); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("output schema: %v", got)
	}
	// The scan must retain c for the filter (pushdown may drop the filter
	// into the domain for sargable predicates — here it IS sargable, so
	// either the filter or the domain must survive).
	var sc *plan.Scan
	plan.Walk(out, func(n plan.Node) {
		if x, ok := n.(*plan.Scan); ok {
			sc = x
		}
	})
	if sc.Handle.Constraint.All() {
		hasFilter := false
		plan.Walk(out, func(n plan.Node) {
			if _, ok := n.(*plan.Filter); ok {
				hasFilter = true
			}
		})
		if !hasFilter {
			t.Error("filter disappeared without a pushed domain")
		}
	}
}

func TestJoinStrategyBroadcastSmallBuild(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"big":   {RowCount: 10_000_000, ColumnNDV: map[string]int64{"k": 1_000_000}},
		"small": {RowCount: 100, ColumnNDV: map[string]int64{"k": 100}},
	}}
	j := &plan.Join{
		Type:  plan.InnerJoin,
		Left:  scan("big", "k", "v"),
		Right: scan("small", "k", "w"),
		Equi:  []plan.EquiClause{{Left: 0, Right: 0}},
		Out: plan.Schema{
			{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint},
			{Name: "k", T: types.Bigint}, {Name: "w", T: types.Bigint},
		},
	}
	out := newOpt(meta).Optimize(&plan.Output{Input: j, Names: []string{"a", "b", "c", "d"}})
	var got *plan.Join
	plan.Walk(out, func(n plan.Node) {
		if x, ok := n.(*plan.Join); ok {
			got = x
		}
	})
	if got.Strategy != plan.StrategyBroadcast {
		t.Errorf("small build side should broadcast, got %s", got.Strategy)
	}
}

func TestJoinStrategyPartitionedWithoutStats(t *testing.T) {
	j := &plan.Join{
		Type:  plan.InnerJoin,
		Left:  scan("x", "k"),
		Right: scan("y", "k"),
		Equi:  []plan.EquiClause{{Left: 0, Right: 0}},
		Out:   plan.Schema{{Name: "k", T: types.Bigint}, {Name: "k", T: types.Bigint}},
	}
	o := New(&fakeMeta{}, Config{UseStats: false})
	out := o.Optimize(&plan.Output{Input: j, Names: []string{"a", "b"}})
	var got *plan.Join
	plan.Walk(out, func(n plan.Node) {
		if x, ok := n.(*plan.Join); ok {
			got = x
		}
	})
	if got.Strategy != plan.StrategyPartitioned {
		t.Errorf("no-stats join should partition, got %s", got.Strategy)
	}
}

func TestJoinStrategyColocated(t *testing.T) {
	meta := &fakeMeta{
		stats: map[string]connector.TableStats{
			"l": {RowCount: 1000}, "r": {RowCount: 1000},
		},
		layouts: map[string][]connector.Layout{
			"l": {{Name: "bucketed", PartitionCols: []string{"k"}, BucketCount: 8, NodeLocal: true}},
			"r": {{Name: "bucketed", PartitionCols: []string{"k"}, BucketCount: 8, NodeLocal: true}},
		},
	}
	j := &plan.Join{
		Type:  plan.InnerJoin,
		Left:  scan("l", "k", "v"),
		Right: scan("r", "k", "w"),
		Equi:  []plan.EquiClause{{Left: 0, Right: 0}},
		Out: plan.Schema{
			{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint},
			{Name: "k", T: types.Bigint}, {Name: "w", T: types.Bigint},
		},
	}
	out := newOpt(meta).Optimize(&plan.Output{Input: j, Names: []string{"a", "b", "c", "d"}})
	var got *plan.Join
	plan.Walk(out, func(n plan.Node) {
		if x, ok := n.(*plan.Join); ok {
			got = x
		}
	})
	if got.Strategy != plan.StrategyColocated {
		t.Errorf("matching bucketed layouts should colocate, got %s", got.Strategy)
	}
	// Ablation: colocation disabled falls back.
	o2 := New(meta, Config{UseStats: true, DisableColocated: true})
	out2 := o2.Optimize(&plan.Output{Input: j.WithChildren([]plan.Node{scan("l", "k", "v"), scan("r", "k", "w")}), Names: []string{"a", "b", "c", "d"}})
	plan.Walk(out2, func(n plan.Node) {
		if x, ok := n.(*plan.Join); ok && x.Strategy == plan.StrategyColocated {
			t.Error("colocation should be disabled")
		}
	})
}

func TestJoinReorderSmallestFirst(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"huge":   {RowCount: 1_000_000, ColumnNDV: map[string]int64{"k1": 1_000_000, "k2": 1000}},
		"medium": {RowCount: 10_000, ColumnNDV: map[string]int64{"k1": 10_000}},
		"tiny":   {RowCount: 10, ColumnNDV: map[string]int64{"k2": 10}},
	}}
	// Syntactic order: (tiny ⋈ medium) ⋈ huge — the reorderer should put
	// huge on the probe (left) side of the final join.
	j1 := &plan.Join{
		Type: plan.InnerJoin, Left: scan("tiny", "k2"), Right: scan("medium", "k1"),
		Out: plan.Schema{{Name: "k2", T: types.Bigint}, {Name: "k1", T: types.Bigint}},
	}
	j2 := &plan.Join{
		Type: plan.InnerJoin, Left: j1, Right: scan("huge", "k1", "k2"),
		Equi: []plan.EquiClause{{Left: 0, Right: 1}, {Left: 1, Right: 0}},
		Out: plan.Schema{
			{Name: "k2", T: types.Bigint}, {Name: "k1", T: types.Bigint},
			{Name: "k1", T: types.Bigint}, {Name: "k2", T: types.Bigint},
		},
	}
	out := newOpt(meta).Optimize(&plan.Output{Input: j2, Names: []string{"a", "b", "c", "d"}})
	// After reordering the top join's build (right) side should be small:
	// find the join whose left subtree contains "huge".
	ok := false
	plan.Walk(out, func(n plan.Node) {
		j, isJoin := n.(*plan.Join)
		if !isJoin {
			return
		}
		if treeContainsTable(j.Left, "huge") && !treeContainsTable(j.Right, "huge") {
			ok = true
		}
	})
	if !ok {
		t.Errorf("expected huge on a probe side after reordering:\n%s", plan.Format(out))
	}
}

func treeContainsTable(n plan.Node, table string) bool {
	found := false
	plan.Walk(n, func(x plan.Node) {
		if s, ok := x.(*plan.Scan); ok && s.Handle.Table == table {
			found = true
		}
	})
	return found
}

func TestFragmenterSingleScanAgg(t *testing.T) {
	s := scan("t", "a", "b")
	agg := &plan.Aggregation{
		Input:   s,
		GroupBy: []expr.Expr{colRef(0, "a")},
		Aggregates: []plan.Aggregate{
			{Func: plan.AggSum, Arg: colRef(1, "b"), Out: types.Bigint},
		},
		Step: plan.AggSingle,
		Out:  plan.Schema{{Name: "a", T: types.Bigint}, {Name: "s", T: types.Bigint}},
	}
	o := newOpt(nil)
	root := o.Optimize(&plan.Output{Input: agg, Names: []string{"a", "s"}})
	dp := o.Fragment(root)
	if len(dp.Fragments) < 2 {
		t.Fatalf("expected partial+final fragments, got %d", len(dp.Fragments))
	}
	text := dp.Format()
	if !strings.Contains(text, "PARTIAL") || !strings.Contains(text, "FINAL") {
		t.Errorf("expected two-phase aggregation:\n%s", text)
	}
	if !strings.Contains(text, "HASH") {
		t.Errorf("expected hash exchange on group keys:\n%s", text)
	}
}

func TestFragmenterAvgSplitsIntoSumCount(t *testing.T) {
	s := scan("t", "a", "b")
	agg := &plan.Aggregation{
		Input:      s,
		GroupBy:    []expr.Expr{colRef(0, "a")},
		Aggregates: []plan.Aggregate{{Func: plan.AggAvg, Arg: colRef(1, "b"), Out: types.Double}},
		Step:       plan.AggSingle,
		Out:        plan.Schema{{Name: "a", T: types.Bigint}, {Name: "avg", T: types.Double}},
	}
	o := newOpt(nil)
	dp := o.Fragment(o.Optimize(&plan.Output{Input: agg, Names: []string{"a", "avg"}}))
	text := dp.Format()
	if !strings.Contains(text, "sum(") || !strings.Contains(text, "count(") {
		t.Errorf("avg should decompose into sum+count:\n%s", text)
	}
	// The root schema must still be (a, avg DOUBLE).
	sch := dp.Root().Root.Schema()
	if sch[1].T != types.Double {
		t.Errorf("avg output type: %s", sch[1].T)
	}
}

// TestFragmenterSharesIdenticalPartials: a partial aggregate with the same
// function, argument and output type as another is computed once and feeds
// every final slot that reads it, and an argument two aggregates share is
// projected once — when it is deterministic. avg(b) beside count(b) shares
// its count; sum(b * 2) twice is one sum over one column; sum(random())
// twice stays two sums over two columns.
func TestFragmenterSharesIdenticalPartials(t *testing.T) {
	s := scan("t", "a", "b")
	b := colRef(1, "b")
	twice := func() expr.Expr {
		return &expr.Arith{Op: expr.OpMul, L: b, R: expr.NewConst(types.BigintValue(2)), T: types.Bigint}
	}
	fn, _ := expr.LookupBuiltin("random")
	rnd := func() expr.Expr { return &expr.Call{Fn: fn} }
	agg := &plan.Aggregation{
		Input:   s,
		GroupBy: []expr.Expr{colRef(0, "a")},
		Aggregates: []plan.Aggregate{
			{Func: plan.AggCount, Arg: b, Out: types.Bigint},
			{Func: plan.AggAvg, Arg: b, Out: types.Double},
			{Func: plan.AggSum, Arg: twice(), Out: types.Bigint},
			{Func: plan.AggSum, Arg: twice(), Out: types.Bigint},
			{Func: plan.AggSum, Arg: rnd(), Out: types.Double},
			{Func: plan.AggSum, Arg: rnd(), Out: types.Double},
		},
		Step: plan.AggSingle,
		Out: plan.Schema{{Name: "a", T: types.Bigint}, {Name: "c", T: types.Bigint}, {Name: "v", T: types.Double},
			{Name: "s1", T: types.Bigint}, {Name: "s2", T: types.Bigint}, {Name: "r1", T: types.Double}, {Name: "r2", T: types.Double}},
	}
	o := newOpt(nil)
	dp := o.Fragment(o.Optimize(&plan.Output{Input: agg, Names: []string{"a", "c", "v", "s1", "s2", "r1", "r2"}}))
	var partial *plan.Aggregation
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			if a, ok := n.(*plan.Aggregation); ok && a.Step == plan.AggPartial {
				partial = a
			}
		})
	}
	if partial == nil {
		t.Fatalf("no partial aggregation:\n%s", dp.Format())
	}
	// count(b), avg's sum(b), sum(b * 2) and two sums of random().
	if got := len(partial.Aggregates); got != 5 {
		t.Errorf("the partial step runs %d aggregates, want 5:\n%s", got, dp.Format())
	}
	// The key, then b, b * 2 and random() twice.
	if proj, ok := partial.Input.(*plan.Project); !ok || len(proj.Exprs) != 5 {
		t.Errorf("the partial step's input is %T, want a projection of the key and 4 arguments:\n%s", partial.Input, dp.Format())
	}
}

func TestFragmenterBroadcastJoinShape(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"f": {RowCount: 100000}, "d": {RowCount: 10},
	}}
	j := &plan.Join{
		Type:  plan.InnerJoin,
		Left:  scan("f", "k"),
		Right: scan("d", "k"),
		Equi:  []plan.EquiClause{{Left: 0, Right: 0}},
		Out:   plan.Schema{{Name: "k", T: types.Bigint}, {Name: "k", T: types.Bigint}},
	}
	o := newOpt(meta)
	dp := o.Fragment(o.Optimize(&plan.Output{Input: j, Names: []string{"a", "b"}}))
	text := dp.Format()
	if !strings.Contains(text, "BROADCAST") {
		t.Errorf("expected a broadcast producer fragment:\n%s", text)
	}
}

func TestFragmenterColocatedHasNoJoinExchange(t *testing.T) {
	// Above the small-plan bounds: a small plan keeps both scans in its one
	// fragment whatever the strategy.
	meta := &fakeMeta{
		stats: map[string]connector.TableStats{"l": {RowCount: 100000}, "r": {RowCount: 100000}},
		layouts: map[string][]connector.Layout{
			"l": {{Name: "bucketed", PartitionCols: []string{"k"}, BucketCount: 4}},
			"r": {{Name: "bucketed", PartitionCols: []string{"k"}, BucketCount: 4}},
		},
	}
	j := &plan.Join{
		Type:  plan.InnerJoin,
		Left:  scan("l", "k"),
		Right: scan("r", "k"),
		Equi:  []plan.EquiClause{{Left: 0, Right: 0}},
		Out:   plan.Schema{{Name: "k", T: types.Bigint}, {Name: "k", T: types.Bigint}},
	}
	o := newOpt(meta)
	dp := o.Fragment(o.Optimize(&plan.Output{Input: j, Names: []string{"a", "b"}}))
	if len(dp.Fragments) < 2 || !strings.Contains(dp.Format(), "COLOCATED") {
		t.Fatalf("want a co-located join under a gather:\n%s", dp.Format())
	}
	// Both scans and the join live in one leaf fragment; the only other
	// fragment is the gather/output. Look for a fragment containing both
	// scans.
	found := false
	for _, f := range dp.Fragments {
		if treeContainsTable(f.Root, "l") && treeContainsTable(f.Root, "r") {
			found = true
		}
	}
	if !found {
		t.Errorf("colocated join should keep both scans in one fragment:\n%s", dp.Format())
	}
}

func TestEstimateRows(t *testing.T) {
	meta := &fakeMeta{stats: map[string]connector.TableStats{
		"t": {RowCount: 1000, ColumnNDV: map[string]int64{"a": 100}},
	}}
	o := newOpt(meta)
	s := scan("t", "a")
	if got := o.estimateRows(s); got != 1000 {
		t.Errorf("scan estimate: %v", got)
	}
	f := &plan.Filter{Input: s, Predicate: &expr.Compare{Op: expr.CmpGt, L: colRef(0, "a"), R: expr.NewConst(types.BigintValue(0))}}
	if got := o.estimateRows(f); got >= 1000 || got <= 0 {
		t.Errorf("filter estimate: %v", got)
	}
	if got := o.estimateRows(scan("unknown", "x")); got >= 0 {
		t.Errorf("unknown table should be negative, got %v", got)
	}
	lim := &plan.Limit{Input: s, N: 7}
	if got := o.estimateRows(lim); got != 7 {
		t.Errorf("limit estimate: %v", got)
	}
}

func TestRemoveIdentityProject(t *testing.T) {
	s := scan("t", "a", "b")
	proj := &plan.Project{
		Input: s,
		Exprs: []expr.Expr{colRef(0, "a"), colRef(1, "b")},
		Out:   plan.Schema{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Bigint}},
	}
	out := newOpt(nil).Optimize(&plan.Output{Input: proj, Names: []string{"a", "b"}})
	count := 0
	plan.Walk(out, func(n plan.Node) {
		if _, ok := n.(*plan.Project); ok {
			count++
		}
	})
	if count != 0 {
		t.Errorf("identity project should be removed, found %d", count)
	}
}
