package optimizer

import (
	"testing"

	"repro/internal/connector"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// groupBy aggregates count(*) over in, grouped by the given input columns.
func groupBy(in plan.Node, cols ...int) *plan.Aggregation {
	keys := make([]expr.Expr, len(cols))
	var out plan.Schema
	for i, c := range cols {
		keys[i] = colRef(c, in.Schema()[c].Name)
		out = append(out, in.Schema()[c])
	}
	return &plan.Aggregation{
		Input:      in,
		GroupBy:    keys,
		Aggregates: []plan.Aggregate{{Func: plan.AggCountAll, Out: types.Bigint}},
		Step:       plan.AggSingle,
		Out:        append(out, plan.Field{Name: "n", T: types.Bigint}),
	}
}

var estimateMeta = &fakeMeta{stats: map[string]connector.TableStats{
	"t": {RowCount: 1000, ColumnNDV: map[string]int64{"a": 300, "b": 50}},
}}

// TestAggregationEstimateUsesKnownNDV: an aggregation's estimate is the NDV
// product of its keys capped by its input rows. A tenth of the input stands in
// only when a key's NDV is unknown — a known NDV above it used to be dropped —
// and a key is followed through the projections under it to its scan column.
func TestAggregationEstimateUsesKnownNDV(t *testing.T) {
	o := newOpt(estimateMeta)
	s := scan("t", "a", "b", "c")
	swapped := &plan.Project{Input: s, Exprs: []expr.Expr{colRef(1, "b"), colRef(0, "a")},
		Out: plan.Schema{{Name: "b", T: types.Bigint}, {Name: "a", T: types.Bigint}}}
	for _, tc := range []struct {
		name string
		agg  *plan.Aggregation
		want float64
	}{
		{"NDV above a tenth of the input", groupBy(s, 0), 300},
		{"NDV product capped by the input", groupBy(s, 0, 1), 1000},
		{"NDV unknown", groupBy(s, 2), 100},
		{"key under a projection", groupBy(swapped, 0), 50},
	} {
		if got := o.estimateRows(tc.agg); got != tc.want {
			t.Errorf("%s: estimate %v, want %v", tc.name, got, tc.want)
		}
	}
}

// aggSteps returns the partial and final aggregations of a fragmented plan.
func aggSteps(dp *plan.DistributedPlan) (partial, final *plan.Aggregation) {
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			if a, ok := n.(*plan.Aggregation); ok {
				switch a.Step {
				case plan.AggPartial:
					partial = a
				case plan.AggFinal:
					final = a
				}
			}
		})
	}
	return partial, final
}

// TestFragmentStampsGroupEstimates: the partial and final steps cut from an
// aggregation carry its statistics estimate (the partial with the input rows
// it draws the groups from); a key that is not a scan column, a global
// aggregation, or stats turned off, leaves them without one.
func TestFragmentStampsGroupEstimates(t *testing.T) {
	o := newOpt(estimateMeta)
	logical := &plan.Output{Input: groupBy(scan("t", "a", "b"), 0), Names: []string{"a", "n"}}
	dp := o.Fragment(o.Optimize(logical))
	partial, final := aggSteps(dp)
	if want := (plan.GroupEstimate{Groups: 300, Rows: 1000, Source: plan.EstStats}); partial.Est == nil || *partial.Est != want {
		t.Errorf("partial step estimate %+v, want %+v", partial.Est, want)
	}
	if want := (plan.GroupEstimate{Groups: 300, Source: plan.EstStats}); final.Est == nil || *final.Est != want {
		t.Errorf("final step estimate %+v, want %+v", final.Est, want)
	}

	s := scan("t", "a", "b")
	computed := &plan.Project{Input: s,
		Exprs: []expr.Expr{&expr.Arith{Op: expr.OpAdd, L: colRef(0, "a"), R: colRef(1, "b"), T: types.Bigint}},
		Out:   plan.Schema{{Name: "ab", T: types.Bigint}}}
	o = newOpt(estimateMeta)
	partial, final = aggSteps(o.Fragment(o.Optimize(&plan.Output{Input: groupBy(computed, 0), Names: []string{"ab", "n"}})))
	if partial.Est != nil || final.Est != nil {
		t.Errorf("a computed key has estimates %+v, %+v; want none", partial.Est, final.Est)
	}
	partial, final = aggSteps(o.Fragment(o.Optimize(&plan.Output{Input: groupBy(s), Names: []string{"n"}})))
	if partial.Est != nil || final.Est != nil {
		t.Errorf("a global aggregation has estimates %+v, %+v; want none", partial.Est, final.Est)
	}
	cfg := DefaultConfig()
	cfg.UseStats = false
	o = New(estimateMeta, cfg)
	partial, final = aggSteps(o.Fragment(o.Optimize(logical)))
	if partial.Est != nil || final.Est != nil {
		t.Errorf("with statistics off the steps have estimates %+v, %+v; want none", partial.Est, final.Est)
	}
}
