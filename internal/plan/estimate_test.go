package plan

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// TestGroupEstimateIsNotShape: an aggregation's group estimate changes
// neither its cardinality fingerprint nor what EXPLAIN prints of it, so
// history entries, plan-cache entries and result-cache keys do not move when
// an estimate does.
func TestGroupEstimateIsNotShape(t *testing.T) {
	scan := &Scan{Handle: TableHandle{Catalog: "c", Table: "t"}, Columns: []string{"a"},
		Out: Schema{{Name: "a", T: types.Bigint}}}
	agg := func(est *GroupEstimate) Node {
		return &Aggregation{
			Input:      scan,
			GroupBy:    []expr.Expr{&expr.ColumnRef{Index: 0, T: types.Bigint, Name: "a"}},
			Aggregates: []Aggregate{{Func: AggCountAll, Out: types.Bigint}},
			Step:       AggPartial,
			Out:        Schema{{Name: "a", T: types.Bigint}, {Name: "n", T: types.Bigint}},
			Est:        est,
		}
	}
	bare := agg(nil)
	for _, est := range []*GroupEstimate{
		{Groups: 300, Rows: 1000, Source: EstStats},
		{Groups: 3e7, Source: EstHistory},
	} {
		n := agg(est)
		if CardFingerprint(n, nil) != CardFingerprint(bare, nil) {
			t.Errorf("estimate %+v moves the fingerprint", *est)
		}
		if Format(n) != Format(bare) {
			t.Errorf("estimate %+v shows in EXPLAIN:\n%s", *est, Format(n))
		}
	}
}
