package expr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/types"
)

// summaryOf collects keys, boxed, into a summary of type t.
func summaryOf(t types.Type, keys ...types.Value) *dynfilter.Summary {
	s := dynfilter.NewSummary(t)
	for _, k := range keys {
		switch t {
		case types.Bigint, types.Date:
			s.AddLong(k.I, dynfilter.DefaultMaxSet)
		case types.Double:
			s.AddDouble(k.F, dynfilter.DefaultMaxSet)
		case types.Varchar:
			s.AddStr(k.S, dynfilter.DefaultMaxSet)
		case types.Boolean:
			s.AddBool(k.B, dynfilter.DefaultMaxSet)
		}
	}
	return s
}

// joins reports whether a probe value v equals one of the build keys as the
// join compares them: numbers by value across BIGINT and DOUBLE, -0.0 as 0.0
// and NaN as itself; NULL never.
func joins(v types.Value, keys []types.Value) bool {
	num := func(x types.Value) float64 {
		if x.T == types.Double {
			return x.F
		}
		return float64(x.I)
	}
	for _, k := range keys {
		switch {
		case v.Null:
		case v.T == types.Varchar && v.S == k.S, v.T == types.Boolean && v.B == k.B:
			return true
		case v.T != types.Varchar && v.T != types.Boolean &&
			(num(v) == num(k) || math.IsNaN(num(v)) && math.IsNaN(num(k))):
			return true
		}
	}
	return false
}

// dynWant is the rows of column 0 of p that join one of keys.
func dynWant(p *block.Page, keys []types.Value) []int {
	var out []int
	for r := 0; r < p.RowCount(); r++ {
		if joins(p.Col(0).Value(r), keys) {
			out = append(out, r)
		}
	}
	return out
}

// TestDynamicFilterLeaf: an arrived filter selects, on every encoding of its
// column, the rows that join a build key — across BIGINT and DOUBLE too, NULL
// never; it counts what it tested and passed; it keeps a dictionary's verdicts
// across the pages that share it, except for a dictionary longer than the page
// (the guard); and a summary that arrives later is tested afresh, not through
// the verdicts kept for the one before.
func TestDynamicFilterLeaf(t *testing.T) {
	longs := func(t types.Type, vs ...int64) []types.Value {
		var out []types.Value
		for _, v := range vs {
			out = append(out, types.Value{T: t, I: v})
		}
		return out
	}
	doubles := func(vs ...float64) []types.Value {
		var out []types.Value
		for _, v := range vs {
			out = append(out, types.DoubleValue(v))
		}
		return out
	}
	bools := func(vs ...bool) []types.Value {
		var out []types.Value
		for _, v := range vs {
			out = append(out, types.BooleanValue(v))
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name        string
		t, keyT     types.Type
		domain      []types.Value // the probe column's values but NULL
		first, next []types.Value // the build keys of the first summary and of the next
	}{
		{"bigint", types.Bigint, types.Bigint, longs(types.Bigint, 0, 1, 2, 3, 4, 5, 6, 7),
			longs(types.Bigint, 1, 3), longs(types.Bigint, 2, 7)},
		{"date", types.Date, types.Date, longs(types.Date, 10, 11, 12), longs(types.Date, 11), longs(types.Date, 10, 12)},
		{"bigint against double keys", types.Bigint, types.Double, longs(types.Bigint, 0, 2, 3, 4),
			doubles(3, 2.5, negZero), doubles(4)},
		{"double", types.Double, types.Double, doubles(0, negZero, 1.5, 5, math.NaN(), 1e18),
			doubles(negZero, math.NaN(), 1e18), doubles(1.5)},
		{"double against bigint keys", types.Double, types.Bigint, doubles(0, negZero, 1.5, 5, 5.5),
			longs(types.Bigint, 5, 0), longs(types.Bigint, 1)},
		{"varchar", types.Varchar, types.Varchar, []types.Value{types.VarcharValue(""), types.VarcharValue("a"), types.VarcharValue("b")},
			[]types.Value{types.VarcharValue(""), types.VarcharValue("b")}, []types.Value{types.VarcharValue("a")}},
		{"boolean", types.Boolean, types.Boolean, bools(true, false), bools(false), bools(true, false)},
		{"boolean, no member", types.Boolean, types.Boolean, bools(true, false), nil, bools(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle := func(n, step int) []types.Value {
				out := make([]types.Value, n)
				for i := range out {
					out[i] = tc.domain[i*step%len(tc.domain)]
				}
				return out
			}
			tc.domain = append([]types.Value{types.NullValue(tc.t)}, tc.domain...)
			n := len(tc.domain)
			dict := block.BuildBlock(tc.t, tc.domain)
			big := block.BuildBlock(tc.t, cycle(64, 1))
			flat := block.BuildBlock(tc.t, cycle(3*n, 1))
			// Three pages share dict: the first has fewer rows than dict has
			// entries, so its rows are tested one by one (the guard); the
			// second tests the entries and keeps the verdicts, which the third
			// reuses.
			last, indices := make([]int32, n), make([]int32, 2*n)
			for i := range last {
				last[i] = int32(n - 1)
			}
			for i := range indices {
				indices[i] = int32(i % n)
			}
			shared := []*block.Page{
				block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 1, 2})),
				block.NewPage(block.NewDictionaryBlock(dict, last)),
				block.NewPage(block.NewDictionaryBlock(dict, indices)),
			}
			pages := append([]*block.Page{block.NewPage(flat)}, shared...)
			pages = append(pages,
				block.NewPage(block.NewDictionaryBlock(big, []int32{0, 9, 18, 27, 36, 45, 54, 63})),
				block.NewPage(block.NewRLEBlock(tc.domain[1], 5)),
				block.NewPage(block.NewRLEBlock(tc.domain[0], 5)),
				block.NewPage(block.NewLazyBlock(tc.t, flat.Len(), func(*block.Arena) block.Block { return flat })))

			var tested, passed int
			arrivals, keys := int64(0), tc.first
			pp := NewPageProcessor(nil, []Expr{colRef(0, tc.t)})
			pp.SetDynamicFilters(func() int64 { return arrivals }, func() []DynFilter {
				return []DynFilter{{Col: 0, T: tc.t, Summary: summaryOf(tc.keyT, keys...), Count: func(in, out int) { tested, passed = tested+in, passed+out }}}
			})
			run := func(p *block.Page) {
				t.Helper()
				pp.start(p)
				got := pp.selectRows()
				want := dynWant(p, keys)
				if !slices.Equal(got, want) && len(got)+len(want) > 0 {
					t.Errorf("page of %T: selected %v, want %v", p.Col(0), got, want)
				}
			}
			wantTested, wantPassed := 0, 0
			for _, p := range pages {
				run(p)
				wantPassed += len(dynWant(p, keys))
				wantTested += p.RowCount()
			}
			if tested != wantTested || passed != wantPassed {
				t.Errorf("counted %d tested and %d passed, want %d and %d", tested, passed, wantTested, wantPassed)
			}
			if tc.t != types.Boolean {
				if memo := pp.vin.memo[pp.memos]; memo.dict != dict {
					t.Errorf("the memo holds the verdicts of %p, want the shared dictionary's (%p), not the longer one's", memo.dict, dict)
				}
			}
			// Another summary arrives: the dictionary pages are tested against it.
			arrivals, keys = 1, tc.next
			for _, p := range shared {
				run(p)
			}
		})
	}
}
