package operators

import (
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// The per-row reference implementations the differential tests hold the
// operators against. They are what the operators' row-at-a-time paths were
// before the columnar tables replaced them: every cell boxed into a
// types.Value, keys compared through the canonical row encoding in a Go map,
// one object per group or key, one row folded at a time. They share
// encodeRowKey with the operators — it is the definition of key equality —
// and nothing else.

type refState struct {
	count, sumI int64
	sumF        float64
	has         bool
	mm          types.Value
	distinct    map[string]struct{}
}

type refGroup struct {
	key    []types.Value
	states []refState
}

// refAggregate groups pages on groupCols and returns one page of
// (keys..., results...) rows in first-seen group order.
func refAggregate(pages []*block.Page, groupCols []int, groupTs []types.Type, specs []AggSpec) *block.Page {
	index := map[string]*refGroup{}
	var groups []*refGroup
	newGroup := func(key []types.Value) *refGroup {
		g := &refGroup{key: key, states: make([]refState, len(specs))}
		groups = append(groups, g)
		return g
	}
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			k := string(encodeRowKey(nil, p, r, groupCols))
			g := index[k]
			if g == nil {
				key := make([]types.Value, len(groupCols))
				for i, c := range groupCols {
					key[i] = p.Col(c).Value(r)
				}
				g = newGroup(key)
				index[k] = g
			}
			for i := range specs {
				g.states[i].accumulate(&specs[i], p, r)
			}
		}
	}
	if len(groupCols) == 0 && len(groups) == 0 {
		newGroup(nil) // a global aggregation has one row even over no input
	}
	outTs := append([]types.Type(nil), groupTs...)
	for _, s := range specs {
		outTs = append(outTs, s.Out)
	}
	b := block.NewPageBuilder(outTs)
	for _, g := range groups {
		row := append([]types.Value(nil), g.key...)
		for i := range specs {
			row = append(row, g.states[i].result(&specs[i]))
		}
		b.AppendRow(row)
	}
	return b.Build()
}

func (st *refState) accumulate(spec *AggSpec, p *block.Page, r int) {
	if spec.Func == plan.AggCountAll {
		st.count++
		return
	}
	col := p.Col(spec.ArgCol)
	if col.IsNull(r) {
		return
	}
	if spec.Distinct {
		if st.distinct == nil {
			st.distinct = map[string]struct{}{}
		}
		k := string(encodeRowKey(nil, p, r, []int{spec.ArgCol}))
		if _, seen := st.distinct[k]; seen {
			return
		}
		st.distinct[k] = struct{}{}
	}
	switch spec.Func {
	case plan.AggCount:
		st.count++
	case plan.AggCountMerge:
		st.count += col.Long(r)
	case plan.AggSum, plan.AggAvg:
		st.count++
		st.has = true
		if col.Type() == types.Double {
			st.sumF += col.Double(r)
		} else {
			st.sumI += col.Long(r)
			st.sumF += float64(col.Long(r))
		}
	case plan.AggMin, plan.AggMax:
		v := col.Value(r)
		c := 0
		if st.has {
			c = v.Compare(st.mm)
		}
		if !st.has || (spec.Func == plan.AggMin && c < 0) || (spec.Func == plan.AggMax && c > 0) {
			st.mm, st.has = v, true
		}
	}
}

func (st *refState) result(spec *AggSpec) types.Value {
	switch spec.Func {
	case plan.AggCount, plan.AggCountAll, plan.AggCountMerge:
		return types.BigintValue(st.count)
	case plan.AggSum:
		if !st.has {
			return types.NullValue(spec.Out)
		}
		if spec.Out == types.Double {
			return types.DoubleValue(st.sumF)
		}
		return types.BigintValue(st.sumI)
	case plan.AggAvg:
		if st.count == 0 {
			return types.NullValue(types.Double)
		}
		return types.DoubleValue(st.sumF / float64(st.count))
	case plan.AggMin, plan.AggMax:
		if !st.has {
			return types.NullValue(spec.Out)
		}
		if v, err := st.mm.Coerce(spec.Out); err == nil {
			return v
		}
		return st.mm
	}
	return types.NullValue(spec.Out)
}

// refJoin joins probe against build on the given key columns and returns the
// multiset of output rows, each rendered by rowText. residual, when not nil,
// is evaluated over the concatenated (probe ++ build) row.
func refJoin(t *testing.T, jt plan.JoinType, build, probe []*block.Page, buildKeys, probeKeys []int, residual expr.Expr, probeTs, buildTs []types.Type) map[string]int {
	t.Helper()
	out := map[string]int{}
	refJoinRows(jt, build, probe, buildKeys, probeKeys, residual, probeTs, buildTs, func(row []types.Value) { out[rowText(row)]++ })
	return out
}

// refJoinRows is refJoin handing each output row — probe values then, except
// for SEMI and ANTI, build values — to emit.
func refJoinRows(jt plan.JoinType, build, probe []*block.Page, buildKeys, probeKeys []int, residual expr.Expr, probeTs, buildTs []types.Type, emit func(row []types.Value)) {
	type buildRow struct {
		vals    []types.Value
		matched bool
	}
	var all []*buildRow
	byKey := map[string][]*buildRow{}
	for _, p := range build {
		for r := 0; r < p.RowCount(); r++ {
			br := &buildRow{vals: p.Row(r)}
			all = append(all, br)
			if !rowKeyNull(p, r, buildKeys) {
				k := string(encodeRowKey(nil, p, r, buildKeys))
				byKey[k] = append(byKey[k], br)
			}
		}
	}
	keyed := len(probeKeys) > 0 && jt != plan.CrossJoin
	var interp expr.Interpreter
	passes := func(row []types.Value) bool {
		if residual == nil {
			return true
		}
		v, err := interp.Eval(residual, expr.ValuesRow(row))
		return err == nil && !v.Null && v.B
	}
	nulls := func(ts []types.Type) []types.Value {
		out := make([]types.Value, len(ts))
		for i, typ := range ts {
			out[i] = types.NullValue(typ)
		}
		return out
	}
	for _, p := range probe {
		for r := 0; r < p.RowCount(); r++ {
			pv := p.Row(r)
			cands := all
			if keyed {
				cands = nil
				if !rowKeyNull(p, r, probeKeys) {
					cands = byKey[string(encodeRowKey(nil, p, r, probeKeys))]
				}
			}
			matched := false
			for _, br := range cands {
				row := append(append([]types.Value(nil), pv...), br.vals...)
				if !passes(row) {
					continue
				}
				matched = true
				if jt != plan.SemiJoin && jt != plan.AntiJoin {
					br.matched = true
					emit(row)
				}
			}
			switch {
			case jt == plan.SemiJoin && matched, jt == plan.AntiJoin && !matched:
				emit(pv)
			case !matched && (jt == plan.LeftJoin || jt == plan.FullJoin):
				emit(append(append([]types.Value(nil), pv...), nulls(buildTs)...))
			}
		}
	}
	if jt == plan.RightJoin || jt == plan.FullJoin {
		for _, br := range all {
			if !br.matched {
				emit(append(nulls(probeTs), br.vals...))
			}
		}
	}
}

// refDistinct returns the distinct rows of pages, rendered by rowText.
func refDistinct(pages []*block.Page) map[string]int {
	seen := map[string]struct{}{}
	out := map[string]int{}
	for _, p := range pages {
		cols := make([]int, p.ColCount())
		for i := range cols {
			cols[i] = i
		}
		for r := 0; r < p.RowCount(); r++ {
			k := string(encodeRowKey(nil, p, r, cols))
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				out[rowText(p.Row(r))]++
			}
		}
	}
	return out
}

func rowText(row []types.Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = cellText(v)
	}
	return strings.Join(cells, "|")
}

// rowCounts renders output pages as the multiset refJoin and refDistinct
// return.
func rowCounts(pages []*block.Page) map[string]int {
	out := map[string]int{}
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			out[rowText(p.Row(r))]++
		}
	}
	return out
}

func assertSameCounts(t *testing.T, name string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d distinct rows, reference %d", name, len(got), len(want))
	}
	for row, n := range want {
		if got[row] != n {
			t.Errorf("%s: row %q: %d times, reference %d", name, row, got[row], n)
		}
	}
	for row, n := range got {
		if _, ok := want[row]; !ok {
			t.Errorf("%s: row %q: %d times, reference none", name, row, n)
		}
	}
}
