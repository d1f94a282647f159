package operators

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// lentAggSpecs renders every resultBlock case: count over a column with
// NULLs, count(*), sum of a bigint and of a double (a group whose arguments
// are all NULL sums to NULL: the zero mask), avg, and min and max in a
// bigint, a double and a varchar valueVec.
var lentAggSpecs = []AggSpec{
	{Func: plan.AggCount, ArgCol: 2, Out: types.Bigint},
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: 2, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: 3, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: 3, Out: types.Double},
	{Func: plan.AggMin, ArgCol: 2, Out: types.Bigint},
	{Func: plan.AggMax, ArgCol: 3, Out: types.Double},
	{Func: plan.AggMax, ArgCol: 4, Out: types.Varchar},
}

// lentAggPage is the input of TestAggregationLentVectorsArePoisoned: two key
// columns of the given kinds, then a bigint, a double and a varchar argument.
// Row 5's group sees only NULL arguments.
func lentAggPage(k0, k1 block.Block) *block.Page {
	null := []bool{false, false, false, false, false, true, false, false}
	return block.NewPage(k0, k1,
		block.NewLongBlock([]int64{1, 2, 3, 4, 5, 0, 7, 8}, null),
		block.NewDoubleBlock([]float64{1.5, 2.5, 3.5, 4.5, 5.5, 0, 7.5, 8.5}, null),
		block.NewVarcharBlock([]string{"a", "b", "c", "d", "e", "", "g", "h"}, null))
}

// snapshot is an owned copy of b, to compare a lent block with once its
// vectors have been taken back.
func snapshot(b block.Block) block.Block {
	rows := make([]int, b.Len())
	for i := range rows {
		rows[i] = i
	}
	return block.CopyPositions(b, rows)
}

// holdsPoison reports whether every vector of the lent block b — its values
// and, when it has one, its null mask — holds what block.PoisonScratch writes
// into a taken-back vector, given was, b's contents before.
func holdsPoison(b, was block.Block) bool {
	flipped := func(now, before []bool) bool {
		for i := range now {
			if now[i] == before[i] {
				return false
			}
		}
		return true
	}
	every := func(n int, poisoned func(i int) bool) bool {
		for i := 0; i < n; i++ {
			if !poisoned(i) {
				return false
			}
		}
		return true
	}
	switch b := b.(type) {
	case *block.LongBlock:
		was := was.(*block.LongBlock)
		return every(len(b.Vals), func(i int) bool { return b.Vals[i] == math.MinInt64 }) &&
			(b.Nulls == nil || flipped(b.Nulls, was.Nulls))
	case *block.DoubleBlock:
		was := was.(*block.DoubleBlock)
		return every(len(b.Vals), func(i int) bool { return math.IsNaN(b.Vals[i]) }) &&
			(b.Nulls == nil || flipped(b.Nulls, was.Nulls))
	case *block.VarcharBlock:
		was := was.(*block.VarcharBlock)
		return every(len(b.Vals), func(i int) bool { return b.Vals[i] == "\x00poisoned scratch" }) &&
			(b.Nulls == nil || flipped(b.Nulls, was.Nulls))
	case *block.BoolBlock:
		was := was.(*block.BoolBlock)
		return flipped(b.Vals, was.Vals) && (b.Nulls == nil || flipped(b.Nulls, was.Nulls))
	}
	return false
}

// TestAggregationLentVectorsArePoisoned: a lending aggregation renders its
// output page into vectors leased from its scratch, which the next Output
// takes back — poisoned, under block.PoisonScratch — so that a consumer that
// kept the page past its time reads poison, not groups. Every rendering path
// is lent: key columns given back from the table's cells (bigint and boolean
// keys, NULL keys among them: cellBlock), key columns kept beside the table
// (varchar and double keys: valueVec.block) and every resultBlock case. The
// NULL-key rows make each key column carry a null mask, which is lent too.
func TestAggregationLentVectorsArePoisoned(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	keyNulls := []bool{false, false, true, false, false, false, true, false}
	for _, c := range []struct {
		name   string
		keys   []types.Type
		k0, k1 block.Block
		cells  bool // the table's cells give the keys back
	}{
		{"bigint and boolean keys", []types.Type{types.Bigint, types.Boolean},
			block.NewLongBlock([]int64{1, 2, 0, 1, 4, 5, 0, 6}, keyNulls),
			&block.BoolBlock{Vals: []bool{true, false, false, true, false, true, false, true}, Nulls: keyNulls}, true},
		{"varchar and double keys", []types.Type{types.Varchar, types.Double},
			block.NewVarcharBlock([]string{"x", "y", "", "x", "z", "w", "", "v"}, keyNulls),
			block.NewDoubleBlock([]float64{1, 2, 0, 1, 4, 5, 0, 6}, keyNulls), false},
	} {
		op := NewHashAggregation(NopContext(), []int{0, 1}, c.keys, lentAggSpecs, false, 0, 0)
		if got := op.keys[0] == nil; got != c.cells {
			t.Fatalf("%s: keys given back from cells = %v, want %v", c.name, got, c.cells)
		}
		op.LendOutput(nil)
		if err := op.AddInput(lentAggPage(c.k0, c.k1)); err != nil {
			t.Fatal(err)
		}
		op.Finish()
		first, err := op.Output()
		if err != nil || first == nil {
			t.Fatalf("%s: first page: %v %v", c.name, first, err)
		}
		owned := NewHashAggregation(NopContext(), []int{0, 1}, c.keys, lentAggSpecs, false, 0, 0)
		if err := owned.AddInput(lentAggPage(c.k0, c.k1)); err != nil {
			t.Fatal(err)
		}
		owned.Finish()
		if got, want := sortedRows([]*block.Page{first}), sortedRows(aggPages(t, owned)); len(want) != 6 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: lent page %q, owned pages %q; want the same 6 groups", c.name, got, want)
		}
		owned.Close()
		before := make([]block.Block, first.ColCount())
		for i := range before {
			before[i] = snapshot(first.Col(i))
		}
		for _, k := range []int{0, 1} {
			if !hasNull(first.Col(k)) {
				t.Fatalf("%s: key column %d has no NULL: the null mask goes unchecked", c.name, k)
			}
		}
		if p, err := op.Output(); err != nil || p != nil || !op.IsFinished() {
			t.Fatalf("%s: second Output: %v %v, finished %v; want the end", c.name, p, err, op.IsFinished())
		}
		for i := range before {
			if !holdsPoison(first.Col(i), before[i]) {
				t.Errorf("%s: column %d (%T) of a lent page does not hold poison after the next Output", c.name, i, first.Col(i))
			}
		}
		op.Close()
	}
}

// hasNull reports whether any row of b is NULL.
func hasNull(b block.Block) bool {
	for r := 0; r < b.Len(); r++ {
		if b.IsNull(r) {
			return true
		}
	}
	return false
}
