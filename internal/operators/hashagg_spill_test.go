package operators

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestHashAggSpillMixedTypes drives the codec-based spill path through mixed
// group-key types (varchar + bigint with NULLs), every aggregate kind, and
// multiple revocations. The spilled run must produce exactly the rows of an
// unspilled run.
func TestHashAggSpillMixedTypes(t *testing.T) {
	specs := []AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggCount, ArgCol: 2, Out: types.Bigint},
		{Func: plan.AggSum, ArgCol: 2, Out: types.Bigint},
		{Func: plan.AggAvg, ArgCol: 3, Out: types.Double},
		{Func: plan.AggMin, ArgCol: 4, Out: types.Varchar},
		{Func: plan.AggMax, ArgCol: 2, Out: types.Bigint},
	}
	groupCols := []int{0, 1}
	groupTs := []types.Type{types.Varchar, types.Bigint}

	makePages := func() []*block.Page {
		var pages []*block.Page
		for pg := 0; pg < 6; pg++ {
			var keyS []string
			var keySN []bool
			var keyI []int64
			var keyIN []bool
			var argI []int64
			var argIN []bool
			var argF []float64
			var argS []string
			for r := 0; r < 100; r++ {
				i := pg*100 + r
				keyS = append(keyS, fmt.Sprintf("grp-%d", i%7))
				keySN = append(keySN, i%13 == 0)
				keyI = append(keyI, int64(i%5))
				keyIN = append(keyIN, i%17 == 0)
				argI = append(argI, int64(i))
				argIN = append(argIN, i%11 == 0)
				// Integer-valued doubles: partial-sum merges stay exact, so
				// spilled and unspilled runs agree bit-for-bit (float sums of
				// arbitrary values are order-sensitive at the last ULP).
				argF = append(argF, float64(i*3))
				argS = append(argS, strings.Repeat("v", i%9)+fmt.Sprint(i%23))
			}
			pages = append(pages, block.NewPage(
				block.NewVarcharBlock(keyS, keySN),
				block.NewLongBlock(keyI, keyIN),
				block.NewLongBlock(argI, argIN),
				&block.DoubleBlock{Vals: argF},
				block.NewVarcharBlock(argS, nil),
			))
		}
		return pages
	}

	run := func(t *testing.T, spilled bool) map[string]bool {
		op := NewHashAggregation(NopContext(), groupCols, groupTs, specs, true, 0, 0)
		op.SetSpillDir(t.TempDir())
		for i, p := range makePages() {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
			if spilled && i%2 == 1 {
				if _, err := op.Revoke(); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := drain(t, op)
		if spilled && op.SpillCount() == 0 {
			t.Fatal("expected spill files")
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		rows := map[string]bool{}
		n := 0
		for _, p := range out {
			for r := 0; r < p.RowCount(); r++ {
				var parts []string
				for _, v := range p.Row(r) {
					parts = append(parts, v.String())
				}
				rows[strings.Join(parts, "|")] = true
				n++
			}
		}
		if n != len(rows) {
			t.Fatalf("duplicate group rows: %d rows, %d distinct", n, len(rows))
		}
		return rows
	}

	base := run(t, false)
	got := run(t, true)
	if len(got) != len(base) {
		t.Fatalf("spilled run has %d groups, unspilled %d", len(got), len(base))
	}
	for row := range base {
		if !got[row] {
			t.Errorf("spilled run missing row %q", row)
		}
	}
}
