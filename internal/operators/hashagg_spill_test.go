package operators

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
)

// TestHashAggSpillMixedTypes drives the codec-based spill path through mixed
// group-key types (varchar + bigint with NULLs: the bytes layout) and through
// one and two fixed-width keys (the fixed layout, whose spill partitions are
// recomputed from the cells), every aggregate kind, and multiple revocations.
// The spilled run must produce exactly the rows of an unspilled run: a key
// that two spill files put in different partitions would come out twice.
func TestHashAggSpillMixedTypes(t *testing.T) {
	specs := []AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggCount, ArgCol: 2, Out: types.Bigint},
		{Func: plan.AggSum, ArgCol: 2, Out: types.Bigint},
		{Func: plan.AggAvg, ArgCol: 3, Out: types.Double},
		{Func: plan.AggMin, ArgCol: 4, Out: types.Varchar},
		{Func: plan.AggMax, ArgCol: 2, Out: types.Bigint},
	}

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

	run := func(t *testing.T, groupCols []int, groupTs []types.Type, spilled bool) map[string]bool {
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

	for _, tc := range []struct {
		name      string
		groupCols []int
		groupTs   []types.Type
	}{
		{"varchar,bigint", []int{0, 1}, []types.Type{types.Varchar, types.Bigint}},
		{"bigint", []int{2}, []types.Type{types.Bigint}},
		{"bigint,bigint", []int{1, 2}, []types.Type{types.Bigint, types.Bigint}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := run(t, tc.groupCols, tc.groupTs, false)
			got := run(t, tc.groupCols, tc.groupTs, true)
			if len(got) != len(base) {
				t.Fatalf("spilled run has %d groups, unspilled %d", len(got), len(base))
			}
			for row := range base {
				if !got[row] {
					t.Errorf("spilled run missing row %q", row)
				}
			}
		})
	}
}

// TestFixedTableRehashesAsBatchKeys: a fixed-layout table stores no hash, and
// what it recomputes from an entry's cells — to grow, and to pick a spill
// partition — is the hash batchKeys computed for the key that made the entry:
// one and two key columns, NULLs, -0.0 and 0.0, NaN, a double equal to an
// integer, booleans.
func TestFixedTableRehashesAsBatchKeys(t *testing.T) {
	for _, cols := range [][]int{{colKeyBigint}, {colKeyDouble}, {colKeyBool}, {colKeyBigint, colKeyDate}, {colKeyDouble, colKeyBool}} {
		tab := newKeyTable(&tableLease{}, true, len(cols), 0)
		var bk batchKeys
		for pg := 0; pg < 3; pg++ {
			p := diffPage(pg*300, (pg+1)*300)
			bk.reset(nil, p, cols, true)
			for r := 0; r < p.RowCount(); r++ {
				cells, tags := bk.row(r)
				id, _ := tab.getOrInsertFixed(bk.hashes[r], cells, tags)
				if h := tab.hash(id); h != bk.hashes[r] {
					t.Fatalf("columns %v, row %d: the table rehashes its entry to %x, batchKeys hashed the key to %x", cols, pg*300+r, h, bk.hashes[r])
				}
			}
		}
		if tab.hashes != nil {
			t.Errorf("columns %v: a fixed-layout table holds %d hashes", cols, cap(tab.hashes))
		}
	}
}

// aggPages drives op's output to its end, as a driver does, and returns the
// pages.
func aggPages(tb testing.TB, op *HashAggregationOperator) []*block.Page {
	tb.Helper()
	var pages []*block.Page
	for !op.IsFinished() {
		p, err := op.Output()
		if err != nil {
			tb.Fatal(err)
		}
		if p != nil {
			pages = append(pages, p)
		}
	}
	return pages
}

// TestSpilledDrainEmitsAPartitionAtATime: a spilled aggregation reads its
// files back one hash partition at a time and emits each partition's groups
// before it reads the next (§IV-F2), so its first page arrives having read
// about a sixteenth of what it spilled — not the whole file, with every group
// buffered in unaccounted pages. The bound is a quarter. The rows are the
// unspilled run's.
func TestSpilledDrainEmitsAPartitionAtATime(t *testing.T) {
	const groups = 100_000
	newAgg := func(spill bool) *HashAggregationOperator {
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, spill, 0, 0)
		op.SetSpillDir(t.TempDir())
		fixedKeyPages(t, groups, op.AddInput)
		return op
	}
	want := newAgg(false)
	want.Finish()
	wantRows := sortedRows(aggPages(t, want))
	want.Close()

	op := newAgg(true)
	written := spill.CurrentStats().BytesWritten
	if n, err := op.Revoke(); err != nil || n == 0 {
		t.Fatalf("Revoke freed %d bytes, err %v", n, err)
	}
	written = spill.CurrentStats().BytesWritten - written
	op.Finish()
	read := spill.CurrentStats().BytesRead
	first, err := op.Output()
	if err != nil || first == nil {
		t.Fatalf("first page: %v %v", first, err)
	}
	read = spill.CurrentStats().BytesRead - read
	t.Logf("the first page of %d spilled groups read %d of %d spill bytes", groups, read, written)
	if read > written/4 {
		t.Errorf("the first page read %d of %d spill bytes, want at most a quarter: the drain reads every partition before it emits", read, written)
	}
	got := sortedRows(append([]*block.Page{first}, aggPages(t, op)...))
	op.Close()
	if len(got) != len(wantRows) {
		t.Fatalf("spilled run: %d rows, unspilled %d", len(got), len(wantRows))
	}
	for i := range got {
		if got[i] != wantRows[i] {
			t.Fatalf("row %d: spilled %q, unspilled %q", i, got[i], wantRows[i])
		}
	}
}
