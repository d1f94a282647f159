package operators

import (
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// spillCostGroups is the table the spill cost test and benchmark revoke and
// drain: 2 keys and 3 aggregates per group, the shape of the benchmark's
// spilling statements.
const spillCostGroups = 32 << 10

// loadedSpillAgg returns an aggregation holding spillCostGroups groups in
// memory, spilling to dir.
func loadedSpillAgg(tb testing.TB, dir string) *HashAggregationOperator {
	specs := []AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggSum, ArgCol: 2, Out: types.Double},
		{Func: plan.AggMax, ArgCol: 2, Out: types.Double},
	}
	op := NewHashAggregation(NopContext(), []int{0, 1}, []types.Type{types.Bigint, types.Date}, specs, true, 0, 0)
	op.SetSpillDir(dir)
	const pageRows = 4096
	for from := 0; from < spillCostGroups; from += pageRows {
		k0, k1, arg := make([]int64, pageRows), make([]int64, pageRows), make([]float64, pageRows)
		for i := range k0 {
			k0[i], k1[i], arg[i] = int64(from+i), int64(17000+(from+i)%365), float64(i)
		}
		p := block.NewPage(block.NewLongBlock(k0, nil), &block.LongBlock{T: types.Date, Vals: k1}, &block.DoubleBlock{Vals: arg})
		if err := op.AddInput(p); err != nil {
			tb.Fatal(err)
		}
	}
	return op
}

// revokeAndDrain spills the whole table once, drains it back, and returns the
// number of groups that came out.
func revokeAndDrain(tb testing.TB, op *HashAggregationOperator) int {
	if n, err := op.Revoke(); err != nil || n == 0 {
		tb.Fatalf("Revoke freed %d bytes, err %v", n, err)
	}
	op.Finish()
	groups := 0
	for {
		p, err := op.Output()
		if err != nil {
			tb.Fatal(err)
		}
		if p == nil {
			break
		}
		groups += p.RowCount()
	}
	if err := op.Close(); err != nil {
		tb.Fatal(err)
	}
	return groups
}

// TestAggSpillAllocationCeiling: a spilled group costs its columns on the way
// out, and its columns and its output cells on the way back — not a boxed row
// each way, and not a table per partition: the drain refills one table's
// arrays sixteen times. One revoke plus drain measures about 200 bytes per
// group; with an object per group the drain rebuilt it was 990, through boxed
// rows 6 500. The ceiling is twice the measurement.
func TestAggSpillAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const ceiling = 400
	op := loadedSpillAgg(t, t.TempDir())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups := revokeAndDrain(t, op)
	runtime.ReadMemStats(&after)
	if groups != spillCostGroups {
		t.Fatalf("drained %d groups, want %d", groups, spillCostGroups)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / spillCostGroups; got > ceiling {
		t.Errorf("one revoke plus drain allocates %d bytes per spilled group, want <= %d", got, ceiling)
	} else {
		t.Logf("%d bytes per spilled group", got)
	}
}

// BenchmarkAggSpillRevokeDrain times one revoke plus drain of a loaded table;
// run with -benchmem for bytes and allocations per round.
func BenchmarkAggSpillRevokeDrain(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op := loadedSpillAgg(b, dir)
		b.StartTimer()
		if groups := revokeAndDrain(b, op); groups != spillCostGroups {
			b.Fatalf("drained %d groups, want %d", groups, spillCostGroups)
		}
	}
}
