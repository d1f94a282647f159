package operators

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
)

// Columns of the differential input: six key candidates, then four aggregate
// arguments.
const (
	colKeyBigint = iota
	colKeyDate
	colKeyDouble
	colKeyVarchar
	colKeyBool
	colKeyBigint2
	colArgBigint
	colArgDouble
	colArgDate
	colArgVarchar
)

var diffColTypes = []types.Type{
	types.Bigint, types.Date, types.Double, types.Varchar, types.Boolean, types.Bigint,
	types.Bigint, types.Double, types.Date, types.Varchar,
}

// diffSpecs is every aggregate function over every argument type it takes.
var diffSpecs = []AggSpec{
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	{Func: plan.AggCount, ArgCol: colArgBigint, Out: types.Bigint},
	{Func: plan.AggCount, ArgCol: colArgVarchar, Out: types.Bigint},
	{Func: plan.AggCountMerge, ArgCol: colArgBigint, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: colArgBigint, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: colArgDouble, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: colArgBigint, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: colArgDouble, Out: types.Double},
	{Func: plan.AggMin, ArgCol: colArgBigint, Out: types.Bigint},
	{Func: plan.AggMax, ArgCol: colArgBigint, Out: types.Bigint},
	{Func: plan.AggMin, ArgCol: colArgDouble, Out: types.Double},
	{Func: plan.AggMax, ArgCol: colArgDouble, Out: types.Double},
	{Func: plan.AggMin, ArgCol: colArgDate, Out: types.Date},
	{Func: plan.AggMax, ArgCol: colArgDate, Out: types.Date},
	{Func: plan.AggMin, ArgCol: colArgVarchar, Out: types.Varchar},
	{Func: plan.AggMax, ArgCol: colArgVarchar, Out: types.Varchar},
}

// diffPage is rows [from, to) of the differential input. Keys repeat across
// pages, so a group's state is split over several spill files; every key
// column takes NULL; the double key takes −0.0, 0.0 and NaN; the varchar key
// takes ”. Double arguments are integer-valued so that partial sums merge
// exactly, and never NaN: min and max keep whichever of NaN and a number came
// first, which no regrouping of the input preserves.
func diffPage(from, to int) *block.Page {
	b := block.NewPageBuilder(diffColTypes)
	doubles := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, -2.25, 1e18, 3}
	strs := []string{"", "a", "b", "", "longer key value", "ü"}
	null := func(i, every int, v types.Value) types.Value {
		if i%every == every-1 {
			return types.NullValue(v.T)
		}
		return v
	}
	for i := from; i < to; i++ {
		b.AppendRow([]types.Value{
			null(i, 23, types.BigintValue(int64(i%37)-5)),
			null(i, 19, types.DateValue(int64(17000+i%11))),
			null(i, 29, types.DoubleValue(doubles[i%len(doubles)])),
			null(i, 31, types.VarcharValue(strs[i%len(strs)])),
			null(i, 7, types.BooleanValue(i%3 == 0)),
			types.BigintValue(int64(i % 211)),
			null(i, 5, types.BigintValue(int64(i*7%1000)-300)),
			null(i, 6, types.DoubleValue(float64(i%500)-100)),
			null(i, 8, types.DateValue(int64(18000+i*13%400))),
			null(i, 9, types.VarcharValue(strings.Repeat("v", i%4)+fmt.Sprint(i*31%97))),
		})
	}
	return b.Build()
}

// cellText renders a cell so that −0.0, 0.0 and every NaN are told apart.
func cellText(v types.Value) string {
	if !v.Null && v.T == types.Double {
		return fmt.Sprintf("d%016x", math.Float64bits(v.F))
	}
	return v.String()
}

func sortedRows(pages []*block.Page) []string {
	var rows []string
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			var cells []string
			for _, v := range p.Row(r) {
				cells = append(cells, cellText(v))
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
	}
	sort.Strings(rows)
	return rows
}

// TestHashAggSpillDifferential: for every aggregate function, single and
// multi-column keys of every key type, and both lookup indexes, an
// aggregation revoked every few pages — so that its drain merges several
// files, one of them holding two groups and fourteen empty partitions —
// returns exactly the rows of one that never spilled, and leaves no file.
func TestHashAggSpillDifferential(t *testing.T) {
	keySets := map[string][]int{
		"bigint":              {colKeyBigint},
		"date":                {colKeyDate},
		"double":              {colKeyDouble},
		"varchar":             {colKeyVarchar},
		"boolean":             {colKeyBool},
		"bigint,date":         {colKeyBigint, colKeyDate},
		"double,boolean":      {colKeyDouble, colKeyBool},
		"varchar,bigint":      {colKeyVarchar, colKeyBigint2},
		"bool,varchar,double": {colKeyBool, colKeyVarchar, colKeyDouble},
		"global":              {},
	}
	const pageRows, pages = 300, 9
	var input []*block.Page
	for pg := 0; pg < pages; pg++ {
		input = append(input, diffPage(pg*pageRows, (pg+1)*pageRows))
	}
	tiny := diffPage(5, 7) // two rows: a spill file that is mostly empty partitions

	run := func(t *testing.T, keys []int, vec bool, revokeEvery int) ([]string, int) {
		ctx := NopContext()
		ctx.DisableVecKernels = !vec
		keyTs := make([]types.Type, len(keys))
		for i, c := range keys {
			keyTs[i] = diffColTypes[c]
		}
		// A 64-row output page makes a partition of a spill file several pages.
		op := NewHashAggregation(ctx, keys, keyTs, diffSpecs, true, 64)
		op.SetSpillDir(t.TempDir())
		before := spill.CurrentStats()
		revoke := func() {
			if _, err := op.Revoke(); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range input {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
			if revokeEvery > 0 && i%revokeEvery == revokeEvery-1 {
				revoke()
			}
			if i == 4 {
				// Same rows in both runs; only the spilled one cuts a file here.
				if err := op.AddInput(tiny); err != nil {
					t.Fatal(err)
				}
				if revokeEvery > 0 {
					revoke()
				}
			}
		}
		rows := sortedRows(drain(t, op))
		spills := op.SpillCount()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		after := spill.CurrentStats()
		if created, deleted := after.FilesCreated-before.FilesCreated, after.FilesDeleted-before.FilesDeleted; created != deleted || int(created) != spills {
			t.Errorf("%d spills created %d files and deleted %d", spills, created, deleted)
		}
		return rows, spills
	}

	for name, keys := range keySets {
		for _, vec := range []bool{true, false} {
			index := "vec"
			if !vec {
				index = "legacy"
			}
			t.Run(name+"/"+index, func(t *testing.T) {
				want, spills := run(t, keys, vec, 0)
				if spills != 0 {
					t.Fatalf("reference run spilled %d times", spills)
				}
				for _, every := range []int{1, 2, 4} {
					got, spills := run(t, keys, vec, every)
					if spills < 3 {
						t.Fatalf("revoke every %d pages: %d spill files, want a drain that merges at least 3", every, spills)
					}
					if len(got) != len(want) {
						t.Fatalf("revoke every %d pages: %d groups, unspilled %d", every, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("revoke every %d pages: row %d\n got %s\nwant %s", every, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestHashAggRevokeRacesFinish: the pool picks its spill candidates, drops
// its lock and then calls Revoke on each, so the call can land at any point
// of the operator's life. Hammered from a second goroutine across AddInput,
// Finish, Output and Close, the aggregation still returns the rows of a run
// nobody revoked and deletes every file it created — a Revoke that arrives
// after Finish finds nothing to do. Run under -race.
func TestHashAggRevokeRacesFinish(t *testing.T) {
	keys := []int{colKeyVarchar, colKeyBigint2}
	keyTs := []types.Type{types.Varchar, types.Bigint}
	var input []*block.Page
	for pg := 0; pg < 12; pg++ {
		input = append(input, diffPage(pg*200, (pg+1)*200))
	}
	ref := NewHashAggregation(NopContext(), keys, keyTs, diffSpecs, true, 64)
	want := sortedRows(drain(t, ref, input...))
	ref.Close()

	for round := 0; round < 20; round++ {
		op := NewHashAggregation(NopContext(), keys, keyTs, diffSpecs, true, 64)
		op.SetSpillDir(t.TempDir())
		before := spill.CurrentStats()
		var stop atomic.Bool
		var revoked atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n, err := op.Revoke()
				if err != nil {
					t.Errorf("Revoke: %v", err)
					return
				}
				if n > 0 {
					revoked.Add(1)
				}
				runtime.Gosched()
			}
		}()
		for _, p := range input {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
		}
		got := sortedRows(drain(t, op))
		if n, err := op.Revoke(); n != 0 || err != nil {
			t.Errorf("Revoke on a drained aggregation freed %d bytes, err %v", n, err)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		wg.Wait()
		after := spill.CurrentStats()
		if created, deleted := after.FilesCreated-before.FilesCreated, after.FilesDeleted-before.FilesDeleted; created != deleted {
			t.Fatalf("round %d: %d spill files created, %d deleted", round, created, deleted)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d (%d revocations): %d groups, want %d", round, revoked.Load(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (%d revocations): row %d\n got %s\nwant %s", round, revoked.Load(), i, got[i], want[i])
			}
		}
	}
}
