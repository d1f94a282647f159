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

// distinctSpecs is every aggregate function with DISTINCT over an argument
// type it takes (count_merge only ever merges partial counts and is never
// DISTINCT).
var distinctSpecs = []AggSpec{
	{Func: plan.AggCount, ArgCol: colArgBigint, Distinct: true, Out: types.Bigint},
	{Func: plan.AggCount, ArgCol: colArgVarchar, Distinct: true, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: colArgBigint, Distinct: true, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: colArgDouble, Distinct: true, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: colArgBigint, Distinct: true, Out: types.Double},
	{Func: plan.AggMin, ArgCol: colArgDate, Distinct: true, Out: types.Date},
	{Func: plan.AggMax, ArgCol: colArgVarchar, Distinct: true, Out: types.Varchar},
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
}

// dictEncoded re-encodes every column of p as a dictionary block whose
// dictionary starts with two entries no row references: a value (which for a
// boolean column duplicates a referenced one) and NULL. Neither may surface
// as a group or reach an aggregate.
func dictEncoded(p *block.Page) *block.Page {
	unreferenced := map[types.Type]types.Value{
		types.Bigint: types.BigintValue(987654321), types.Date: types.DateValue(99999),
		types.Double: types.DoubleValue(777.5), types.Varchar: types.VarcharValue("never"),
		types.Boolean: types.BooleanValue(true),
	}
	cols := make([]block.Block, p.ColCount())
	for c := range cols {
		src := p.Col(c)
		dict := []types.Value{unreferenced[src.Type()], types.NullValue(src.Type())}
		index := map[string]int32{}
		idx := make([]int32, p.RowCount())
		for r := range idx {
			v := src.Value(r)
			j, ok := index[cellText(v)]
			if !ok {
				j = int32(len(dict))
				index[cellText(v)] = j
				dict = append(dict, v)
			}
			idx[r] = j
		}
		cols[c] = block.NewDictionaryBlock(block.BuildBlock(src.Type(), dict), idx)
	}
	return block.NewPage(cols...)
}

// lazyWrapped defers every column of p behind a lazy block.
func lazyWrapped(p *block.Page) *block.Page {
	cols := make([]block.Block, p.ColCount())
	for c := range cols {
		col := p.Col(c)
		cols[c] = block.NewLazyBlock(col.Type(), col.Len(), func(*block.Arena) block.Block { return col })
	}
	return block.NewPage(cols...)
}

// rleRun is an n-row page whose columns are runs of row r of src — keys and
// arguments alike, so that a single-key aggregation folds the page in one
// step — except the double and varchar arguments, which stay flat.
func rleRun(src *block.Page, r, n int) *block.Page {
	cols := make([]block.Block, src.ColCount())
	for c := range cols {
		if c == colArgDouble || c == colArgVarchar {
			cols[c] = block.Slice(src.Col(c), 0, n)
		} else {
			cols[c] = block.NewRLEBlock(src.Col(c).Value(r), n)
		}
	}
	return block.NewPage(cols...)
}

func firstNull(p *block.Page, c int) int {
	for r := 0; r < p.RowCount(); r++ {
		if p.Col(c).IsNull(r) {
			return r
		}
	}
	panic("column has no NULL")
}

// TestGroupTableDifferential holds the columnar group table against the
// per-row reference (refAggregate): every aggregate function, plain and
// DISTINCT, over single, mixed and zero-column keys of every key type, fed
// flat, dictionary-encoded (with unreferenced entries), run-length-encoded
// and lazy pages whose keys take NULL, -0.0, 0.0, NaN and the empty string. Unrevoked and
// revoked every 1, 2 and 4 pages — so that a drain merges several files, one
// of them holding two groups and fourteen empty partitions — the operator
// returns exactly the reference's rows and leaves no file. Keys arrive encoded
// and flat in one stream: the dictionary and run pages of every key set but
// "varchar,bigint" and "bigint,date" (more combinations of dictionary entries
// than a page has rows: the run pages only) are resolved by
// combination of entries, and a revocation between two of them empties the
// table the next page's memo then refills.
func TestGroupTableDifferential(t *testing.T) {
	keySets := map[string][]int{
		"bigint":              {colKeyBigint},
		"date":                {colKeyDate},
		"double":              {colKeyDouble},
		"varchar":             {colKeyVarchar},
		"boolean":             {colKeyBool},
		"bigint,date":         {colKeyBigint, colKeyDate},
		"double,boolean":      {colKeyDouble, colKeyBool},
		"varchar,boolean":     {colKeyVarchar, colKeyBool},
		"varchar,bigint":      {colKeyVarchar, colKeyBigint2},
		"bool,varchar,double": {colKeyBool, colKeyVarchar, colKeyDouble},
		"global":              {},
	}
	const pageRows, pages = 512, 9
	var input []*block.Page
	for pg := 0; pg < pages; pg++ {
		p := diffPage(pg*pageRows, (pg+1)*pageRows)
		switch pg % 4 {
		case 1:
			p = dictEncoded(p)
		case 2:
			p = lazyWrapped(p)
		}
		input = append(input, p)
		if pg%4 == 3 {
			// Runs of an ordinary row, of a NULL key and of a NULL argument.
			for _, r := range []int{0, firstNull(p, colKeyBigint), firstNull(p, colKeyDouble), firstNull(p, colArgBigint)} {
				input = append(input, rleRun(p, r, 40))
			}
		}
	}
	tiny := diffPage(5, 7) // two rows: a spill file that is mostly empty partitions
	input = append(input[:5], append([]*block.Page{tiny}, input[5:]...)...)

	run := func(t *testing.T, keys []int, specs []AggSpec, revokeEvery int) ([]string, int) {
		keyTs := make([]types.Type, len(keys))
		for i, c := range keys {
			keyTs[i] = diffColTypes[c]
		}
		// A 64-row output page makes a partition of a spill file several pages.
		op := NewHashAggregation(NopContext(), keys, keyTs, specs, true, 64, 0)
		op.SetSpillDir(t.TempDir())
		before := spill.CurrentStats()
		for i, p := range input {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
			// The tiny page is cut into a file of its own.
			if revokeEvery > 0 && (i%revokeEvery == revokeEvery-1 || p == tiny) {
				if _, err := op.Revoke(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows := sortedRows(drain(t, op))
		spills := op.SpillCount()
		// What went through the dictionary memo: the two dictionary pages, or
		// (more combinations than rows) the run pages alone; no key, no memo.
		memo := op.ctx.Stats.Snapshot().DictRows
		switch name := t.Name(); {
		case len(keys) == 0:
			if memo != 0 {
				t.Errorf("a global aggregation resolved %d rows by dictionary entry", memo)
			}
		case strings.HasSuffix(name, "varchar,bigint"), strings.HasSuffix(name, "bigint,date"):
			if memo != 8*40 {
				t.Errorf("%d rows resolved by dictionary entry, want the %d of the run pages: a page of %d rows has fewer rows than key combinations", memo, 8*40, pageRows)
			}
		case memo != 2*pageRows+8*40:
			t.Errorf("%d rows resolved by dictionary entry, want %d: two dictionary pages and eight run pages", memo, 2*pageRows+8*40)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		after := spill.CurrentStats()
		if created, deleted := after.FilesCreated-before.FilesCreated, after.FilesDeleted-before.FilesDeleted; created != deleted || int(created) != spills {
			t.Errorf("%d spills created %d files and deleted %d", spills, created, deleted)
		}
		return rows, spills
	}
	same := func(t *testing.T, what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, reference %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d\n got %s\nwant %s", what, i, got[i], want[i])
			}
		}
	}

	for name, keys := range keySets {
		t.Run(name, func(t *testing.T) {
			keyTs := make([]types.Type, len(keys))
			for i, c := range keys {
				keyTs[i] = diffColTypes[c]
			}
			want := sortedRows([]*block.Page{refAggregate(input, keys, keyTs, diffSpecs)})
			got, spills := run(t, keys, diffSpecs, 0)
			if spills != 0 {
				t.Fatalf("unrevoked run spilled %d times", spills)
			}
			same(t, "unrevoked", got, want)
			for _, every := range []int{1, 2, 4} {
				got, spills := run(t, keys, diffSpecs, every)
				if spills < 3 {
					t.Fatalf("revoke every %d pages: %d spill files, want a drain that merges at least 3", every, spills)
				}
				same(t, fmt.Sprintf("revoke every %d pages", every), got, want)
			}
			// DISTINCT state is not spillable: a revocation finds nothing to take.
			want = sortedRows([]*block.Page{refAggregate(input, keys, keyTs, distinctSpecs)})
			got, spills = run(t, keys, distinctSpecs, 2)
			if spills != 0 {
				t.Fatalf("DISTINCT aggregation spilled %d times", spills)
			}
			same(t, "distinct", got, want)
		})
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
	ref := NewHashAggregation(NopContext(), keys, keyTs, diffSpecs, true, 64, 0)
	want := sortedRows(drain(t, ref, input...))
	ref.Close()

	for round := 0; round < 20; round++ {
		op := NewHashAggregation(NopContext(), keys, keyTs, diffSpecs, true, 64, 0)
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
