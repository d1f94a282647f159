package operators

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// groupPage is one input page of TestDirectGroupTableMatchesHashed: its key
// values (int64, float64 or nil for NULL) and how the key column arrives —
// "flat"; "dict", a dictionary over the keys in reverse; "rle", a run of the
// first key; or "sel", a selection over a block twice as long.
type groupPage struct {
	enc  string
	keys []any
}

// groupCase is one aggregation of TestDirectGroupTableMatchesHashed: the key
// type, the pages, the groups presized for (0: none), and the mode the table
// ends its fill in when left to choose.
type groupCase struct {
	name  string
	typ   types.Type
	pages []groupPage
	est   int
	mode  TableModes
}

// directGroupSpecs reads a bigint and a double argument, each with NULLs.
var directGroupSpecs = []AggSpec{
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint},
	{Func: plan.AggAvg, ArgCol: 2, Out: types.Double},
	{Func: plan.AggMin, ArgCol: 1, Out: types.Bigint},
	{Func: plan.AggMax, ArgCol: 2, Out: types.Double},
}

// page builds the input page: the key column in its encoding, then a bigint
// and a double argument numbered from row at of the whole input.
func (g groupPage) page(t types.Type, at int) *block.Page {
	n := len(g.keys)
	vals := make([]types.Value, n)
	for r, v := range g.keys {
		vals[r] = keyValue(t, v)
	}
	var key block.Block
	switch g.enc {
	case "flat":
		key = block.BuildBlock(t, vals)
	case "dict":
		dict, idx := slices.Clone(vals), make([]int32, n)
		slices.Reverse(dict)
		for r := range idx {
			idx[r] = int32(n - 1 - r)
		}
		key = &block.DictionaryBlock{Dict: block.BuildBlock(t, dict), Indices: idx}
	case "rle":
		key = block.NewRLEBlock(vals[0], n)
	case "sel":
		src, sel := make([]types.Value, 2*n), make([]int, n)
		for r, v := range vals {
			src[2*r], src[2*r+1], sel[r] = keyValue(t, int64(-1_000_000-r)), v, 2*r+1
		}
		key = &block.SelectedBlock{Src: block.BuildBlock(t, src), Sel: sel}
	default:
		panic(g.enc)
	}
	longs, doubles := make([]types.Value, n), make([]types.Value, n)
	for r := range n {
		i := at + r
		longs[r], doubles[r] = types.BigintValue(int64(i*7%100-30)), types.DoubleValue(float64(i%50)-10.5)
		if i%5 == 4 {
			longs[r] = types.NullValue(types.Bigint)
		}
		if i%7 == 6 {
			doubles[r] = types.NullValue(types.Double)
		}
	}
	return block.NewPage(key, block.BuildBlock(types.Bigint, longs), block.BuildBlock(types.Double, doubles))
}

// groupRun is one aggregation of a groupCase's pages: the mode its table
// ended the fill in, each group's key cell and states by group id, the rows it
// emitted in order, and the modes its stats report once it closed.
type groupRun struct {
	mode   TableModes
	groups []string
	rows   []string
	stats  TableModes
}

// tableMode is the mode the table is in, as recordTableLocked counts it.
func tableMode(t *keyTable) TableModes {
	switch {
	case t.direct:
		return TableDirect
	case t.turned:
		return TableTurned
	}
	return TableHashed
}

// groupStates renders every group of op, by id: its key cell and tag, the key
// kept beside the table (a double's), and each aggregate's state vectors.
func groupStates(op *HashAggregationOperator) []string {
	var out []string
	for id := range op.table.Len() {
		s := fmt.Sprintf("key %d/%#x", op.table.tags[id], op.table.cells[id])
		if v := op.keys[0]; v != nil {
			s += fmt.Sprintf(" kept %v %x", v.has[id], math.Float64bits(v.doubles[id]))
		}
		for i := range op.accs {
			a := &op.accs[i]
			if a.count != nil {
				s += fmt.Sprintf(" count %d", a.count[id])
			}
			if a.sumI != nil {
				s += fmt.Sprintf(" sumI %d", a.sumI[id])
			}
			if a.sumF != nil {
				s += fmt.Sprintf(" sumF %x", math.Float64bits(a.sumF[id]))
			}
			if a.mm.has != nil {
				s += fmt.Sprintf(" mm %v", a.mm.has[id])
				if a.mm.longs != nil {
					s += fmt.Sprint(" ", a.mm.longs[id])
				}
				if a.mm.doubles != nil {
					s += fmt.Sprintf(" %x", math.Float64bits(a.mm.doubles[id]))
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// rowsInOrder renders the rows of pages as sortedRows does, in their order.
func rowsInOrder(pages []*block.Page) []string {
	var rows []string
	for _, p := range pages {
		for r := range p.RowCount() {
			var cells []string
			for _, v := range p.Row(r) {
				cells = append(cells, cellText(v))
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
	}
	return rows
}

// sameAsReference holds rows, in any order, to the reference aggregation of
// input.
func sameAsReference(t *testing.T, name string, rows []string, input []*block.Page, typ types.Type) {
	t.Helper()
	got := slices.Clone(rows)
	slices.Sort(got)
	want := sortedRows([]*block.Page{refAggregate(input, []int{0}, []types.Type{typ}, directGroupSpecs)})
	if !slices.Equal(got, want) {
		t.Errorf("%s: rows %v, reference %v", name, got, want)
	}
}

// runGroups aggregates c's pages with every table hashed, or left to choose.
func runGroups(t *testing.T, c groupCase, input []*block.Page, hashed bool) groupRun {
	t.Helper()
	hashEveryIndex.Store(hashed)
	defer hashEveryIndex.Store(false)
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{c.typ}, directGroupSpecs, false, 0, c.est)
	slots := unsafe.SliceData(op.table.slots)
	for _, p := range input {
		if err := op.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	run := groupRun{mode: tableMode(op.table), groups: groupStates(op)}
	if c.est > 0 && !op.table.turned && unsafe.SliceData(op.table.slots) != slots {
		t.Errorf("%s: the presized slot array was reallocated", c.name)
	}
	if tb := op.table; tb.direct {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, cell := range tb.cells {
			lo, hi = min(lo, int64(cell)), max(hi, int64(cell))
		}
		if tb.lo != lo || tb.hi != hi || uint64(lo)-uint64(tb.base) >= uint64(len(tb.slots)) || uint64(hi)-uint64(tb.base) >= uint64(len(tb.slots)) {
			t.Errorf("%s: a direct table over keys %d..%d holds %d..%d in a window of %d slots from %d", c.name, lo, hi, tb.lo, tb.hi, len(tb.slots), tb.base)
		}
	}
	op.Finish()
	run.rows = rowsInOrder(aggPages(t, op))
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	run.stats = op.ctx.Stats.Snapshot().TableModes
	return run
}

// TestDirectGroupTableMatchesHashed: a group table over a dense integer key
// addresses its groups by value, and aggregates exactly as the same input
// hashed — the same groups under the same ids, the same states group for
// group, the same rows in the same order, and the reference's rows — whatever
// the key's sign, type and encoding. A NULL, a non-integer or a span past the
// slots turns the table hashed, for the rest of the fill, wherever it comes:
// on the first page, in the middle of a fill, or on a dictionary page, whose
// keys are entered by the first row of each combination (resolveEncoded), as
// one page sized as the whole page. The mode the
// table ended in is in the operator's stats. A first page of ten rows may
// span 16 keys (slotsFor(10)): -3..12 fits, -3..13 does not.
func TestDirectGroupTableMatchesHashed(t *testing.T) {
	const maxI, minI = int64(math.MaxInt64), int64(math.MinInt64)
	flat := func(keys ...any) groupPage { return groupPage{"flat", keys} }
	ints := func(from, to, step int64) []any {
		var out []any
		for k := from; step > 0 && k < to || step < 0 && k > to; k += step {
			out = append(out, k)
		}
		return out
	}
	dense := make([]any, 300) // keys -50..149, crossing zero
	for i := range dense {
		dense[i] = int64(i*37%200 - 50)
	}
	negZero := math.Copysign(0, -1)
	bi, dt, db := types.Bigint, types.Date, types.Double
	cases := []groupCase{
		{"negative keys", bi, []groupPage{flat(int64(-5), int64(-3), int64(-3), int64(-1), int64(-5), int64(-2))}, 0, TableDirect},
		{"span crossing zero", bi, []groupPage{flat(dense[:100]...), flat(dense[100:]...)}, 0, TableDirect},
		{"int64 extremes", bi, []groupPage{flat(minI, maxI, int64(0))}, 0, TableHashed},
		{"near the top and bottom", bi, []groupPage{flat(maxI-3, maxI, maxI), flat(minI, minI+2)}, 0, TableTurned},
		{"span that overflows", bi, []groupPage{flat(int64(-1), int64(0), int64(1)), flat(maxI), flat(minI)}, 0, TableTurned},
		{"NULL keys", bi, []groupPage{flat(int64(4), int64(5), int64(4)), flat(nil, int64(4), nil, int64(6))}, 0, TableTurned},
		{"NULL on the first page", bi, []groupPage{flat(nil, int64(1)), flat(int64(1), int64(2))}, 0, TableHashed},
		{"DATE keys", dt, []groupPage{flat(int64(18000), int64(18004), int64(18001), int64(18004)), flat(int64(17990), int64(18000))}, 0, TableDirect},
		{"integral DOUBLE keys, -0 beside 0", db, []groupPage{flat(1.0, negZero, 4.0, 0.0, 2.0, negZero), flat(0.0, 3.0)}, 0, TableDirect},
		{"non-integral DOUBLE keys", db, []groupPage{flat(1.0, 2.0, 1.0), flat(2.5, 1.0, 0.0)}, 0, TableTurned},
		{"non-integral DOUBLE first", db, []groupPage{flat(0.5, 1.0)}, 0, TableHashed},
		{"range at the slot bound", bi, []groupPage{flat(append(ints(-3, 5, 1), int64(12), int64(-3))...)}, 0, TableDirect},
		{"range past the slot bound", bi, []groupPage{flat(append(ints(-3, 5, 1), int64(13), int64(-3))...)}, 0, TableHashed},
		{"pages that widen the window", bi, []groupPage{flat(ints(100, 110, 1)...), flat(append(ints(90, 100, 1), ints(119, 109, -1)...)...), flat(ints(120, 160, 1)...), flat(ints(89, 49, -1)...)}, 0, TableDirect},
		{"a page that turns the table hashed", bi, []groupPage{flat(ints(0, 10, 1)...), flat(int64(3), int64(1_000_000), int64(5)), flat(ints(0, 12, 1)...)}, 0, TableTurned},
		{"dictionary and run pages after direct ones", bi, []groupPage{flat(ints(0, 10, 1)...), {"dict", []any{int64(3), int64(12), int64(3), int64(15), int64(-2)}}, {"rle", []any{int64(11), int64(11), int64(11)}}, flat(int64(7), int64(16))}, 0, TableDirect},
		{"a dictionary page that turns the table hashed", bi, []groupPage{flat(ints(0, 10, 1)...), {"dict", []any{int64(3), nil, int64(3), int64(4)}}, flat(int64(1), int64(2))}, 0, TableTurned},
		{"a run page first", bi, []groupPage{{"rle", []any{int64(5), int64(5)}}, flat(ints(0, 10, 1)...)}, 0, TableDirect},
		{"selections over a flat column", bi, []groupPage{{"sel", ints(15, 0, -2)}, flat(ints(0, 30, 1)...), {"sel", []any{int64(2), nil}}}, 0, TableTurned},
		{"selection over a double column", db, []groupPage{{"sel", []any{1.0, 2.0, 2.0}}}, 0, TableDirect},
		{"presized for the groups", bi, []groupPage{flat(ints(500, 600, 1)...), flat(ints(599, 399, -1)...)}, 200, TableDirect},
		{"presized, then past its slots", bi, []groupPage{flat(ints(0, 100, 1)...), flat(int64(10_000))}, 100, TableTurned},
	}
	for _, c := range cases {
		var input []*block.Page
		at := 0
		for _, g := range c.pages {
			input = append(input, g.page(c.typ, at))
			at += len(g.keys)
		}
		direct, hashed := runGroups(t, c, input, false), runGroups(t, c, input, true)
		if direct.mode != c.mode || hashed.mode != TableHashed {
			t.Errorf("%s: table %v, want %v; forced hashed %v", c.name, direct.mode, c.mode, hashed.mode)
		}
		if direct.stats != c.mode || hashed.stats != TableHashed {
			t.Errorf("%s: stats report table %v and %v, want %v and hashed", c.name, direct.stats, hashed.stats, c.mode)
		}
		if !slices.Equal(direct.groups, hashed.groups) {
			t.Errorf("%s: groups\n%v\nhashed\n%v", c.name, direct.groups, hashed.groups)
		}
		if !slices.Equal(direct.rows, hashed.rows) {
			t.Errorf("%s: rows %v, hashed %v", c.name, direct.rows, hashed.rows)
		}
		sameAsReference(t, c.name, direct.rows, input, c.typ)
	}
	// reset opens a hashed table again: the drain decides per partition.
	tb := newKeyTable(&tableLease{}, true, 1, 0)
	if tb.fit(0, 1000, 10) || !tb.hashed {
		t.Fatalf("keys 0..1000 of ten rows fit a table of %d slots", len(tb.slots))
	}
	if tb.reset(); !tb.fit(0, 9, 10) || !tb.direct {
		t.Fatalf("keys 0..9 of ten rows do not fit a table reset (hashed %v)", tb.hashed)
	}
	t.Run("revoked to disk", directGroupSpilled)
}

// directGroupSpilled: a table revoked to disk is read back a hash partition
// at a time, and each partition's table decides its own mode. Sixteen keys
// fit any partition's slots, so every partition is direct; forced hashed,
// none is, and the two drains emit the same rows in the same order, the
// reference's.
func directGroupSpilled(t *testing.T) {
	var input []*block.Page
	for pg := range 12 {
		keys := make([]any, 50)
		for r := range keys {
			keys[r] = int64((pg*50 + r) * 7 % 16)
		}
		input = append(input, groupPage{"flat", keys}.page(types.Bigint, pg*50))
	}
	run := func(hashed bool) ([]string, TableModes, int) {
		hashEveryIndex.Store(hashed)
		defer hashEveryIndex.Store(false)
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, directGroupSpecs, true, 4, 0)
		op.SetSpillDir(t.TempDir())
		for _, p := range input {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
			if _, err := op.Revoke(); err != nil {
				t.Fatal(err)
			}
		}
		op.Finish()
		rows := rowsInOrder(aggPages(t, op))
		spills := op.SpillCount()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		return rows, op.ctx.Stats.Snapshot().TableModes, spills
	}
	direct, dmodes, spills := run(false)
	hashed, hmodes, _ := run(true)
	if spills != len(input) {
		t.Fatalf("%d spills, want one a page", spills)
	}
	if dmodes != TableDirect || hmodes != TableHashed {
		t.Errorf("tables %v, forced hashed %v", dmodes, hmodes)
	}
	if !slices.Equal(direct, hashed) {
		t.Errorf("rows %v, hashed %v", direct, hashed)
	}
	sameAsReference(t, "revoked to disk", direct, input, types.Bigint)
}
