package operators

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestNormValueCanonicalEquivalence checks that the normalized fixed-cell
// representation groups exactly the values the canonical byte encoding
// groups: integral doubles with equal integers, -0.0 with +0.0, NaN with
// itself, and nothing else.
func TestNormValueCanonicalEquivalence(t *testing.T) {
	cell := func(v types.Value) [2]uint64 {
		tag, payload := normValue(v)
		return [2]uint64{uint64(tag), payload}
	}
	if cell(types.DoubleValue(3.0)) != cell(types.BigintValue(3)) {
		t.Error("3.0 and 3 should share a cell")
	}
	if cell(types.DoubleValue(-0.0)) != cell(types.DoubleValue(0.0)) {
		t.Error("-0.0 and +0.0 should share a cell")
	}
	if cell(types.DoubleValue(0.0)) != cell(types.BigintValue(0)) {
		t.Error("0.0 and 0 should share a cell")
	}
	if cell(types.DoubleValue(math.NaN())) != cell(types.DoubleValue(math.NaN())) {
		t.Error("NaN should equal itself (same bits)")
	}
	if cell(types.DoubleValue(math.NaN())) == cell(types.DoubleValue(2.0)) {
		t.Error("NaN should not equal 2.0")
	}
	if cell(types.DoubleValue(2.5)) == cell(types.BigintValue(2)) {
		t.Error("2.5 should not equal 2")
	}
	if cell(types.NullValue(types.Bigint)) == cell(types.BigintValue(0)) {
		t.Error("NULL should not equal 0")
	}
	// Past the integral-preservation threshold doubles stay doubles.
	big := 1e16
	if cell(types.DoubleValue(big)) == cell(types.BigintValue(int64(big))) {
		t.Error("1e16 double should not collapse to the bigint cell")
	}
	// The cell must agree with the canonical byte encoding in both cases.
	for _, v := range []types.Value{
		types.BigintValue(7), types.DoubleValue(7), types.DoubleValue(-0.0),
		types.DoubleValue(2.5), types.NullValue(types.Double), types.BooleanValue(true),
	} {
		tag, _ := normValue(v)
		want := appendCellKey(nil, block.BuildBlock(v.T, []types.Value{v}), 0)[0]
		if tag != want {
			t.Errorf("%v: cell tag %d != canonical tag %d", v, tag, want)
		}
	}
}

// randomMixedPage builds a page exercising every block encoding the batch
// hasher handles: flat long with nulls, double, varchar, bool, RLE,
// dictionary, and lazy.
func randomMixedPage(r *rand.Rand, n int) *block.Page {
	longs := make([]int64, n)
	longNulls := make([]bool, n)
	doubles := make([]float64, n)
	strs := make([]string, n)
	strNulls := make([]bool, n)
	bools := make([]bool, n)
	dictIdx := make([]int32, n)
	for i := 0; i < n; i++ {
		longs[i] = int64(r.Intn(50) - 25)
		longNulls[i] = r.Intn(8) == 0
		switch r.Intn(4) {
		case 0:
			doubles[i] = float64(r.Intn(20)) // integral, collides with longs
		case 1:
			doubles[i] = r.Float64() * 100
		case 2:
			doubles[i] = math.Copysign(0, -1) // -0.0
		default:
			doubles[i] = math.NaN()
		}
		strs[i] = []string{"", "a", "bb", "ccc"}[r.Intn(4)]
		strNulls[i] = r.Intn(6) == 0
		bools[i] = r.Intn(2) == 0
		dictIdx[i] = int32(r.Intn(3))
	}
	dict := block.NewVarcharBlock([]string{"x", "", "yy"}, []bool{false, false, false})
	lazySrc := block.NewLongBlock(append([]int64(nil), longs...), nil)
	return block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: longNulls},
		block.NewDoubleBlock(doubles, nil),
		block.NewVarcharBlock(strs, strNulls),
		block.NewBoolBlock(bools, nil),
		block.NewRLEBlock(types.VarcharValue("run"), n),
		block.NewDictionaryBlock(dict, dictIdx),
		block.NewLazyBlock(types.Bigint, n, func() block.Block { return lazySrc }),
	)
}

// TestHashPartitionPageMatchesRowHash verifies the batch hasher reproduces
// the per-row canonical hash bit-for-bit across every encoding, so
// partitioning decisions agree wherever a row is hashed.
func TestHashPartitionPageMatchesRowHash(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	colSets := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {0, 1}, {2, 5}, {0, 1, 2, 3, 4, 5, 6}}
	for trial := 0; trial < 5; trial++ {
		p := randomMixedPage(r, 257)
		for _, cols := range colSets {
			for _, parts := range []int{1, 7, 16} {
				got := HashPartitionPage(p, cols, parts, nil)
				for row := 0; row < p.RowCount(); row++ {
					want := HashPartition(p, row, cols, parts)
					if got[row] != want {
						t.Fatalf("cols %v parts %d row %d: page=%d rowwise=%d", cols, parts, row, got[row], want)
					}
				}
			}
		}
	}
}

// TestHashAggEdgeKeys aggregates over pathological keys — NULLs, -0.0/+0.0,
// NaN, doubles equal to integers, empty vs NULL varchar — and requires the
// operator to produce the groups of the per-row reference.
func TestHashAggEdgeKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	keyPage := func() *block.Page {
		return block.NewPage(
			block.NewDoubleBlock(
				[]float64{0.0, negZero, 1.0, 1.5, math.NaN(), math.NaN(), 2.0, 0.0},
				[]bool{false, false, false, false, false, false, false, true}),
			block.NewVarcharBlock(
				[]string{"", "", "a", "a", "", "b", "", ""},
				[]bool{false, false, false, false, false, false, true, false}),
			block.NewLongBlock([]int64{1, 2, 3, 4, 5, 6, 7, 8}, nil),
		)
	}
	specs := []AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggSum, ArgCol: 2, Out: types.Bigint},
	}
	keyTs := []types.Type{types.Double, types.Varchar}
	op := NewHashAggregation(NopContext(), []int{0, 1}, keyTs, specs, false, 0)
	got := rowCounts(drain(t, op, keyPage(), keyPage()))
	want := rowCounts([]*block.Page{refAggregate([]*block.Page{keyPage(), keyPage()}, []int{0, 1}, keyTs, specs)})
	assertSameCounts(t, "hashagg edge keys", got, want)
	// -0.0 and +0.0 with the same varchar must be one group; empty varchar
	// and NULL varchar must be distinct groups.
	if len(got) != 7 {
		t.Errorf("expected 7 groups, got %d: %v", len(got), got)
	}
}

// TestDistinctEdgeKeys covers empty-vs-NULL varchar and NULL long keys.
func TestDistinctEdgeKeys(t *testing.T) {
	page := func() *block.Page {
		return block.NewPage(
			block.NewVarcharBlock([]string{"", "", "a", "", "a"}, []bool{false, true, false, true, false}),
			&block.LongBlock{T: types.Bigint, Vals: []int64{0, 0, 1, 0, 1}, Nulls: []bool{true, false, false, true, false}},
		)
	}
	op := NewDistinct(NopContext(), []types.Type{types.Varchar, types.Bigint})
	got := rowCounts(drain(t, op, page(), page()))
	assertSameCounts(t, "distinct", got, refDistinct([]*block.Page{page(), page()}))
	if len(got) != 4 {
		t.Errorf("expected 4 distinct rows, got %d: %v", len(got), got)
	}
}

// TestCountDistinctEdgeValues exercises the DISTINCT accumulator's
// (group, value) set: the empty string, NULL, and a value shared by two
// groups.
func TestCountDistinctEdgeValues(t *testing.T) {
	page := func() *block.Page {
		return block.NewPage(
			block.NewLongBlock([]int64{1, 1, 1, 2, 2}, nil),
			block.NewVarcharBlock([]string{"", "x", "", "x", "y"}, []bool{false, false, true, false, false}),
		)
	}
	specs := []AggSpec{{Func: plan.AggCount, ArgCol: 1, Distinct: true, Out: types.Bigint}}
	keyTs := []types.Type{types.Bigint}
	op := NewHashAggregation(NopContext(), []int{0}, keyTs, specs, false, 0)
	got := rowCounts(drain(t, op, page(), page()))
	assertSameCounts(t, "count distinct", got, rowCounts([]*block.Page{refAggregate([]*block.Page{page(), page()}, []int{0}, keyTs, specs)}))
}

// joinOnce runs one build page against one probe page through the operators.
func joinOnce(t *testing.T, jt plan.JoinType, build, probe *block.Page, buildTs, probeTs []types.Type) map[string]int {
	t.Helper()
	bridge := NewJoinBridge()
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, buildTs[:1])
	if err := hb.AddInput(build); err != nil {
		t.Fatal(err)
	}
	bridge.NoMoreBuilders()
	hb.Finish()
	bridge.AddProbe()
	op := NewLookupJoin(NopContext(), bridge, jt, []int{0}, nil, probeTs, buildTs, 0)
	return rowCounts(drain(t, op, probe))
}

// TestJoinDoubleProbeBigintBuild joins a DOUBLE probe column against a
// BIGINT build key: integral doubles (including -0.0) must match, fractional
// values and NaN must not — as in the per-row reference.
func TestJoinDoubleProbeBigintBuild(t *testing.T) {
	build := block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: []int64{0, 2, 5, 0}, Nulls: []bool{false, false, false, true}},
		block.NewLongBlock([]int64{100, 200, 500, 999}, nil),
	)
	negZero := math.Copysign(0, -1)
	probe := block.NewPage(block.NewDoubleBlock(
		[]float64{2.0, 2.5, negZero, math.NaN(), 5.0, 0.0},
		[]bool{false, false, false, false, false, true}))
	buildTs, probeTs := []types.Type{types.Bigint, types.Bigint}, []types.Type{types.Double}
	got := joinOnce(t, plan.InnerJoin, build, probe, buildTs, probeTs)
	want := refJoin(t, plan.InnerJoin, []*block.Page{build}, []*block.Page{probe}, []int{0}, []int{0}, nil, probeTs, buildTs)
	assertSameCounts(t, "double-probe join", got, want)
	if len(got) != 3 { // 2.0→2, -0.0→0, 5.0→5; NaN/2.5/NULL unmatched
		t.Errorf("expected 3 join rows, got %d: %v", len(got), got)
	}
}

// TestJoinVarcharProbeBigintBuild probes a fixed-key table with a
// variable-width key: the kinds cannot match, so the join yields no rows
// (tag bytes differ under the canonical encoding).
func TestJoinVarcharProbeBigintBuild(t *testing.T) {
	build := block.NewPage(block.NewLongBlock([]int64{1, 2}, nil))
	probe := block.NewPage(block.NewVarcharBlock([]string{"1", "2"}, nil))
	if got := joinOnce(t, plan.InnerJoin, build, probe, []types.Type{types.Bigint}, []types.Type{types.Varchar}); len(got) != 0 {
		t.Errorf("varchar-probe-vs-bigint-build should match nothing: %v", got)
	}
}

// TestKeyTableGrowth pushes >1M distinct single-BIGINT groups through the
// aggregation operator, forcing many rehash cycles of the open-addressing
// table, and checks the group count and a sampled sum survive.
func TestKeyTableGrowth(t *testing.T) {
	const groups = 1_100_000
	const pageRows = 8192
	specs := []AggSpec{{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint}}
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, specs, false, 0)
	next := int64(0)
	for next < groups {
		n := int64(pageRows)
		if groups-next < n {
			n = groups - next
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = next + int64(i)
		}
		next += n
		if err := op.AddInput(block.NewPage(block.NewLongBlock(vals, nil))); err != nil {
			t.Fatal(err)
		}
	}
	op.Finish()
	var rows int64
	for {
		p, err := op.Output()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			if op.IsFinished() {
				break
			}
			continue
		}
		for r := 0; r < p.RowCount(); r++ {
			if c := p.Col(1).Long(r); c != 1 {
				t.Fatalf("group %d count %d, want 1", p.Col(0).Long(r), c)
			}
		}
		rows += int64(p.RowCount())
	}
	if rows != groups {
		t.Fatalf("distinct groups: got %d, want %d", rows, groups)
	}
}

// TestKeyTableBytesKind exercises the byte-arena layout directly (varchar
// keys) through growth, including re-insertion stability of entry ids.
func TestKeyTableBytesKind(t *testing.T) {
	tbl := newKeyTable(false, 1, 0)
	n := 5000
	key := func(i int) []byte {
		return []byte(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < n; i++ {
		k := key(i)
		id, fresh := tbl.getOrInsertBytes(hashRowKeyBytes(k), k)
		if !fresh || id != i {
			t.Fatalf("insert %d: id=%d fresh=%v", i, id, fresh)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("len=%d want %d", tbl.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := key(i)
		if id, fresh := tbl.getOrInsertBytes(hashRowKeyBytes(k), k); fresh || id != i {
			t.Fatalf("re-insert %d: id=%d fresh=%v", i, id, fresh)
		}
		if id := tbl.lookupBytes(hashRowKeyBytes(k), k); id != i {
			t.Fatalf("lookup %d: id=%d", i, id)
		}
	}
	if id := tbl.lookupBytes(hashRowKeyBytes([]byte("absent")), []byte("absent")); id != -1 {
		t.Fatalf("absent key found: %d", id)
	}
}

func hashRowKeyBytes(b []byte) uint64 { return hashRowKey(b) }
