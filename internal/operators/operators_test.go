package operators

import (
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

func longPage(vals ...int64) *block.Page {
	return block.NewPage(block.NewLongBlock(vals, nil))
}

// drain pushes pages through op and collects all output rows' first column.
func drain(t *testing.T, op Operator, inputs ...*block.Page) []*block.Page {
	t.Helper()
	var out []*block.Page
	pull := func() {
		for {
			p, err := op.Output()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil || p.RowCount() == 0 {
				return
			}
			out = append(out, p)
		}
	}
	for _, p := range inputs {
		for !op.NeedsInput() {
			pull()
			if op.IsFinished() {
				t.Fatal("operator finished before consuming input")
			}
		}
		if err := op.AddInput(p); err != nil {
			t.Fatal(err)
		}
		pull()
	}
	op.Finish()
	for !op.IsFinished() {
		p, err := op.Output()
		if err != nil {
			t.Fatal(err)
		}
		if p != nil && p.RowCount() > 0 {
			out = append(out, p)
		} else if op.IsFinished() {
			break
		}
	}
	return out
}

func col0Values(pages []*block.Page) []int64 {
	var out []int64
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			out = append(out, p.Col(0).Long(r))
		}
	}
	return out
}

func TestLimitOperator(t *testing.T) {
	op := NewLimit(NopContext(), 3, 0)
	got := col0Values(drain(t, op, longPage(1, 2), longPage(3, 4, 5)))
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("limit: %v", got)
	}
}

func TestLimitWithOffset(t *testing.T) {
	op := NewLimit(NopContext(), 2, 2)
	got := col0Values(drain(t, op, longPage(1, 2, 3, 4, 5)))
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("limit offset: %v", got)
	}
}

// TestDistinctOperator: DISTINCT is an aggregation with no aggregates.
func TestDistinctOperator(t *testing.T) {
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, nil, false, 0, 0)
	got := col0Values(drain(t, op, longPage(1, 2, 1), longPage(2, 3)))
	if len(got) != 3 {
		t.Errorf("distinct: %v", got)
	}
}

func TestSortOperator(t *testing.T) {
	op := NewSort(NopContext(), []int{0}, []bool{false}, 0)
	got := col0Values(drain(t, op, longPage(3, 1), longPage(2)))
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sort asc: %v", got)
	}
	opd := NewSort(NopContext(), []int{0}, []bool{true}, 0)
	got = col0Values(drain(t, opd, longPage(3, 1, 2)))
	if got[0] != 3 || got[2] != 1 {
		t.Errorf("sort desc: %v", got)
	}
}

func TestSortNullsLast(t *testing.T) {
	p := block.NewPage(&block.LongBlock{T: types.Bigint, Vals: []int64{5, 0, 1}, Nulls: []bool{false, true, false}})
	op := NewSort(NopContext(), []int{0}, []bool{false}, 0)
	out := drain(t, op, p)
	last := out[len(out)-1]
	if !last.Col(0).IsNull(last.RowCount() - 1) {
		t.Error("NULL should sort last")
	}
}

func TestTopNOperator(t *testing.T) {
	op := NewTopN(NopContext(), []int{0}, []bool{false}, 2)
	got := col0Values(drain(t, op, longPage(5, 1, 4), longPage(2, 3)))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("topn: %v", got)
	}
}

func TestHashAggregation(t *testing.T) {
	// GROUP BY col0, SUM(col1), COUNT(*)
	specs := []AggSpec{
		{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint},
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	}
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, specs, false, 0, 0)
	in := block.NewPage(
		block.NewLongBlock([]int64{1, 2, 1, 2, 1}, nil),
		block.NewLongBlock([]int64{10, 20, 30, 40, 50}, nil),
	)
	out := drain(t, op, in)
	rows := map[int64][2]int64{}
	for _, p := range out {
		for r := 0; r < p.RowCount(); r++ {
			rows[p.Col(0).Long(r)] = [2]int64{p.Col(1).Long(r), p.Col(2).Long(r)}
		}
	}
	if rows[1] != [2]int64{90, 3} || rows[2] != [2]int64{60, 2} {
		t.Errorf("agg: %v", rows)
	}
}

func TestHashAggregationEmptyGlobal(t *testing.T) {
	specs := []AggSpec{{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint}}
	op := NewHashAggregation(NopContext(), nil, nil, specs, false, 0, 0)
	out := drain(t, op) // no input at all
	if len(out) != 1 || out[0].Col(0).Long(0) != 0 {
		t.Errorf("global agg over empty input should yield one zero row: %v", out)
	}
}

func TestHashAggregationNullsIgnored(t *testing.T) {
	specs := []AggSpec{
		{Func: plan.AggSum, ArgCol: 0, Out: types.Bigint},
		{Func: plan.AggCount, ArgCol: 0, Out: types.Bigint},
	}
	op := NewHashAggregation(NopContext(), nil, nil, specs, false, 0, 0)
	in := block.NewPage(&block.LongBlock{T: types.Bigint, Vals: []int64{1, 0, 3}, Nulls: []bool{false, true, false}})
	out := drain(t, op, in)
	if out[0].Col(0).Long(0) != 4 || out[0].Col(1).Long(0) != 2 {
		t.Errorf("null handling: %v", out[0].Row(0))
	}
}

func TestHashAggregationDistinct(t *testing.T) {
	specs := []AggSpec{{Func: plan.AggCount, ArgCol: 0, Distinct: true, Out: types.Bigint}}
	op := NewHashAggregation(NopContext(), nil, nil, specs, false, 0, 0)
	out := drain(t, op, longPage(1, 1, 2, 2, 3))
	if out[0].Col(0).Long(0) != 3 {
		t.Errorf("count distinct: %v", out[0].Row(0))
	}
}

func TestHashAggregationSpillRoundTrip(t *testing.T) {
	specs := []AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, specs, true, 0, 0)
	in1 := block.NewPage(
		block.NewLongBlock([]int64{1, 2, 3}, nil),
		block.NewLongBlock([]int64{10, 20, 30}, nil),
	)
	if err := op.AddInput(in1); err != nil {
		t.Fatal(err)
	}
	if n, err := op.Revoke(); err != nil || n == 0 {
		t.Fatalf("revoke: %d %v", n, err)
	}
	in2 := block.NewPage(
		block.NewLongBlock([]int64{2, 3, 4}, nil),
		block.NewLongBlock([]int64{5, 5, 5}, nil),
	)
	if err := op.AddInput(in2); err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	rows := map[int64]int64{}
	for _, p := range out {
		for r := 0; r < p.RowCount(); r++ {
			rows[p.Col(0).Long(r)] = p.Col(1).Long(r)
		}
	}
	want := map[int64]int64{1: 10, 2: 25, 3: 35, 4: 5}
	for k, v := range want {
		if rows[k] != v {
			t.Errorf("group %d = %d, want %d (all: %v)", k, rows[k], v, rows)
		}
	}
}

// buildBridge loads rows into a join bridge via a HashBuildOperator.
func buildBridge(t testing.TB, keys []int, pages ...*block.Page) *JoinBridge {
	t.Helper()
	bridge := NewJoinBridge()
	bridge.AddBuilder()
	keyTs := make([]types.Type, len(keys))
	for i, c := range keys {
		keyTs[i] = pages[0].Col(c).Type()
	}
	hb := NewHashBuild(NopContext(), bridge, keys, keyTs)
	for _, p := range pages {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	bridge.NoMoreBuilders()
	hb.Finish()
	return bridge
}

func twoColPage(a, b []int64) *block.Page {
	return block.NewPage(block.NewLongBlock(a, nil), block.NewLongBlock(b, nil))
}

func runProbe(t *testing.T, op *LookupJoinOperator, probe *block.Page) []*block.Page {
	t.Helper()
	bridgeReady := !op.IsBlocked()
	if !bridgeReady {
		t.Fatal("bridge should be built")
	}
	return drain(t, op, probe)
}

func TestInnerJoin(t *testing.T) {
	bridge := buildBridge(t, []int{0}, twoColPage([]int64{1, 2, 2}, []int64{100, 200, 201}))
	bridge.AddProbe()
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0},
		nil, []types.Type{types.Bigint}, []types.Type{types.Bigint, types.Bigint}, 0)
	out := runProbe(t, op, longPage(2, 3, 1))
	total := 0
	for _, p := range out {
		total += p.RowCount()
	}
	if total != 3 { // 2 matches twice + 1 once
		t.Errorf("inner join rows: %d", total)
	}
}

func TestLeftJoinEmitsNulls(t *testing.T) {
	bridge := buildBridge(t, []int{0}, twoColPage([]int64{1}, []int64{100}))
	bridge.AddProbe()
	op := NewLookupJoin(NopContext(), bridge, plan.LeftJoin, []int{0},
		nil, []types.Type{types.Bigint}, []types.Type{types.Bigint, types.Bigint}, 0)
	out := runProbe(t, op, longPage(1, 9))
	var nullRows int
	for _, p := range out {
		for r := 0; r < p.RowCount(); r++ {
			if p.Col(1).IsNull(r) {
				nullRows++
			}
		}
	}
	if nullRows != 1 {
		t.Errorf("left join null rows: %d", nullRows)
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	bridge := buildBridge(t, []int{0}, longPage(2, 4))
	bridge.AddProbe()
	semi := NewLookupJoin(NopContext(), bridge, plan.SemiJoin, []int{0},
		nil, []types.Type{types.Bigint}, []types.Type{types.Bigint}, 0)
	got := col0Values(runProbe(t, semi, longPage(1, 2, 3, 4)))
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("semi: %v", got)
	}

	bridge2 := buildBridge(t, []int{0}, longPage(2, 4))
	bridge2.AddProbe()
	anti := NewLookupJoin(NopContext(), bridge2, plan.AntiJoin, []int{0},
		nil, []types.Type{types.Bigint}, []types.Type{types.Bigint}, 0)
	got = col0Values(runProbe(t, anti, longPage(1, 2, 3, 4)))
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("anti: %v", got)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	build := block.NewPage(&block.LongBlock{T: types.Bigint, Vals: []int64{0, 1}, Nulls: []bool{true, false}})
	bridge := buildBridge(t, []int{0}, build)
	bridge.AddProbe()
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0},
		nil, []types.Type{types.Bigint}, []types.Type{types.Bigint}, 0)
	probe := block.NewPage(&block.LongBlock{T: types.Bigint, Vals: []int64{0, 1}, Nulls: []bool{true, false}})
	out := runProbe(t, op, probe)
	total := 0
	for _, p := range out {
		total += p.RowCount()
	}
	if total != 1 { // only 1=1; NULL keys never match
		t.Errorf("null-key join rows: %d", total)
	}
}

func TestWindowRowNumber(t *testing.T) {
	funcs := []plan.WindowExpr{{Func: plan.WinRowNumber, Out: types.Bigint}}
	op := NewWindow(NopContext(), []int{0}, []int{1}, []bool{false}, funcs, 0)
	in := twoColPage([]int64{1, 1, 2, 1, 2}, []int64{30, 10, 5, 20, 1})
	out := drain(t, op, in)
	// Partition 1 ordered by col1: rows get 1,2,3; partition 2: 1,2.
	counts := map[int64][]int64{}
	for _, p := range out {
		for r := 0; r < p.RowCount(); r++ {
			k := p.Col(0).Long(r)
			counts[k] = append(counts[k], p.Col(2).Long(r))
		}
	}
	if len(counts[1]) != 3 || len(counts[2]) != 2 {
		t.Fatalf("partitions: %v", counts)
	}
	if counts[1][0] != 1 || counts[1][2] != 3 {
		t.Errorf("row numbers: %v", counts[1])
	}
}

func TestWindowRunningSum(t *testing.T) {
	arg := &expr.ColumnRef{Index: 1, T: types.Bigint}
	funcs := []plan.WindowExpr{{Func: plan.WinSum, Arg: arg, Out: types.Bigint}}
	op := NewWindow(NopContext(), nil, []int{0}, []bool{false}, funcs, 0)
	in := twoColPage([]int64{1, 2, 3}, []int64{10, 20, 30})
	out := drain(t, op, in)
	var sums []int64
	for _, p := range out {
		for r := 0; r < p.RowCount(); r++ {
			sums = append(sums, p.Col(2).Long(r))
		}
	}
	if len(sums) != 3 || sums[0] != 10 || sums[1] != 30 || sums[2] != 60 {
		t.Errorf("running sums: %v", sums)
	}
}

func TestEnforceSingleRow(t *testing.T) {
	op := NewEnforceSingleRow(NopContext(), []types.Type{types.Bigint})
	out := drain(t, op, longPage(42))
	if len(out) != 1 || out[0].Col(0).Long(0) != 42 {
		t.Errorf("single row: %v", out)
	}
	// Zero rows → one NULL row.
	op2 := NewEnforceSingleRow(NopContext(), []types.Type{types.Bigint})
	out2 := drain(t, op2)
	if len(out2) != 1 || !out2[0].Col(0).IsNull(0) {
		t.Error("empty input should produce one NULL row")
	}
	// Two rows → error.
	op3 := NewEnforceSingleRow(NopContext(), []types.Type{types.Bigint})
	if err := op3.AddInput(longPage(1, 2)); err == nil {
		t.Error("two rows should error")
	}
}

func TestHashPartitionDeterministic(t *testing.T) {
	p := longPage(7)
	a := hashPartitionPage(nil, new(batchKeys), p, []int{0}, 8)[0]
	b := hashPartitionPage(nil, new(batchKeys), p, []int{0}, 8)[0]
	if a != b {
		t.Error("hash partition must be deterministic")
	}
	if hashPartitionPage(nil, new(batchKeys), p, []int{0}, 1)[0] != 0 {
		t.Error("single partition must be 0")
	}
}

func TestEncodeRowKeyCrossTypeNumeric(t *testing.T) {
	// 3 (bigint) and 3.0 (double) must encode identically so joins across
	// numeric types group correctly.
	pi := longPage(3)
	pd := block.NewPage(block.NewDoubleBlock([]float64{3.0}, nil))
	ki := encodeRowKey(nil, pi, 0, []int{0})
	kd := encodeRowKey(nil, pd, 0, []int{0})
	if string(ki) != string(kd) {
		t.Error("3 and 3.0 should share a hash key")
	}
}

func TestValuesOperatorZeroColumns(t *testing.T) {
	op := NewValuesOperator([][]types.Value{{}, {}}, nil)
	p, err := op.Output()
	if err != nil || p.RowCount() != 2 {
		t.Errorf("zero-column values: %v %v", p, err)
	}
}
