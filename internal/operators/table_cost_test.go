package operators

import (
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/types"
)

// What a group and a build row cost. The allocation tests read
// runtime.MemStats.TotalAlloc, so they skip under the race detector, which
// changes what allocates; scripts/check.sh runs them without it.

// fixedKeyPages feeds fn groups distinct bigint keys, each once, as pages of
// (key BIGINT, arg BIGINT, arg DOUBLE) built and dropped one at a time, so
// that the pages are never part of what a caller measures as retained.
func fixedKeyPages(tb testing.TB, groups int, fn func(*block.Page) error) {
	const pageRows = 4096
	for from := 0; from < groups; from += pageRows {
		n := min(pageRows, groups-from)
		keys, longs, doubles := make([]int64, n), make([]int64, n), make([]float64, n)
		for i := range keys {
			keys[i], longs[i], doubles[i] = int64(from+i), int64(i), float64(i)
		}
		if err := fn(block.NewPage(block.NewLongBlock(keys, nil), block.NewLongBlock(longs, nil), &block.DoubleBlock{Vals: doubles})); err != nil {
			tb.Fatal(err)
		}
	}
}

// threeAggs is the shape of the benchmark's aggregating statements: a count,
// a sum and a min or max.
var threeAggs = []AggSpec{
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: 2, Out: types.Double},
	{Func: plan.AggMax, ArgCol: 1, Out: types.Bigint},
}

// TestHashAggAccountingMatchesHeap: what the aggregation reserves in the pool
// is what its table holds on the heap. For 100 000 fixed-key groups and three
// aggregates the reservation is within 1.25x of the measured heap growth
// either way (the per-group estimate it replaces was off by more than 2x),
// and all of it goes back on Close.
func TestHashAggAccountingMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const groups = 100_000
	pool := memory.NewNodePool(1<<30, 0)
	q := memory.NewQueryContext("accounting", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	ctx := &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}

	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	op := NewHashAggregation(ctx, []int{0}, []types.Type{types.Bigint}, threeAggs, true, 0)
	fixedKeyPages(t, groups, op.AddInput)
	grown := heap() - before
	reserved := q.UserBytes()
	t.Logf("%d groups: reserved %d bytes (%.1f/group), heap grew %d bytes (%.1f/group)",
		groups, reserved, float64(reserved)/groups, grown, float64(grown)/groups)
	if lo, hi := float64(grown)/1.25, float64(grown)*1.25; float64(reserved) < lo || float64(reserved) > hi {
		t.Errorf("reserved %d bytes for a table of %d: want within 1.25x", reserved, grown)
	}
	if held := ctx.Mem.Held(); held != reserved {
		t.Errorf("operator holds %d bytes, the pool has %d", held, reserved)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if left := q.UserBytes(); left != 0 {
		t.Errorf("%d bytes still reserved after Close", left)
	}
	runtime.KeepAlive(op)
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestGroupTableBytesPerGroup: a fresh fixed-key group costs its columns and
// nothing per group on top. Building 100 000 groups allocates, over the whole
// life of the table and doubling included, at most 64 bytes a group for the
// key table plus 24 for each aggregate; and a table is sized by its groups,
// not by a chunk: four groups under eight aggregates take under 8 KB (three
// 256-group arenas took ~315 KB).
func TestGroupTableBytesPerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const groups = 100_000
	counts := []AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
		{Func: plan.AggCountMerge, ArgCol: 1, Out: types.Bigint},
	}
	for _, tc := range []struct {
		name  string
		specs []AggSpec
		// ceiling per group: the issue's 64 + 24 per aggregate where an
		// aggregate is one 8-byte vector; a sum (count and sum) and a max
		// (value and mask) hold 33 bytes between them and 100 000 groups fall
		// where doubling has allocated 2.62 elements per entry, so that shape
		// is held to what it measures plus a tenth.
		ceiling int64
	}{
		{"three counts", counts, 64 + 24*3},
		{"count, sum, max", threeAggs, 170},
	} {
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, tc.specs, false, 0)
		var pages []*block.Page
		fixedKeyPages(t, groups, func(p *block.Page) error { pages = append(pages, p); return nil })
		got := allocated(func() {
			for _, p := range pages {
				if err := op.AddInput(p); err != nil {
					t.Fatal(err)
				}
			}
		}) / groups
		t.Logf("%s: %d bytes allocated per fresh group", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %d bytes allocated per fresh group, want <= %d", tc.name, got, tc.ceiling)
		}
		op.Close()
	}

	eight := append(append(append([]AggSpec(nil), threeAggs...), threeAggs...), threeAggs[:2]...)
	var op *HashAggregationOperator
	small := allocated(func() {
		op = NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, eight, false, 0)
	})
	page := block.NewPage(block.NewLongBlock([]int64{1, 2, 3, 4, 1, 2}, nil), block.NewLongBlock(make([]int64, 6), nil), &block.DoubleBlock{Vals: make([]float64, 6)})
	small += allocated(func() {
		if err := op.AddInput(page); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("4 groups x 8 aggregates: %d bytes allocated", small)
	if small > 8<<10 {
		t.Errorf("4 groups x 8 aggregates allocate %d bytes, want <= 8192", small)
	}
	op.Close()
}

// TestJoinBuildBytesPerRow: the build index costs a key id and a row address
// per build row plus the key table, and nothing per key. Over 200 000 rows of
// 12 500 keys in 49 pages, what the build allocates beyond the pages it
// retains is at most 16 bytes a row (it was a 16-byte row struct, append
// regrowth and a slice header per key).
func TestJoinBuildBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const rows, keys, pageRows = 200_000, 12_500, 4096
	var pages []*block.Page
	for from := 0; from < rows; from += pageRows {
		n := min(pageRows, rows-from)
		k, v := make([]int64, n), make([]int64, n)
		for i := range k {
			k[i], v[i] = int64((from+i)*7%keys), int64(from+i)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(k, nil), block.NewLongBlock(v, nil)))
	}
	bridge := NewJoinBridge()
	got := allocated(func() {
		bridge.AddBuilder()
		hb := NewHashBuild(NopContext(), bridge, []int{0}, []types.Type{types.Bigint})
		for _, p := range pages {
			if err := hb.AddInput(p); err != nil {
				t.Fatal(err)
			}
		}
		hb.Finish()
		bridge.NoMoreBuilders()
	}) / rows
	if !bridge.Built() || bridge.BuildRows() != rows {
		t.Fatalf("built %v with %d rows", bridge.Built(), bridge.BuildRows())
	}
	t.Logf("%d bytes of index allocated per build row", got)
	if got > 16 {
		t.Errorf("%d bytes of index allocated per build row, want <= 16", got)
	}
}
