package operators

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
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
	op := NewHashAggregation(ctx, []int{0}, []types.Type{types.Bigint}, threeAggs, true, 0, 0)
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
// life of the table and doubling included, at most 48 bytes a group for the
// key table (its slots and a cell and a tag; 64 while it stored a hash too)
// plus 24 for each aggregate; and a table is sized by its groups,
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
		// ceiling per group: 48 + 24 per aggregate where an aggregate is
		// one 8-byte vector; a sum (count and sum) and a max
		// (value and mask) hold 33 bytes between them and 100 000 groups fall
		// where doubling has allocated 2.62 elements per entry, so that shape
		// is held to what it measures plus a tenth.
		ceiling int64
	}{
		{"three counts", counts, 48 + 24*3},
		{"count, sum, max", threeAggs, 143},
	} {
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, tc.specs, false, 0, 0)
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
		op = NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, eight, false, 0, 0)
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

// buildKeyPages builds rows build rows of (key BIGINT, payload BIGINT) in
// 4096-row pages, their keys spread over keys distinct values.
func buildKeyPages(rows, keys int) []*block.Page {
	const pageRows = 4096
	var pages []*block.Page
	for from := 0; from < rows; from += pageRows {
		n := min(pageRows, rows-from)
		k, v := make([]int64, n), make([]int64, n)
		for i := range k {
			k[i], v[i] = int64((from+i)*7%keys), int64(from+i)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(k, nil), block.NewLongBlock(v, nil)))
	}
	return pages
}

// TestJoinBuildBytesPerRow: what a build allocates beyond the pages it
// retains is the index sized once from its row count — 4-byte slots under a
// 3/4 load factor, a cell and a tag per row, and a 4-byte link per row only
// once a key repeats — and nothing per key or per page. The traffic is builds
// with as many keys as rows (14 of join_local's 16): 200 000 rows of 200 000
// keys allocate 19.5 bytes a row, where the key-id table with a row list
// beside it allocated 44 and inserting page by page into a table that doubled
// 81. The table is sized before a key is hashed, so from the rows: 200 000
// rows of 12 500 keys allocate 23.5 bytes a row (40 with the row list), where
// doubling to 12 500 entries allocated 16. No heuristic hides that: nothing
// measured needs one (DESIGN.md, "The join build's position table").
func TestJoinBuildBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const rows = 200_000
	for _, tc := range []struct {
		name    string
		keys    int
		ceiling int64
	}{
		{"a row a key", rows, 22},
		{"16 rows a key", rows / 16, 26},
	} {
		pages := buildKeyPages(rows, tc.keys)
		var bridge *JoinBridge
		got := allocated(func() { bridge = buildBridge(t, []int{0}, pages...) }) / rows
		if bridge.BuildRows() != rows || bridge.ktab.keys != tc.keys {
			t.Fatalf("%s: built %d rows under %d keys", tc.name, bridge.BuildRows(), bridge.ktab.keys)
		}
		t.Logf("%s: %d bytes of index allocated per build row", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %d bytes of index allocated per build row, want <= %d", tc.name, got, tc.ceiling)
		}
	}
}

// TestJoinBuildAllocatesOnce: a build of 200 000 unique-key rows creates its
// key table at its final size. Had a page's keys grown the slot array or
// reallocated a vector, that array would be a doubled one and not the one
// newKeyTable made; a fixed-layout table holds no hash vector, and no key
// repeats, so there are no links. The whole build allocates what
// buildIndexBytes reserved for it, plus the page-sized hashing scratch.
func TestJoinBuildAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const rows = 200_000
	pages := buildKeyPages(rows, rows)
	var bridge *JoinBridge
	got := allocated(func() { bridge = buildBridge(t, []int{0}, pages...) })
	tab, sized := bridge.ktab, newKeyTable(true, 1, rows)
	if len(tab.slots) != len(sized.slots) {
		t.Errorf("slot array grew: %d slots, sized for %d", len(tab.slots), len(sized.slots))
	}
	if cap(tab.cells) != cap(sized.cells) || cap(tab.tags) != cap(sized.tags) || tab.Len() != rows {
		t.Errorf("a key vector was reallocated: capacities %d/%d for %d rows, sized %d/%d",
			cap(tab.cells), cap(tab.tags), tab.Len(), cap(sized.cells), cap(sized.tags))
	}
	if tab.hashes != nil || bridge.next != nil {
		t.Errorf("a unique fixed-key build holds %d hashes and %d links", cap(tab.hashes), cap(bridge.next))
	}
	if sized.memBytes() != keyTableBytes(true, 1, rows) {
		t.Errorf("a sized table holds %d bytes, keyTableBytes says %d", sized.memBytes(), keyTableBytes(true, 1, rows))
	}
	reserved := buildIndexBytes(rows, 1, true)
	t.Logf("%d rows: the build allocated %d bytes, %d of them reserved for the index", rows, got, reserved)
	if scratch := int64(4096 * 32); got > reserved+scratch {
		t.Errorf("the build allocated %d bytes, want at most the %d reserved and %d of scratch", got, reserved, scratch)
	}
}

// TestJoinBuildAccountingMatchesHeap: what a build reserves in the pool is
// what it holds on the heap — its pages and, once built, its index — within
// 1.25x either way, as the aggregation's (TestHashAggAccountingMatchesHeap):
// the n*32 a row it replaces came to 0.79x. While the pages are still arriving
// the reservation already covers the index the built transition will allocate.
func TestJoinBuildAccountingMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const rows = 200_000
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
	bridge := NewJoinBridge()
	bridge.AddBuilder()
	hb := NewHashBuild(ctx, bridge, []int{0}, []types.Type{types.Bigint})
	var pageBytes int64
	for _, p := range buildKeyPages(rows, rows) {
		pageBytes += p.SizeBytes()
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := pageBytes+buildIndexBytes(rows, 1, true), q.UserBytes(); got != want {
		t.Errorf("before the built transition %d bytes are reserved, want the pages and the index to come, %d", got, want)
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	grown := heap() - before
	reserved := q.UserBytes()
	t.Logf("%d rows: reserved %d bytes (%.1f/row), heap grew %d bytes (%.1f/row)",
		rows, reserved, float64(reserved)/rows, grown, float64(grown)/rows)
	if lo, hi := float64(grown)/1.25, float64(grown)*1.25; float64(reserved) < lo || float64(reserved) > hi {
		t.Errorf("reserved %d bytes for a build of %d: want within 1.25x", reserved, grown)
	}
	if want := pageBytes + bridge.indexBytes(); reserved != want {
		t.Errorf("built: %d bytes reserved, the pages and the index hold %d", reserved, want)
	}
	runtime.KeepAlive(bridge)
}

// TestKeylessProbeAllocationFlat: a keyless join — a residual-only ANTI join
// here, whose output is its probe rows whatever the build — walks the build's
// positions for every probe row and allocates nothing per build row: a probe
// page against 100 000 build rows allocates what one against 1 000 does, give
// or take a kilobyte (1 064 bytes both, measured). A ten-row probe page used to
// allocate 28 MB against 100 000 build rows: a (page, row) address per build
// row in a slice it doubled, and the candidate row converted to an expr.Row
// for every residual it was put to.
func TestKeylessProbeAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	ts := []types.Type{types.Bigint, types.Bigint}
	// The build payload is never negative: no candidate passes.
	never := &expr.Compare{Op: expr.CmpLt, L: &expr.ColumnRef{Index: 3, T: types.Bigint}, R: expr.NewConst(types.BigintValue(0))}
	probe := twoColPage(make([]int64, 10), make([]int64, 10))
	perPage := func(rows int) int64 {
		bridge := buildBridge(t, nil, buildKeyPages(rows, rows)...)
		bridge.AddProbe()
		bridge.NoMoreProbes()
		op := NewLookupJoin(NopContext(), bridge, plan.AntiJoin, nil, never, ts, ts, 0)
		page := func() {
			if err := op.AddInput(probe); err != nil {
				t.Fatal(err)
			}
			for {
				p, err := op.Output()
				if err != nil {
					t.Fatal(err)
				}
				if p == nil {
					return
				}
				if p.RowCount() != probe.RowCount() {
					t.Fatalf("an ANTI join no candidate passes emitted %d of %d probe rows", p.RowCount(), probe.RowCount())
				}
			}
		}
		page() // the first page makes the row sink
		return allocated(page)
	}
	small, large := perPage(1_000), perPage(100_000)
	t.Logf("a keyless probe page allocates %d bytes against 1 000 build rows, %d against 100 000", small, large)
	if large > small+1024 {
		t.Errorf("a keyless probe page allocates %d bytes against 100 000 build rows, %d against 1 000: it grows with the build", large, small)
	}
}

// BenchmarkHashJoinBuildParallel times four build drivers feeding one bridge,
// 49 pages of 4096 unique-key rows between them, to the end of the built
// transition. The drivers hold the bridge lock to append a page, not to hash
// it; the index is built once, by whichever of them finishes last. Run with
// -cpu 1,2: the benchmark's clusters run one thread a worker and cannot show
// builders that wait on one another.
func BenchmarkHashJoinBuildParallel(b *testing.B) {
	const rows, drivers = 200_000, 4
	pages := buildKeyPages(rows, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bridge := NewJoinBridge()
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			bridge.AddBuilder()
			hb := NewHashBuild(NopContext(), bridge, []int{0}, []types.Type{types.Bigint})
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for i := d; i < len(pages); i += drivers {
					if err := hb.AddInput(pages[i]); err != nil {
						b.Error(err)
					}
				}
				hb.Finish()
			}(d)
		}
		bridge.NoMoreBuilders()
		wg.Wait()
		if !bridge.Built() || bridge.BuildRows() != rows {
			b.Fatalf("built %v with %d rows", bridge.Built(), bridge.BuildRows())
		}
	}
	b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
}
