package operators

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
)

// spillTestMem builds an uncapped user memory context with spilling on, so
// operator tests can drive revocation manually.
func spillTestMem() *memory.LocalContext {
	pools := map[int]*memory.NodePool{0: memory.NewNodePool(1<<30, 0)}
	q := memory.NewQueryContext("spilltest", memory.QueryLimits{SpillEnabled: true}, pools)
	return memory.NewLocalContext(q, 0, memory.User)
}

// joinSpillPages builds mixed build/probe inputs: duplicate keys, NULL keys,
// and a payload column, spread over several pages.
func joinSpillPages(npages, rows, keyMod, offset int) []*block.Page {
	var pages []*block.Page
	for pg := 0; pg < npages; pg++ {
		var keys []int64
		var keyNulls []bool
		var payload []string
		for r := 0; r < rows; r++ {
			i := pg*rows + r
			keys = append(keys, int64((i+offset)%keyMod))
			keyNulls = append(keyNulls, i%13 == 0)
			payload = append(payload, fmt.Sprintf("p%d-%d", offset, i))
		}
		pages = append(pages, block.NewPage(
			block.NewLongBlock(keys, keyNulls),
			block.NewVarcharBlock(payload, nil),
		))
	}
	return pages
}

// runJoin builds a bridge from buildPages (revoking it after every
// revokeEvery-th page when the bridge is spill-armed), probes it with
// probePages and returns the output rows as a multiset.
func runJoin(t *testing.T, jt plan.JoinType, buildPages, probePages []*block.Page, residual expr.Expr, rowTs []types.Type, spilled bool, revokeEvery int) map[string]int {
	t.Helper()
	keyTs := []types.Type{rowTs[0]}
	bridge := NewJoinBridge()
	if spilled {
		bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, keyTs)
	}
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, keyTs)
	for i, p := range buildPages {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
		if spilled && i%revokeEvery == 0 {
			if _, err := bridge.Revoke(); err != nil {
				t.Fatal(err)
			}
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()

	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, jt, []int{0}, NewJoinResidual(residual, len(rowTs), expr.NewPageProcessor), rowTs, rowTs, 0)
	out := drain(t, op, probePages...)
	if spilled && bridge.SpillCount() == 0 {
		t.Fatal("expected build-side spill")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	bridge.ReleaseSpill()
	return rowCounts(out)
}

var allJoinTypes = []struct {
	name string
	jt   plan.JoinType
}{
	{"inner", plan.InnerJoin},
	{"left", plan.LeftJoin},
	{"right", plan.RightJoin},
	{"full", plan.FullJoin},
	{"semi", plan.SemiJoin},
	{"anti", plan.AntiJoin},
}

// TestHashJoinSpillDifferential drives every join type, with and without a
// residual, in memory and with the bridge revoked between build pages (and
// the probe side therefore spilled too): both must produce exactly the
// multiset of rows of the per-row reference (refJoin). Also locks in that
// every spill temp file is deleted.
func TestHashJoinSpillDifferential(t *testing.T) {
	buildPages := joinSpillPages(6, 80, 17, 0)
	probePages := joinSpillPages(5, 90, 29, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	// Residual over (probe ++ build): probe key > 3.
	residual := &expr.Compare{
		Op: expr.CmpGt,
		L:  &expr.ColumnRef{Index: 0, T: types.Bigint},
		R:  expr.NewConst(types.BigintValue(3)),
	}
	for _, tc := range allJoinTypes {
		for name, res := range map[string]expr.Expr{"": nil, "+residual": residual} {
			t.Run(tc.name+name, func(t *testing.T) {
				before := spill.CurrentStats()
				want := refJoin(t, tc.jt, buildPages, probePages, []int{0}, []int{0}, res, rowTs, rowTs)
				if len(want) == 0 {
					t.Fatal("reference join is empty; test is vacuous")
				}
				assertSameCounts(t, "in memory", runJoin(t, tc.jt, buildPages, probePages, res, rowTs, false, 0), want)
				assertSameCounts(t, "revoked every 2 build pages", runJoin(t, tc.jt, buildPages, probePages, res, rowTs, true, 2), want)
				assertSameCounts(t, "revoked every build page", runJoin(t, tc.jt, buildPages, probePages, res, rowTs, true, 1), want)
				after := spill.CurrentStats()
				if created, deleted := after.FilesCreated-before.FilesCreated, after.FilesDeleted-before.FilesDeleted; created != deleted {
					t.Fatalf("spill file leak: %d created, %d deleted", created, deleted)
				}
			})
		}
	}
}

// TestJoinBuildConcurrentDrivers: several build drivers feed one bridge at
// once, their pages — flat, dictionary-encoded and run-length-encoded, every
// key duplicated across many of them — interleaving in whatever order the
// lock grants; the built row lists must hold every row under its key, for
// every join type, as the per-row reference does. Run under -race.
func TestJoinBuildConcurrentDrivers(t *testing.T) {
	buildPages := joinSpillPages(24, 60, 7, 0)
	for i, p := range buildPages {
		switch i % 3 {
		case 1:
			buildPages[i] = dictEncoded(p)
		case 2:
			// A run of the page's first key over its own payload column.
			buildPages[i] = block.NewPage(block.NewRLEBlock(p.Col(0).Value(0), p.RowCount()), p.Col(1))
		}
	}
	probePages := joinSpillPages(5, 90, 11, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	for _, tc := range allJoinTypes {
		t.Run(tc.name, func(t *testing.T) {
			const drivers = 4
			bridge := NewJoinBridge()
			var wg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				bridge.AddBuilder()
				hb := NewHashBuild(NopContext(), bridge, []int{0}, rowTs[:1])
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					for i := d; i < len(buildPages); i += drivers {
						if err := hb.AddInput(buildPages[i]); err != nil {
							t.Error(err)
						}
					}
					hb.Finish()
				}(d)
			}
			bridge.NoMoreBuilders()
			wg.Wait()
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, nil, rowTs, rowTs, 0)
			got := rowCounts(drain(t, op, probePages...))
			assertSameCounts(t, tc.name, got, refJoin(t, tc.jt, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
		})
	}
}

// TestJoinEmptyBuild: a build side with no pages, and one whose every key is
// NULL, match nothing: INNER and SEMI are empty, LEFT and ANTI pass every
// probe row, RIGHT and FULL add the unmatched build rows.
func TestJoinEmptyBuild(t *testing.T) {
	probePages := joinSpillPages(2, 30, 5, 0)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	nullKeys := block.NewPage(
		block.NewLongBlock([]int64{0, 0, 0}, []bool{true, true, true}),
		block.NewVarcharBlock([]string{"a", "b", "c"}, nil))
	for name, buildPages := range map[string][]*block.Page{"no pages": nil, "null keys": {nullKeys}} {
		for _, tc := range allJoinTypes {
			got := runJoin(t, tc.jt, buildPages, probePages, nil, rowTs, false, 0)
			assertSameCounts(t, name+"/"+tc.name, got, refJoin(t, tc.jt, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
		}
	}
}

// TestJoinBuildSummarizesDistinctKeys: the built transition hands the
// dynamic-filter collector each distinct key once and the count of rows with
// a non-NULL key — over unique keys, over keys that all repeat across pages
// with NULLs among them, and over a mix of repeated and single keys.
func TestJoinBuildSummarizesDistinctKeys(t *testing.T) {
	for name, pages := range map[string][]*block.Page{
		"unique":      {twoColPage([]int64{5, 1, 9}, []int64{0, 0, 0}), twoColPage([]int64{2, 7}, []int64{0, 0})},
		"nulls+dups":  joinSpillPages(4, 30, 7, 0),
		"one key run": {block.NewPage(block.NewRLEBlock(types.BigintValue(3), 40), block.NewLongBlock(make([]int64, 40), nil))},
		"some repeat": {
			block.NewPage(block.NewLongBlock([]int64{1, 2, 2, 3, 0}, []bool{false, false, false, false, true}), block.NewLongBlock(make([]int64, 5), nil)),
			twoColPage([]int64{4, 2, 1}, []int64{0, 0, 0}),
		},
	} {
		keys, rows := map[int64]bool{}, int64(0)
		for _, p := range pages {
			for r := 0; r < p.RowCount(); r++ {
				if !p.Col(0).IsNull(r) {
					keys[p.Col(0).Long(r)] = true
					rows++
				}
			}
		}
		bridge := NewJoinBridge()
		var got []*dynfilter.Summary
		bridge.SetFilterCollector(dynfilter.NewCollector([]dynfilter.ColumnSpec{{ID: 1, T: types.Bigint}}),
			func(s []*dynfilter.Summary) { got = s })
		bridge.AddBuilder()
		hb := NewHashBuild(NopContext(), bridge, []int{0}, []types.Type{types.Bigint})
		for _, p := range pages {
			if err := hb.AddInput(p); err != nil {
				t.Fatal(err)
			}
		}
		hb.Finish()
		bridge.NoMoreBuilders()
		if len(got) != 1 {
			t.Fatalf("%s: %d summaries published", name, len(got))
		}
		if s := got[0]; s.Rows != rows || len(s.Points()) != len(keys) {
			t.Errorf("%s: a summary of %d rows and %d keys, want %d and %d", name, s.Rows, len(s.Points()), rows, len(keys))
		}
		for k := range keys {
			if !got[0].Has(block.CellLong, uint64(k)) {
				t.Errorf("%s: key %d is missing from the summary", name, k)
			}
		}
	}
}

// TestJoinCancelThenLateBuildPage: a task failure cancels the bridge while a
// sibling build driver is still running (nothing stops it). Its late pages
// must be dropped — before and after some pages were indexed, keyed and
// keyless — so the released probes see a build side that is consistent with
// its row list, instead of resolving a key that has no rows.
func TestJoinCancelThenLateBuildPage(t *testing.T) {
	rowTs := []types.Type{types.Bigint, types.Bigint}
	for _, early := range []bool{false, true} {
		for _, tc := range allJoinTypes {
			for _, keys := range [][]int{{0}, nil} {
				bridge := NewJoinBridge()
				bridge.AddBuilder()
				bridge.AddBuilder()
				hb := NewHashBuild(NopContext(), bridge, keys, rowTs[:len(keys)])
				if early {
					if err := hb.AddInput(twoColPage([]int64{1, 3}, []int64{10, 30})); err != nil {
						t.Fatal(err)
					}
				}
				bridge.Cancel()
				if err := hb.AddInput(twoColPage([]int64{1, 2}, []int64{11, 20})); err != nil {
					t.Fatal(err)
				}
				hb.Finish()
				if got := bridge.BuildRows(); early && got != 2 || !early && got != 0 {
					t.Fatalf("%s early=%v: bridge counts %d build rows after a dropped page", tc.name, early, got)
				}
				op := NewLookupJoin(NopContext(), bridge, tc.jt, keys, nil, rowTs, rowTs, 0)
				// Any output is acceptable (the task has failed); a panic is not.
				_ = drain(t, op, twoColPage([]int64{1, 2, 4}, []int64{1, 2, 4}))
			}
		}
	}
}

// TestHashJoinSpillRefusedAfterProbe locks in the revocation-safety rule:
// once probes have read the table, the bridge refuses to revoke (rows served
// from memory cannot be taken back).
func TestHashJoinSpillRefusedAfterProbe(t *testing.T) {
	bridge := NewJoinBridge()
	bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, []types.Type{types.Bigint})
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, []types.Type{types.Bigint})
	if err := hb.AddInput(twoColPage([]int64{1, 2}, []int64{10, 20})); err != nil {
		t.Fatal(err)
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil,
		[]types.Type{types.Bigint, types.Bigint}, []types.Type{types.Bigint, types.Bigint}, 0)
	_ = runProbe(t, op, twoColPage([]int64{1}, []int64{1}))
	if bridge.RevocableBytes() != 0 {
		t.Fatalf("bridge still advertises %d revocable bytes after probe start", bridge.RevocableBytes())
	}
	if n, err := bridge.Revoke(); err != nil || n != 0 {
		t.Fatalf("revoke after probe start: freed %d, err %v", n, err)
	}
	bridge.ReleaseSpill()
}

// TestJoinRevokeBeforeBuiltWritesPagesOnly: until its last builder finishes a
// bridge holds pages and no index, so a revocation then writes the pages and
// gives back their bytes and the index's advance reservation — there is no
// table to drop — and the join still answers as the reference does, through
// the drain.
func TestJoinRevokeBeforeBuiltWritesPagesOnly(t *testing.T) {
	buildPages := joinSpillPages(6, 80, 17, 0)
	probePages := joinSpillPages(5, 90, 29, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	bridge := NewJoinBridge()
	bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, rowTs[:1])
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, rowTs[:1])
	var held int64
	rows := 0
	for _, p := range buildPages[:4] {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
		held += p.SizeBytes()
		rows += p.RowCount()
	}
	if bridge.ktab != nil || bridge.starts != nil {
		t.Fatal("the bridge indexed build pages before its builders finished")
	}
	if want, got := held+keyTableBytes(bigintKey, rows), bridge.RevocableBytes(); got != want {
		t.Fatalf("%d revocable bytes, want the pages and the index reserved ahead, %d", got, want)
	}
	before := spill.CurrentStats()
	freed, err := bridge.Revoke()
	if err != nil {
		t.Fatal(err)
	}
	if want := held + keyTableBytes(bigintKey, rows); freed != want {
		t.Errorf("revocation freed %d bytes, want %d", freed, want)
	}
	if len(bridge.pages) != 0 || bridge.ktab != nil || bridge.bytes.Load() != 0 || bridge.mem.Held() != 0 {
		t.Errorf("after the revocation the bridge holds %d pages, %d bytes (%d reserved)", len(bridge.pages), bridge.bytes.Load(), bridge.mem.Held())
	}
	if wrote := spill.CurrentStats().BytesWritten - before.BytesWritten; wrote == 0 {
		t.Error("the revocation wrote nothing")
	}
	for _, p := range buildPages[4:] {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	if bridge.ktab != nil {
		t.Error("a spilled bridge built an in-memory index")
	}
	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, plan.FullJoin, []int{0}, nil, rowTs, rowTs, 0)
	got := rowCounts(drain(t, op, probePages...))
	assertSameCounts(t, "revoked before built", got, refJoin(t, plan.FullJoin, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	bridge.ReleaseSpill()
}

// TestJoinRevokeUnderConcurrentBuilders: four build drivers append to one
// spill-armed bridge while revocations land between their pages. Every row —
// appended before a revocation (written by it), after one (streamed), or after
// the last (in memory, indexed at the built transition and then revoked with
// its table or not at all) — joins exactly once. Run under -race.
func TestJoinRevokeUnderConcurrentBuilders(t *testing.T) {
	buildPages := joinSpillPages(40, 60, 23, 0)
	probePages := joinSpillPages(5, 90, 31, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	for _, tc := range allJoinTypes {
		t.Run(tc.name, func(t *testing.T) {
			const drivers = 4
			bridge := NewJoinBridge()
			bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, rowTs[:1])
			var wg sync.WaitGroup
			appended := make(chan struct{}, len(buildPages)) // one token a page, so no sender waits
			for d := 0; d < drivers; d++ {
				bridge.AddBuilder()
				hb := NewHashBuild(NopContext(), bridge, []int{0}, rowTs[:1])
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					for i := d; i < len(buildPages); i += drivers {
						if err := hb.AddInput(buildPages[i]); err != nil {
							t.Error(err)
						}
						appended <- struct{}{}
					}
					hb.Finish()
				}(d)
			}
			bridge.NoMoreBuilders()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(buildPages)/2; i++ {
					<-appended
					if i%8 == 7 {
						if _, err := bridge.Revoke(); err != nil {
							t.Error(err)
						}
					}
				}
			}()
			wg.Wait()
			if bridge.SpillCount() == 0 {
				t.Fatal("no revocation landed")
			}
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, nil, rowTs, rowTs, 0)
			got := rowCounts(drain(t, op, probePages...))
			assertSameCounts(t, tc.name, got, refJoin(t, tc.jt, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			bridge.ReleaseSpill()
		})
	}
}

// TestJoinIndexTrueUpOverLimit: a VARCHAR-key index holds an arena of key
// bytes that no page-by-page reservation knows the size of, so the true-up at
// the built transition can ask for more than the query may have. A spill-armed
// bridge is then revoked — pages and fresh index alike, before any probe is
// released — and joins on the grace path; a bridge that cannot spill fails its
// probes with the limit error.
func TestJoinIndexTrueUpOverLimit(t *testing.T) {
	const rows = 2000
	keys, vals := make([]string, rows), make([]int64, rows)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("%0100d", i), int64(i)
	}
	page := block.NewPage(block.NewVarcharBlock(keys, nil), block.NewLongBlock(vals, nil))
	rowTs := []types.Type{types.Varchar, types.Bigint}
	// The pages and the index reserved ahead fit; the 210 KB arena does not.
	limit := page.SizeBytes() + keyTableBytes(rowTs[:1], rows) + 50<<10
	for _, armed := range []bool{true, false} {
		q := memory.NewQueryContext("trueup", memory.QueryLimits{PerNodeUser: limit, SpillEnabled: armed},
			map[int]*memory.NodePool{0: memory.NewNodePool(1<<30, 0)})
		ctx := &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}
		bridge := NewJoinBridge()
		if armed {
			bridge.EnableSpill(ctx.Mem, t.TempDir(), []int{0}, rowTs[:1])
		}
		bridge.AddBuilder()
		hb := NewHashBuild(ctx, bridge, []int{0}, rowTs[:1])
		if err := hb.AddInput(page); err != nil {
			t.Fatalf("armed=%v: the page and the index reserved ahead must fit: %v", armed, err)
		}
		hb.Finish()
		bridge.NoMoreBuilders()
		bridge.AddProbe()
		bridge.NoMoreProbes()
		op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, rowTs, rowTs, 0)
		if !armed {
			if err := op.AddInput(page); !errors.Is(err, memory.ErrExceededLimit) {
				t.Errorf("a bridge that cannot spill: probe error %v, want the memory limit", err)
			}
			continue
		}
		if bridge.SpillCount() != 1 || bridge.ktab != nil {
			t.Fatalf("the over-limit true-up revoked the bridge %d times (index dropped: %v)", bridge.SpillCount(), bridge.ktab == nil)
		}
		got := rowCounts(drain(t, op, page))
		assertSameCounts(t, "grace path", got, refJoin(t, plan.InnerJoin, []*block.Page{page}, []*block.Page{page}, []int{0}, []int{0}, nil, rowTs, rowTs))
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		bridge.ReleaseSpill()
	}
}

// exchangeRows keeps the rows of pages that a hash exchange over n consumers
// sends to consumer c (hashPartitionPage on the key column).
func exchangeRows(pages []*block.Page, n, c int) []*block.Page {
	var out []*block.Page
	for _, p := range pages {
		var keep []int
		for r, part := range hashPartitionPage(nil, new(batchKeys), p, []int{0}, n) {
			if part == c {
				keep = append(keep, r)
			}
		}
		out = append(out, p.FilterPositions(keep))
	}
	return out
}

// graceBuildRows counts the build rows in each grace partition of a spilled,
// built bridge, read back from its sealed build files: all of them, and those
// whose key (column 0) is NULL.
func graceBuildRows(t *testing.T, b *JoinBridge) (rows, nulls []int) {
	t.Helper()
	rows, nulls = make([]int, spill.Partitions), make([]int, spill.Partitions)
	for part := range rows {
		it := b.spl.build.Pages(part)
		for {
			p, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			rows[part] += p.RowCount()
			for r := range p.RowCount() {
				if p.Col(0).IsNull(r) {
					nulls[part]++
				}
			}
		}
		it.Close()
	}
	return rows, nulls
}

// TestGraceJoinSpreadsAfterExchange: a worker behind a hash exchange over n
// consumers holds only the keys whose hash is one value mod n. Its grace
// partitions must still spread the non-NULL ones: every partition holds
// build rows and the largest at most twice the mean, for n = 2 and 4 — so the
// drain's peak is about 1/spill.Partitions of the worker's build, not n times
// that. Every NULL key has one hash, so the NULL build rows (every 13th) go
// to one consumer, the one a NULL routes to, and sit in one of its grace
// partitions; consumer 0 is checked, and that one. The spilled join still
// produces what the per-row reference does.
func TestGraceJoinSpreadsAfterExchange(t *testing.T) {
	rowTs := []types.Type{types.Bigint, types.Varchar}
	allBuild := joinSpillPages(20, 1000, 20000, 0) // 20 000 distinct keys, every 13th NULL
	allProbe := joinSpillPages(10, 1000, 30000, 7)
	for _, n := range []int{2, 4} {
		nullsTo := block.Route(block.HashCell(block.CellNull, 0), n)
		for _, c := range slices.Compact([]int{0, nullsTo}) {
			t.Run(fmt.Sprintf("consumer %d of %d", c, n), func(t *testing.T) {
				graceJoinAfterExchange(t, allBuild, allProbe, rowTs, n, c, c == nullsTo)
			})
		}
	}
}

// graceJoinAfterExchange is TestGraceJoinSpreadsAfterExchange for consumer c
// of n, which holds the NULL build rows when nulls is set.
func graceJoinAfterExchange(t *testing.T, allBuild, allProbe []*block.Page, rowTs []types.Type, n, c int, nulls bool) {
	buildPages, probePages := exchangeRows(allBuild, n, c), exchangeRows(allProbe, n, c)
	bridge := NewJoinBridge()
	bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, rowTs[:1])
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, rowTs[:1])
	for _, p := range buildPages {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bridge.Revoke(); err != nil {
		t.Fatal(err)
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	rows, nullRows := graceBuildRows(t, bridge)
	keyed, nullParts, nullTotal := make([]int, len(rows)), 0, 0
	for part, r := range rows {
		keyed[part] = r - nullRows[part]
		if nullRows[part] > 0 {
			nullParts++
		}
		nullTotal += nullRows[part]
	}
	t.Logf("grace partitions: %v non-NULL build rows, %v NULL", keyed, nullRows)
	mean := float64(sumInts(keyed)) / float64(len(keyed))
	for part, r := range keyed {
		if r == 0 || float64(r) > 2*mean {
			t.Errorf("grace partition %d holds %d non-NULL build rows, want some and at most twice the mean %.0f (all: %v)", part, r, mean, keyed)
		}
	}
	if nullParts > 1 || nulls != (nullTotal > 0) {
		t.Errorf("%d NULL build rows in %d grace partitions, want them in one, and some only at the consumer a NULL routes to (this one: %v)", nullTotal, nullParts, nulls)
	}
	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, plan.FullJoin, []int{0}, nil, rowTs, rowTs, 0)
	got := rowCounts(drain(t, op, probePages...))
	assertSameCounts(t, "spilled", got, refJoin(t, plan.FullJoin, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	bridge.ReleaseSpill()
}

// sumInts is the sum of v.
func sumInts(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// TestJoinRevokedIndexNotCounted: a build indexed at its built transition and
// revoked before any probe read the index counts, in its stats, only the
// indexes its drain builds: one a grace partition that holds build rows.
func TestJoinRevokedIndexNotCounted(t *testing.T) {
	buildPages, probePages := joinSpillPages(4, 80, 17, 0), joinSpillPages(3, 90, 29, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	bridge := NewJoinBridge()
	bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, rowTs[:1])
	bridge.AddBuilder()
	ctx := NopContext()
	hb := NewHashBuild(ctx, bridge, []int{0}, rowTs[:1])
	for _, p := range buildPages {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	indexes := func() int64 {
		s := ctx.Stats.Snapshot()
		return s.DirectIndexes + s.HashedIndexes
	}
	if n := indexes(); n != 1 {
		t.Fatalf("the built bridge counts %d indexes, want 1", n)
	}
	if _, err := bridge.Revoke(); err != nil {
		t.Fatal(err)
	}
	if n := indexes(); n != 0 || bridge.SpillCount() != 1 {
		t.Fatalf("after the revocation: %d indexes counted, %d spills; want 0 and 1", n, bridge.SpillCount())
	}
	var filled int64
	rows, _ := graceBuildRows(t, bridge)
	for _, r := range rows {
		if r > 0 {
			filled++
		}
	}
	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, rowTs, rowTs, 0)
	got := rowCounts(drain(t, op, probePages...))
	assertSameCounts(t, "revoked after built", got, refJoin(t, plan.InnerJoin, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	bridge.ReleaseSpill()
	if n := indexes(); n != filled {
		t.Errorf("the drain counts %d indexes, want one for each of the %d filled partitions", n, filled)
	}
}
