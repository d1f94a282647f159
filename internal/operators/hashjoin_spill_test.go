package operators

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/block"
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
	op := NewLookupJoin(NopContext(), bridge, jt, []int{0}, residual, rowTs, rowTs, 0)
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
