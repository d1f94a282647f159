package operators

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
)

// One ledger (DESIGN.md "Scratch", the accounting rule): an operator's table
// arrays are leased through its memory context, and what it reserves is what
// the context counts plus what it keeps beside its arrays. The walks below
// find the live arrays from the operators' fields, independently of the
// ledger, and add up their capacities.

// arrayBytes is what v's backing array takes.
func arrayBytes[T any](v []T) int64 { return int64(cap(v)) * int64(unsafe.Sizeof(*new(T))) }

// walkKeyTable is what t's arrays take.
func walkKeyTable(t *keyTable) int64 {
	if t == nil {
		return 0
	}
	return arrayBytes(t.slots) + arrayBytes(t.cells) + arrayBytes(t.tags) +
		arrayBytes(t.hashes) + arrayBytes(t.arena) + arrayBytes(t.offs)
}

// walkValueVec is what v's arrays take.
func walkValueVec(v *valueVec) int64 {
	return arrayBytes(v.has) + arrayBytes(v.longs) + arrayBytes(v.doubles) +
		arrayBytes(v.strs) + arrayBytes(v.bools) + arrayBytes(v.boxed)
}

// walkAgg is what an aggregation's table arrays take: the key table, the key
// vectors beside it and every aggregate's state, DISTINCT sets included.
func walkAgg(o *HashAggregationOperator) int64 {
	n := walkKeyTable(o.table)
	for _, v := range o.keys {
		if v != nil {
			n += walkValueVec(v)
		}
	}
	for i := range o.accs {
		a := &o.accs[i]
		n += arrayBytes(a.count) + arrayBytes(a.sumI) + arrayBytes(a.sumF) + walkValueVec(&a.mm) + walkKeyTable(a.dset)
	}
	return n
}

// aggStrBytes is what an aggregation keeps beside its arrays: the strings
// its key and min/max vectors hold.
func aggStrBytes(o *HashAggregationOperator) int64 {
	var n int64
	for _, v := range o.keys {
		if v != nil {
			n += v.strBytes
		}
	}
	for i := range o.accs {
		n += o.accs[i].mm.strBytes
	}
	return n
}

// walkBridge is what a bridge's index arrays take: the key table, the links
// and the positions.
func walkBridge(b *JoinBridge) int64 {
	return walkKeyTable(b.ktab) + arrayBytes(b.next) + arrayBytes(b.starts) + arrayBytes(b.steps)
}

// pagesBytes is what the pages take.
func pagesBytes(pages []*block.Page) int64 {
	var n int64
	for _, p := range pages {
		n += p.SizeBytes()
	}
	return n
}

// checkLedger checks that mem's ledger counts exactly the live arrays a walk
// found, and that its reservation is those and what is kept beside them.
func checkLedger(t *testing.T, state string, mem *memory.LocalContext, walk, beside int64) {
	t.Helper()
	if leased, held := mem.Leased(), mem.Held(); leased != walk || held != walk+beside {
		t.Errorf("%s: %d bytes leased and %d reserved; the live arrays take %d, and %d more are kept beside them",
			state, leased, held, walk, beside)
	}
}

// ledgerPage is n rows (key, value BIGINT) from row from on: the key, of
// type keyT, numbers the row modulo keys, and the value is the row modulo 7.
func ledgerPage(keyT types.Type, from, n, keys int) *block.Page {
	k, v := make([]types.Value, n), make([]types.Value, n)
	for i := range k {
		key := int64((from + i) % keys)
		switch keyT {
		case types.Varchar:
			k[i] = types.VarcharValue(fmt.Sprintf("key-%06d", key))
		case types.Array:
			k[i] = types.ArrayValue([]types.Value{types.BigintValue(key)})
		default:
			k[i] = types.BigintValue(key)
		}
		v[i] = types.BigintValue(int64((from + i) % 7))
	}
	return block.NewPage(block.BuildBlock(keyT, k), block.BuildBlock(types.Bigint, v))
}

// TestReservationIsLeasedCapacity: in every state an aggregation (DISTINCT's,
// with no aggregates, too) and a join bridge pass through, the ledger counts
// exactly the
// capacity of the arrays the operator holds, and its reservation is that
// plus what it keeps beside them — strings for an aggregation, pages (and,
// until the index exists, the key table reserved ahead) for a bridge. After
// Close, or a bridge's cleanup, cancelled or not, both are 0. Run under
// -race.
func TestReservationIsLeasedCapacity(t *testing.T) {
	const groups, pageRows = 3000, 500
	for _, tc := range []struct {
		name  string
		keyT  types.Type
		specs []AggSpec
	}{
		{"bigint key", types.Bigint, []AggSpec{
			{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
			{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint},
			{Func: plan.AggAvg, ArgCol: 1, Out: types.Double},
			{Func: plan.AggMax, ArgCol: 1, Out: types.Bigint},
		}},
		{"varchar key", types.Varchar, []AggSpec{
			{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
			{Func: plan.AggMax, ArgCol: 0, Out: types.Varchar},
		}},
		{"varchar key, DISTINCT", types.Varchar, []AggSpec{
			{Func: plan.AggCount, ArgCol: 1, Distinct: true, Out: types.Bigint},
			{Func: plan.AggMin, ArgCol: 0, Out: types.Varchar},
		}},
		{"array key", types.Array, []AggSpec{
			{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
			{Func: plan.AggMax, ArgCol: 1, Out: types.Bigint},
		}},
	} {
		t.Run("aggregation/"+tc.name, func(t *testing.T) {
			ctx := NopContext()
			op := NewHashAggregation(ctx, []int{0}, []types.Type{tc.keyT}, tc.specs, true, 0, groups/3)
			op.SetSpillDir(t.TempDir())
			check := func(state string) { t.Helper(); checkLedger(t, state, ctx.Mem, walkAgg(op), aggStrBytes(op)) }
			if op.table.slots == nil {
				t.Fatal("the table was not presized")
			}
			check("presized")
			slots := len(op.table.slots)
			for from := 0; from < groups; from += pageRows {
				if err := op.AddInput(ledgerPage(tc.keyT, from, pageRows, groups)); err != nil {
					t.Fatal(err)
				}
			}
			if len(op.table.slots) <= slots {
				t.Fatalf("the table did not grow past its presize: %d slots", slots)
			}
			check("grown past its presize")
			if op.spillable {
				if freed, err := op.Revoke(); err != nil || freed == 0 {
					t.Fatalf("revocation freed %d (%v)", freed, err)
				}
				check("after a spill")
				for from := 0; from < groups/2; from += pageRows {
					if err := op.AddInput(ledgerPage(tc.keyT, from, pageRows, groups)); err != nil {
						t.Fatal(err)
					}
				}
				check("refilled after a spill")
			}
			op.Finish()
			rows := 0
			for !op.IsFinished() {
				p, err := op.Output()
				if err != nil {
					t.Fatal(err)
				}
				if p != nil {
					rows += p.RowCount()
				}
			}
			if rows != groups {
				t.Fatalf("%d groups out, want %d", rows, groups)
			}
			check("after emission")
			op.Close()
			checkLedger(t, "closed", ctx.Mem, 0, 0)
		})
	}

	for _, keyT := range []types.Type{types.Bigint, types.Varchar} {
		t.Run(fmt.Sprintf("DISTINCT/%s", keyT), func(t *testing.T) {
			ctx := NopContext()
			op := NewHashAggregation(ctx, []int{0, 1}, []types.Type{keyT, types.Bigint}, nil, false, 0, 0)
			for from := 0; from < 2*groups; from += pageRows {
				if err := op.AddInput(ledgerPage(keyT, from, pageRows, groups)); err != nil {
					t.Fatal(err)
				}
				checkLedger(t, fmt.Sprintf("after row %d", from+pageRows), ctx.Mem, walkAgg(op), aggStrBytes(op))
			}
			op.Close()
			checkLedger(t, "closed", ctx.Mem, 0, 0)
		})
	}

	for _, keyT := range []types.Type{types.Bigint, types.Varchar} {
		ts := []types.Type{keyT, types.Bigint}
		build := func(t *testing.T, mem *memory.LocalContext, pages []*block.Page) *JoinBridge {
			t.Helper()
			bridge := NewJoinBridge()
			bridge.EnableSpill(mem, t.TempDir(), []int{0}, ts[:1])
			bridge.AddBuilder()
			hb := NewHashBuild(NopContext(), bridge, []int{0}, ts[:1])
			for i, p := range pages {
				if err := hb.AddInput(p); err != nil {
					t.Fatal(err)
				}
				if i == len(pages)/2 {
					rows := int(bridge.BuildRows())
					checkLedger(t, "mid-build", mem, walkBridge(bridge), pagesBytes(bridge.pages)+keyTableBytes(keyT != types.Varchar, 1, rows))
				}
			}
			hb.Finish()
			bridge.NoMoreBuilders()
			checkLedger(t, "built", mem, walkBridge(bridge), pagesBytes(bridge.pages))
			return bridge
		}
		var buildPages, probePages []*block.Page
		for from := 0; from < 4*groups; from += pageRows {
			buildPages = append(buildPages, ledgerPage(keyT, from, pageRows, groups))
		}
		for from := 0; from < groups; from += pageRows {
			probePages = append(probePages, ledgerPage(keyT, from, pageRows, 2*groups))
		}
		t.Run(fmt.Sprintf("join/%s/probed", keyT), func(t *testing.T) {
			mem := spillTestMem()
			bridge := build(t, mem, buildPages)
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, plan.RightJoin, []int{0}, nil, ts, ts, 0)
			drain(t, op, probePages...)
			if bridge.ktab != nil || bridge.next != nil {
				t.Fatal("the index outlived the last probe")
			}
			checkLedger(t, "after the last probe", mem, walkBridge(bridge), pagesBytes(bridge.pages))
			bridge.ReleaseSpill()
			checkLedger(t, "cleaned up", mem, walkBridge(bridge), 0)
			if mem.Held() != 0 {
				t.Errorf("cleaned up: %d bytes still reserved", mem.Held())
			}
		})
		t.Run(fmt.Sprintf("join/%s/revoked after built", keyT), func(t *testing.T) {
			mem := spillTestMem()
			bridge := build(t, mem, buildPages)
			if freed, err := bridge.Revoke(); err != nil || freed == 0 {
				t.Fatalf("revocation freed %d (%v)", freed, err)
			}
			checkLedger(t, "revoked after built", mem, walkBridge(bridge), 0)
			if mem.Held() != 0 {
				t.Errorf("revoked after built: %d bytes still reserved", mem.Held())
			}
			bridge.AddProbe()
			bridge.NoMoreProbes()
			probeCtx := NopContext()
			op := NewLookupJoin(probeCtx, bridge, plan.FullJoin, []int{0}, nil, ts, ts, 0)
			for _, p := range probePages {
				if err := op.AddInput(p); err != nil {
					t.Fatal(err)
				}
			}
			op.Finish()
			parts := map[int]bool{}
			for !op.IsFinished() {
				if _, err := op.Output(); err != nil {
					t.Fatal(err)
				}
				if d := op.drain; d != nil && d.inner != nil {
					sub := d.inner.bridge
					parts[d.part] = true
					checkLedger(t, fmt.Sprintf("drain partition %d", d.part), probeCtx.Mem, walkBridge(sub), pagesBytes(sub.pages))
				}
			}
			if len(parts) < spill.Partitions/2 {
				t.Errorf("checked %d drain partitions, want most of %d", len(parts), spill.Partitions)
			}
			checkLedger(t, "drained", probeCtx.Mem, 0, 0)
			op.Close()
			bridge.ReleaseSpill()
			checkLedger(t, "cleaned up", mem, 0, 0)
		})
		t.Run(fmt.Sprintf("join/%s/cancelled", keyT), func(t *testing.T) {
			mem := spillTestMem()
			bridge := build(t, mem, buildPages)
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
			if err := op.AddInput(probePages[0]); err != nil {
				t.Fatal(err)
			}
			bridge.Cancel()
			checkLedger(t, "cancelled", mem, walkBridge(bridge), pagesBytes(bridge.pages))
			bridge.ReleaseSpill()
			checkLedger(t, "cancelled and cleaned up", mem, 0, 0)
		})
	}
}

// TestEmptyAggregationHasNothingToRevoke: a spillable aggregation over
// varchar keys (the bytes layout) that has not seen a page, or has just
// spilled, leases no array and offers nothing to revoke. So a reservation the
// pool cannot make fails with ErrExceededLimit, where a revocation that freed
// an empty table's arrays and leased them again would count as progress and
// keep Reserve revoking forever.
func TestEmptyAggregationHasNothingToRevoke(t *testing.T) {
	specs := []AggSpec{
		{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
		{Func: plan.AggMax, ArgCol: 0, Out: types.Varchar},
	}
	for _, spilled := range []bool{false, true} {
		pool := memory.NewNodePool(1<<20, 0)
		q := memory.NewQueryContext("q", memory.QueryLimits{SpillEnabled: true}, map[int]*memory.NodePool{0: pool})
		ctx := &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}
		op := NewHashAggregation(ctx, []int{0}, []types.Type{types.Varchar}, specs, true, 0, 0)
		op.SetSpillDir(t.TempDir())
		pool.RegisterRevocable("q", op)
		if spilled {
			if err := op.AddInput(ledgerPage(types.Varchar, 0, 500, 100)); err != nil {
				t.Fatal(err)
			}
			if freed, err := op.Revoke(); err != nil || freed == 0 {
				t.Fatalf("revocation freed %d (%v)", freed, err)
			}
		}
		if n := op.RevocableBytes(); n != 0 || ctx.Mem.Held() != 0 || ctx.Mem.Leased() != 0 {
			t.Errorf("spilled %v: %d bytes revocable, %d reserved, %d leased; want 0", spilled, n, ctx.Mem.Held(), ctx.Mem.Leased())
		}
		done := make(chan error, 1)
		go func() { done <- pool.Reserve("q", memory.User, 2<<20, true) }()
		select {
		case err := <-done:
			if !errors.Is(err, memory.ErrExceededLimit) {
				t.Errorf("spilled %v: reserving past the pool returned %v, want ErrExceededLimit", spilled, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("spilled %v: Reserve kept revoking an aggregation with nothing to give", spilled)
		}
		op.Close()
	}
}
