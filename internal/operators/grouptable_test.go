package operators

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/types"
)

// Sizing a group table from the optimizer's estimate (DESIGN.md, "Sizing a
// group table").

// bigintKey is the key types of a table over one BIGINT key column.
var bigintKey = []types.Type{types.Bigint}

// tableArrays names the backing array of every array a bigint-key table with
// threeAggs holds, by what it is.
func tableArrays(o *HashAggregationOperator) map[string]unsafe.Pointer {
	out := map[string]unsafe.Pointer{
		"slots": unsafe.Pointer(unsafe.SliceData(o.table.slots)),
		"cells": unsafe.Pointer(unsafe.SliceData(o.table.cells)), "tags": unsafe.Pointer(unsafe.SliceData(o.table.tags)),
	}
	for i := range o.accs {
		a := &o.accs[i]
		for name, p := range map[string]unsafe.Pointer{
			"count": unsafe.Pointer(unsafe.SliceData(a.count)), "sumF": unsafe.Pointer(unsafe.SliceData(a.sumF)),
			"has": unsafe.Pointer(unsafe.SliceData(a.mm.has)), "longs": unsafe.Pointer(unsafe.SliceData(a.mm.longs)),
		} {
			if p != nil {
				out[fmt.Sprintf("%s of %s", name, a.spec.Func)] = p
			}
		}
	}
	return out
}

// TestGroupTableAllocatesOnce: a table presized for an estimate within a
// fifth of the groups that arrive, either way, allocates every array once —
// the slot array, the cells and tags, and every state vector are the ones the
// constructor made when the last group is in, and a bigint-key table keeps
// no string bytes at all — and filling it allocates nothing but the page-sized
// hashing scratch. Without the estimate the same groups allocate the table
// about twice over.
func TestGroupTableAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const groups = 100_000
	var pages []*block.Page
	fixedKeyPages(t, groups, func(p *block.Page) error { pages = append(pages, p); return nil })
	fill := func(op *HashAggregationOperator) int64 {
		return allocated(func() {
			for _, p := range pages {
				if err := op.AddInput(p); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const scratchBytes = 256 << 10
	for _, est := range []int{groups * 8 / 10, groups, groups * 12 / 10} {
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, false, 0, est)
		made := tableArrays(op)
		got := fill(op)
		if op.table.Len() != groups {
			t.Fatalf("estimate %d: %d groups, want %d", est, op.table.Len(), groups)
		}
		if op.table.offs != nil || op.table.arena != nil {
			t.Errorf("estimate %d: a bigint-key table keeps %d string offsets", est, cap(op.table.offs))
		}
		for name, p := range tableArrays(op) {
			if made[name] != p {
				t.Errorf("estimate %d: the %s array was reallocated", est, name)
			}
		}
		t.Logf("estimate %d for %d groups: filling allocated %d bytes, the table holds %d", est, groups, got, walkAgg(op))
		if got > scratchBytes {
			t.Errorf("estimate %d: filling allocated %d bytes, want at most %d of scratch", est, got, scratchBytes)
		}
		op.Close()
	}
	op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, false, 0, 0)
	got := fill(op)
	t.Logf("no estimate: filling allocated %d bytes, the table holds %d", got, walkAgg(op))
	if got < walkAgg(op) {
		t.Errorf("without an estimate filling allocated %d bytes, less than the %d the table holds", got, walkAgg(op))
	}
	op.Close()
}

// TestPresizedTableReservesWhatItHolds: the bytes presize reserves before it
// leases are exactly what the table it builds holds (walkAgg), for every kind
// of key vector and state: the reservation is taken first and never
// corrected.
func TestPresizedTableReservesWhatItHolds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keys  []types.Type
		specs []AggSpec
	}{
		{"bigint key", []types.Type{types.Bigint}, threeAggs},
		{"double and date keys", []types.Type{types.Double, types.Date}, []AggSpec{
			{Func: plan.AggAvg, ArgCol: 0, Out: types.Double},
			{Func: plan.AggMin, ArgCol: 0, Out: types.Double},
		}},
		{"varchar and boolean keys", []types.Type{types.Varchar, types.Boolean}, []AggSpec{
			{Func: plan.AggCount, ArgCol: 0, Out: types.Bigint},
			{Func: plan.AggMax, ArgCol: 0, Out: types.Varchar},
			{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint},
			{Func: plan.AggCount, ArgCol: 0, Distinct: true, Out: types.Bigint},
		}},
		{"array key", []types.Type{types.Array}, []AggSpec{{Func: plan.AggMin, ArgCol: 0, Out: types.Array}}},
	} {
		ctx := NopContext()
		cols := make([]int, len(tc.keys))
		for i := range cols {
			cols[i] = i
		}
		op := NewHashAggregation(ctx, cols, tc.keys, tc.specs, false, 0, 1000)
		n := int(1000 * presizeHeadroom)
		if held, leased, holds := ctx.Mem.Held(), ctx.Mem.Leased(), walkAgg(op); held != holds || leased != holds {
			t.Errorf("%s: reserved %d bytes and leased %d, the table holds %d", tc.name, held, leased, holds)
		}
		if len(op.table.slots) != slotsFor(n) {
			t.Errorf("%s: %d slots, want %d", tc.name, len(op.table.slots), slotsFor(n))
		}
		op.Close()
	}
}

// spillVictim is a revocable that records whether it was asked to spill.
type spillVictim struct{ asked bool }

func (v *spillVictim) RevocableBytes() int64  { return 1 << 20 }
func (v *spillVictim) ExecutionNanos() int64  { return 0 }
func (v *spillVictim) Revoke() (int64, error) { v.asked = true; return 0, nil }

// TestPresizeIsAHint: an estimate sizes the first table only when its bytes
// are free, within a quarter of the query's per-node limit and under the
// group ceiling; otherwise the table starts empty exactly as with no
// estimate, and nothing is asked to make room. Only the first table is
// presized: a revocation gives the presized arrays back and what follows
// starts empty.
func TestPresizeIsAHint(t *testing.T) {
	empty := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, true, 0, 0)
	emptySlots := len(empty.table.slots)
	sized := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, true, 0, 1000)
	limit := walkAgg(sized) * 4 // 1000 groups take a quarter of it
	sized.Close()
	for _, tc := range []struct {
		name     string
		groups   int
		limit    int64 // per-node user limit, 0 none
		poolFree int64 // general pool bytes left free, 0 plenty
		presized bool
	}{
		{"no estimate", 0, 0, 0, false},
		{"fits", 1000, limit, 0, true},
		{"over a quarter of the per-node limit", 1001, limit, 0, false},
		{"over the group ceiling", maxPresizedGroups, 0, 0, false},
		{"pool full", 1000, 0, 1024, false},
	} {
		pool := memory.NewNodePool(1<<30, 0)
		victim := &spillVictim{}
		pool.RegisterRevocable("other", victim)
		if tc.poolFree > 0 {
			if err := pool.Reserve("other", memory.User, pool.GeneralLimit()-tc.poolFree, false); err != nil {
				t.Fatal(err)
			}
		}
		q := memory.NewQueryContext("q", memory.QueryLimits{PerNodeUser: tc.limit, SpillEnabled: true}, map[int]*memory.NodePool{0: pool})
		ctx := &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}
		op := NewHashAggregation(ctx, []int{0}, []types.Type{types.Bigint}, threeAggs, true, 0, tc.groups)
		presized := len(op.table.slots) > emptySlots
		if presized != tc.presized {
			t.Errorf("%s: presized %v, want %v", tc.name, presized, tc.presized)
		}
		if held := ctx.Mem.Held(); presized != (held > 0) || presized && held > tc.limit/4 && tc.limit > 0 {
			t.Errorf("%s: %d bytes reserved (per-node limit %d)", tc.name, held, tc.limit)
		}
		if victim.asked {
			t.Errorf("%s: presizing asked another operator to spill", tc.name)
		}
		if presized {
			// A revocation before any group arrived gives the arrays back, and
			// the table that follows starts empty.
			if freed, err := op.Revoke(); err != nil || freed == 0 || ctx.Mem.Held() != 0 {
				t.Errorf("%s: revoking the empty presized table freed %d (%v), %d still held", tc.name, freed, err, ctx.Mem.Held())
			}
			if len(op.table.slots) != emptySlots {
				t.Errorf("%s: after a revocation the table has %d slots, want %d", tc.name, len(op.table.slots), emptySlots)
			}
		}
		op.Close()
	}
}

// TestFinishedAggregationDropsItsTable: once its groups are rendered into
// output pages the aggregation lets go of its table, where it used to build a
// fresh one (a presized one, now) it would never fill; the same at Close and
// at the end of a spilled drain.
func TestFinishedAggregationDropsItsTable(t *testing.T) {
	for _, spill := range []bool{false, true} {
		op := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, spill, 0, 5000)
		fixedKeyPages(t, 5000, op.AddInput)
		if spill {
			if _, err := op.Revoke(); err != nil {
				t.Fatal(err)
			}
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
		if rows != 5000 {
			t.Errorf("spill %v: %d rows out, want 5000", spill, rows)
		}
		if op.table != nil || op.accs[0].count != nil {
			t.Errorf("spill %v: a finished aggregation still holds a table", spill)
		}
		op.Close()
		if op.table != nil {
			t.Errorf("spill %v: Close left a table", spill)
		}
	}
}

// BenchmarkKeyTableFixed1 prices the single-bigint-key table the aggregation
// and the join build use: 120 000 rows into 30 000 groups from an empty table
// and from one presized for them; 120 000 rows into 3 000 and 120 000 groups
// from an empty table, hashed (the hash, then getOrInsertFixed1) and direct
// (fit, then findDirect and insertDirect), as the aggregation enters a page;
// and, into tables of 3 000, 30 000 and 120 000 entries, a lookup as a hashed
// join build's probe makes it (the hash, then lookupFixed1) and as a direct
// one's does (lookupDirect, over the same keys linked as the join build links
// them).
func BenchmarkKeyTableFixed1(b *testing.B) {
	const rows, groups = 120_000, 30_000
	hashes, cells := make([]uint64, rows), make([]uint64, rows)
	for r := range hashes {
		cells[r] = uint64(r*7919) % groups
		hashes[r] = block.HashCell(block.CellLong, cells[r])
	}
	for _, sized := range []int{0, groups} {
		b.Run(fmt.Sprintf("insert/presized=%d", sized), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := newKeyTable(&tableLease{}, bigintKey, sized)
				for r := range hashes {
					t.getOrInsertFixed1(hashes[r], cells[r], block.CellLong)
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	for _, keys := range []int{3_000, 120_000} {
		cells := make([]uint64, rows)
		for r := range cells {
			cells[r] = uint64(r*7919) % uint64(keys)
		}
		b.Run(fmt.Sprintf("insert/hashed/keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := newKeyTable(&tableLease{}, bigintKey, 0)
				for _, c := range cells {
					t.getOrInsertFixed1(block.HashCell(block.CellLong, c), c, block.CellLong)
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("insert/direct/keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := newKeyTable(&tableLease{}, bigintKey, 0)
				if !t.fit(0, int64(keys-1), rows) {
					b.Fatal("a dense key is hashed")
				}
				for _, c := range cells {
					if t.findDirect(c) < 0 {
						t.insertDirect(c)
					}
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	for _, entries := range []int{3_000, 30_000, 120_000} {
		b.Run(fmt.Sprintf("lookup/entries=%d", entries), func(b *testing.B) {
			t := newKeyTable(&tableLease{}, bigintKey, entries)
			for k := 0; k < entries; k++ {
				t.getOrInsertFixed1(block.HashCell(block.CellLong, uint64(k)), uint64(k), block.CellLong)
			}
			probe := make([]uint64, rows)
			for r := range probe {
				probe[r] = uint64(r*7919) % uint64(entries)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range probe {
					if t.lookupFixed1(block.HashCell(block.CellLong, k), k, block.CellLong) < 0 {
						b.Fatal("missing key")
					}
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("direct/entries=%d", entries), func(b *testing.B) {
			t := newKeyTable(&tableLease{}, bigintKey, entries)
			for k := 0; k < entries; k++ {
				t.cells, t.tags = append(t.cells, uint64(k)), append(t.tags, block.CellLong)
			}
			t.n = entries
			if t.index(); !t.direct {
				b.Fatal("a dense key is hashed")
			}
			for e := entries - 1; e >= 0; e-- {
				t.link(e)
			}
			probe := make([]uint64, rows)
			for r := range probe {
				probe[r] = uint64(r*7919) % uint64(entries)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range probe {
					if t.lookupDirect(k, block.CellLong) < 0 {
						b.Fatal("missing key")
					}
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkKeyTableVarchar prices the VARCHAR key table: 120 000 rows of
// eleven-byte keys into 3 000 and 120 000 groups from an empty table (the
// cell, then getOrInsert, which keeps a new key's bytes), and a lookup of the
// same rows in the filled table, which compares the bytes of an equal cell.
func BenchmarkKeyTableVarchar(b *testing.B) {
	const rows = 120_000
	for _, keys := range []int{3_000, 120_000} {
		strs, cells := make([]string, rows), make([]uint64, rows)
		for r := range strs {
			strs[r] = fmt.Sprintf("key-%07d", r*7919%keys)
			cells[r] = block.VarPayload(strs[r])
		}
		tags := []byte{block.CellVarchar}
		fill := func() *keyTable {
			t := newKeyTable(&tableLease{}, []types.Type{types.Varchar}, 0)
			for r, s := range strs {
				t.getOrInsert(block.HashCell(block.CellVarchar, cells[r]), cells[r:r+1], tags, []string{s})
			}
			return t
		}
		b.Run(fmt.Sprintf("insert/keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fill()
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("lookup/keys=%d", keys), func(b *testing.B) {
			t := fill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, s := range strs {
					if t.lookup(block.HashCell(block.CellVarchar, cells[r]), cells[r:r+1], tags, []string{s}) < 0 {
						b.Fatal("missing key")
					}
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
