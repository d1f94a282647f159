package operators

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/plan"
	"repro/internal/types"
)

// directCase is one build and probe of TestDirectJoinIndexMatchesHashed: the
// key values of the build rows and of the probe rows (nil: NULL), the key
// types, and whether the build's key table is to be direct.
type directCase struct {
	name           string
	buildT, probeT types.Type
	build, probe   []any // int64, float64 or nil
	direct         bool
}

// keyValue is v, an int64, a float64 or nil (NULL), as a value of type t.
func keyValue(t types.Type, v any) types.Value {
	switch v := v.(type) {
	case nil:
		return types.NullValue(t)
	case float64:
		return types.DoubleValue(v)
	case int64:
		if t == types.Double {
			return types.DoubleValue(float64(v))
		}
		return types.Value{T: t, I: v}
	}
	panic(fmt.Sprintf("key %v", v))
}

// directBuildPages puts the build keys on pages of at most seven rows: the
// key, the row's position, and a VARCHAR under a dictionary of the page's own
// with a NULL entry, which the outer joins gather through it.
func directBuildPages(c directCase) []*block.Page {
	var pages []*block.Page
	for at := 0; at < len(c.build); at += 7 {
		n := min(7, len(c.build)-at)
		keys, pos, idx := make([]types.Value, n), make([]int64, n), make([]int32, n)
		for r := range n {
			keys[r], pos[r], idx[r] = keyValue(c.buildT, c.build[at+r]), int64(at+r), int32((at+r)%3)
		}
		dict := block.NewVarcharBlock([]string{fmt.Sprintf("p%d", at), "", "x"}, []bool{false, true, false})
		pages = append(pages, block.NewPage(block.BuildBlock(c.buildT, keys), block.NewLongBlock(pos, nil), &block.DictionaryBlock{Dict: dict, Indices: idx}))
	}
	return pages
}

// directProbePages gives the probe keys three ways, each row numbered in
// column 1: one flat page; a dictionary page over the keys, every entry
// referenced twice, in reverse; and a run of the first key. The two encoded
// pages resolve row by row through keyRow.
func directProbePages(c directCase) []*block.Page {
	n := len(c.probe)
	keys := make([]types.Value, n)
	for r, v := range c.probe {
		keys[r] = keyValue(c.probeT, v)
	}
	ids := func(from, n int) *block.LongBlock {
		v := make([]int64, n)
		for r := range v {
			v[r] = int64(from + r)
		}
		return block.NewLongBlock(v, nil)
	}
	idx := make([]int32, 2*n)
	for r := range idx {
		idx[r] = int32(n - 1 - r%n)
	}
	return []*block.Page{
		block.NewPage(block.BuildBlock(c.probeT, keys), ids(0, n)),
		block.NewPage(&block.DictionaryBlock{Dict: block.BuildBlock(c.probeT, keys), Indices: idx}, ids(n, 2*n)),
		block.NewPage(block.NewRLEBlock(keys[0], 3), ids(3*n, 3)),
	}
}

// directRun is one join of c's pages, its key table hashed or left to choose:
// the key table as built (the last probe gives it back), what the probe read
// and what the join emitted.
type directRun struct {
	indexed, direct bool
	keys            int
	next            []int32
	ids             [][]int32 // every probe page's first build positions
	rows            [][]types.Value
	sums            []*dynfilter.Summary
}

// runDirect builds c's pages into a bridge, with a dynamic-filter collector,
// and probes it as join type jt.
func runDirect(t *testing.T, c directCase, jt plan.JoinType, hashed bool) directRun {
	t.Helper()
	hashEveryIndex.Store(hashed)
	defer hashEveryIndex.Store(false)
	var run directRun
	build, probe := directBuildPages(c), directProbePages(c)
	buildTs := []types.Type{c.buildT, types.Bigint, types.Varchar}
	probeTs := []types.Type{c.probeT, types.Bigint}

	bridge := NewJoinBridge()
	col := dynfilter.NewCollector([]dynfilter.ColumnSpec{{ID: 1, T: c.buildT}})
	bridge.SetFilterCollector(col, func(s []*dynfilter.Summary) { run.sums = s })
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, []types.Type{c.buildT})
	for _, p := range build {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	if kt := bridge.ktab; kt != nil {
		run.indexed, run.direct, run.keys, run.next = true, kt.direct, kt.keys, slices.Clone(bridge.next)
	}

	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, jt, []int{0}, nil, probeTs, buildTs, 0)
	op.tab = bridge.builtTable
	for _, p := range probe {
		run.ids = append(run.ids, slices.Clone(op.resolveProbe(p)))
	}
	run.rows = drainRows(t, op, probe...)
	return run
}

// sameSummaries holds the direct build's filter summaries to the hashed one's:
// row count, points, Bloom filter and bounds.
func sameSummaries(t *testing.T, name string, got, want []*dynfilter.Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d summaries, hashed %d", name, len(got), len(want))
	}
	set := func(s *dynfilter.Summary) []string {
		var out []string
		for _, v := range s.Points() {
			out = append(out, v.String())
		}
		slices.Sort(out)
		return out
	}
	for i, g := range got {
		w := want[i]
		gmin, gmax, gok := g.Bounds()
		wmin, wmax, wok := w.Bounds()
		if g.Disabled != w.Disabled || g.Rows != w.Rows || !slices.Equal(set(g), set(w)) ||
			!slices.Equal(g.Bloom, w.Bloom) || gok != wok || g.BoundsPoisoned != w.BoundsPoisoned ||
			gmin.T != wmin.T || gmin.String() != wmin.String() || gmax.T != wmax.T || gmax.String() != wmax.String() {
			t.Errorf("%s: summary rows %d set %v bounds %v..%v (%v), hashed rows %d set %v bounds %v..%v (%v)",
				name, g.Rows, set(g), gmin, gmax, gok, w.Rows, set(w), wmin, wmax, wok)
		}
	}
}

// TestDirectJoinIndexMatchesHashed: a build over a dense integer key is
// indexed directly, and joins exactly as the same build hashed — the same
// first positions for every probe row (flat, dictionary and RLE pages), the
// same chains, the same rows in the same order for every join type, and the
// same dynamic-filter summary — and so do the partitions of a build revoked
// to disk. A key that is not an integer, or whose span passes the slot array,
// stays hashed: the slot array of ten rows has 16 slots, so keys -3 and 12 are
// direct and -3 and 13 are not.
func TestDirectJoinIndexMatchesHashed(t *testing.T) {
	const maxI, minI = int64(math.MaxInt64), int64(math.MinInt64)
	dense := make([]any, 300) // 300 rows over keys -50..149, some NULL
	for i := range dense {
		if dense[i] = int64(i*37%200 - 50); i%23 == 0 {
			dense[i] = nil
		}
	}
	denseProbe := []any{int64(-50), int64(-51), int64(0), int64(149), int64(150), int64(77), nil, int64(-1)}
	ten := func(lo, hi int64) []any {
		return []any{lo, int64(2), hi, int64(0), nil, int64(5), lo, int64(7), int64(2), int64(9)}
	}
	bi, dt, db := types.Bigint, types.Date, types.Double
	cases := []directCase{
		{"negative keys", bi, bi, []any{int64(-5), int64(-3), int64(-3), int64(-1), int64(-5), nil}, []any{int64(-5), int64(-4), int64(-3), int64(0), nil, int64(-1)}, true},
		{"range spanning zero", bi, bi, dense, denseProbe, true},
		{"int64 extremes", bi, bi, []any{minI, maxI, int64(0)}, []any{minI, maxI, int64(0), int64(1), minI + 1}, false},
		{"near the top", bi, bi, []any{maxI - 3, maxI, maxI}, []any{maxI, maxI - 3, maxI - 1, minI, minI + 1, int64(0)}, true},
		{"near the bottom", bi, bi, []any{minI, minI + 2}, []any{minI, minI + 2, maxI, maxI - 13, int64(-1)}, true},
		{"NULL keys", bi, bi, []any{nil, int64(4), nil, int64(6)}, []any{nil, int64(4), int64(5), int64(6), nil}, true},
		{"all NULL keys", bi, bi, []any{nil, nil}, []any{nil, int64(0)}, false},
		{"repeated keys", bi, bi, []any{int64(3), int64(3), int64(1), int64(3), int64(1), int64(3), int64(3), int64(2), int64(3)}, []any{int64(3), int64(1), int64(2), int64(4), int64(3)}, true},
		{"DATE keys", dt, dt, []any{int64(18000), int64(18004), int64(18001), int64(18004)}, []any{int64(18004), int64(17999), int64(18001), nil}, true},
		{"integral DOUBLE probe, BIGINT build", bi, db, []any{int64(1), int64(2), int64(3), int64(0)}, []any{1.0, 2.5, 3.0, math.Copysign(0, -1), math.NaN(), -1.0}, true},
		{"integral DOUBLE build", db, db, []any{1.0, 4.0, 2.0, math.Copysign(0, -1)}, []any{4.0, 0.0, 1.5, 2.0}, true},
		{"non-integral DOUBLE build", db, db, []any{1.0, 2.5, 3.0}, []any{2.5, 1.0, 3.0, 2.0}, false},
		{"range at the slot bound", bi, bi, ten(-3, 12), []any{int64(-3), int64(12), int64(13), int64(-4), int64(5), int64(1)}, true},
		{"range past the slot bound", bi, bi, ten(-3, 13), []any{int64(-3), int64(13), int64(12), int64(-4), int64(5), int64(1)}, false},
		{"empty build", bi, bi, nil, []any{int64(1), nil}, false},
		{"one-row build", bi, bi, []any{int64(42)}, []any{int64(42), int64(41), int64(43), nil}, true},
	}
	for _, c := range cases {
		for _, jc := range allJoinTypes {
			name := c.name + "/" + jc.name
			direct, hashed := runDirect(t, c, jc.jt, false), runDirect(t, c, jc.jt, true)
			if direct.indexed != (len(c.build) > 0) || hashed.indexed != direct.indexed {
				t.Fatalf("%s: a build of %d rows has key tables %v and %v", name, len(c.build), direct.indexed, hashed.indexed)
			}
			if direct.direct != c.direct || hashed.direct || direct.keys != hashed.keys {
				t.Fatalf("%s: direct %v (want %v), forced hashed %v, keys %d and %d", name, direct.direct, c.direct, hashed.direct, direct.keys, hashed.keys)
			}
			for pg := range direct.ids {
				if !slices.Equal(direct.ids[pg], hashed.ids[pg]) {
					t.Errorf("%s: probe page %d resolves to %v, hashed to %v", name, pg, direct.ids[pg], hashed.ids[pg])
				}
			}
			if !slices.Equal(direct.next, hashed.next) {
				t.Errorf("%s: chains %v, hashed %v", name, direct.next, hashed.next)
			}
			if len(direct.rows) != len(hashed.rows) {
				t.Fatalf("%s: %d rows, hashed %d", name, len(direct.rows), len(hashed.rows))
			}
			for i := range direct.rows {
				if rowText(direct.rows[i]) != rowText(hashed.rows[i]) {
					t.Fatalf("%s: row %d is %v, hashed %v", name, i, direct.rows[i], hashed.rows[i])
				}
			}
			ts := []types.Type{c.probeT, types.Bigint}
			want := refJoin(t, jc.jt, directBuildPages(c), directProbePages(c), []int{0}, []int{0}, nil, ts, []types.Type{c.buildT, types.Bigint, types.Varchar})
			got := map[string]int{}
			for _, row := range direct.rows {
				got[rowText(row)]++
			}
			assertSameCounts(t, name, got, want)
			if jc.jt == plan.InnerJoin {
				arrivalOrderPairs(t, name, direct.rows, 1, 3)
			}
			sameSummaries(t, name, direct.sums, hashed.sums)
		}
	}
	t.Run("revoked to disk", directSpilledPartitions)
}

// directSpilledPartitions: a build revoked to disk is rebuilt partition by
// partition, and each partition's key table chooses its own addressing, which
// the build's stats count. Twenty keys under twenty rows each put every
// partition's keys within its slot array, so the partitions are direct (one
// holding only NULL keys aside); forced hashed, none is, and the rows agree.
func directSpilledPartitions(t *testing.T) {
	build, probe := joinSpillPages(4, 100, 20, 0), joinSpillPages(3, 50, 25, 5)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	for _, jc := range allJoinTypes {
		run := func(hashed bool) ([][]types.Value, OpStatsSnapshot) {
			hashEveryIndex.Store(hashed)
			defer hashEveryIndex.Store(false)
			bridge := NewJoinBridge()
			bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, rowTs[:1])
			bridge.AddBuilder()
			ctx := NopContext()
			hb := NewHashBuild(ctx, bridge, []int{0}, rowTs[:1])
			for _, p := range build {
				if err := hb.AddInput(p); err != nil {
					t.Fatal(err)
				}
				if _, err := bridge.Revoke(); err != nil {
					t.Fatal(err)
				}
			}
			hb.Finish()
			bridge.NoMoreBuilders()
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, jc.jt, []int{0}, nil, rowTs, rowTs, 0)
			rows := drainRows(t, op, probe...)
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			bridge.ReleaseSpill()
			if bridge.SpillCount() == 0 {
				t.Fatalf("%s: the build did not spill", jc.name)
			}
			return rows, ctx.Stats.Snapshot()
		}
		direct, dst := run(false)
		hashed, hst := run(true)
		if dst.DirectIndexes == 0 || hst.DirectIndexes != 0 || hst.HashedIndexes != dst.DirectIndexes+dst.HashedIndexes {
			t.Errorf("%s: partitions direct/hashed %d/%d, forced hashed %d/%d", jc.name, dst.DirectIndexes, dst.HashedIndexes, hst.DirectIndexes, hst.HashedIndexes)
		}
		if len(direct) != len(hashed) {
			t.Fatalf("%s: %d rows, hashed %d", jc.name, len(direct), len(hashed))
		}
		for i := range direct {
			if rowText(direct[i]) != rowText(hashed[i]) {
				t.Fatalf("%s: row %d is %v, hashed %v", jc.name, i, direct[i], hashed[i])
			}
		}
	}
}

// TestDirectProbeReadsKeysInPlace: the probe of a direct index reads a flat
// bigint key column, or a selection over one, where it lies (flatLongs), and
// finds for every row, NULL included, the build position the hashed index
// finds.
func TestDirectProbeReadsKeysInPlace(t *testing.T) {
	ts := []types.Type{types.Bigint}
	build := block.NewPage(block.NewLongBlock([]int64{3, 5, 4, 3, 8}, nil))
	src := block.NewLongBlock([]int64{5, 9, 3, 0, 4, 7, 8, -1}, []bool{false, false, false, true, false, false, false, false})
	probes := []*block.Page{
		block.NewPage(src),
		block.NewPage(&block.SelectedBlock{Src: src, Sel: []int{5, 3, 0, 2, 7, 4, 6}}),
		block.NewPage(&block.SelectedBlock{Src: block.NewLongBlock([]int64{8, 2, 3}, nil), Sel: []int{2, 0, 1}}),
	}
	run := func(hashed bool) (bool, [][]int32) {
		hashEveryIndex.Store(hashed)
		defer hashEveryIndex.Store(false)
		bridge := NewJoinBridge()
		bridge.AddBuilder()
		hb := NewHashBuild(NopContext(), bridge, []int{0}, ts)
		if err := hb.AddInput(build); err != nil {
			t.Fatal(err)
		}
		hb.Finish()
		bridge.NoMoreBuilders()
		bridge.AddProbe()
		bridge.NoMoreProbes()
		op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
		op.tab = bridge.builtTable
		var ids [][]int32
		for _, p := range probes {
			ids = append(ids, slices.Clone(op.resolveProbe(p)))
		}
		return bridge.ktab.direct, ids
	}
	direct, got := run(false)
	hashed, want := run(true)
	if !direct || hashed {
		t.Fatalf("index direct %v, forced hashed %v", direct, hashed)
	}
	for pg := range want {
		if !slices.Equal(got[pg], want[pg]) {
			t.Errorf("probe page %d resolves to %v, hashed to %v", pg, got[pg], want[pg])
		}
	}
}
