package dynfilter

import (
	"math"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// Key normalization must match the join hash table: a filter that disagrees
// with the join about which values are equal either drops matching rows
// (wrong results) or is useless. These tests pin the documented contract.

func TestSummaryDoubleIntNormalization(t *testing.T) {
	s := NewSummary(types.Bigint)
	s.AddLong(5)
	if !matchLong(s, 5) {
		t.Error("exact long key missed")
	}
	if !matchDouble(s, 5.0) {
		t.Error("5.0 must share the cell of bigint 5 (double==int joins)")
	}
	if matchDouble(s, 5.5) {
		t.Error("5.5 matched an integer-only build")
	}
	if matchLong(s, 6) {
		t.Error("absent key matched")
	}
}

func TestSummaryNegativeZeroFoldsToZero(t *testing.T) {
	s := NewSummary(types.Double)
	s.AddDouble(math.Copysign(0, -1))
	if !matchDouble(s, 0.0) {
		t.Error("+0.0 probe missed a -0.0 build key")
	}
	if !matchLong(s, 0) {
		t.Error("bigint 0 probe missed a -0.0 build key")
	}
	if !matchDouble(s, math.Copysign(0, -1)) {
		t.Error("-0.0 probe missed itself")
	}
}

func TestSummaryNaNMatchesAndPoisonsBounds(t *testing.T) {
	s := NewSummary(types.Double)
	s.AddDouble(1.5)
	if !s.HasBounds {
		t.Fatal("bounds unset after first key")
	}
	s.AddDouble(math.NaN())
	if !matchDouble(s, math.NaN()) {
		t.Error("NaN probe missed a NaN build key (join matches NaN==NaN via bits)")
	}
	if s.HasBounds || !s.BoundsPoisoned {
		t.Errorf("NaN must poison bounds: HasBounds=%v BoundsPoisoned=%v", s.HasBounds, s.BoundsPoisoned)
	}
	if _, _, ok := s.Bounds(); ok {
		t.Error("Bounds() reported ok after NaN poison")
	}
	// Later keys must not resurrect the bounds.
	s.AddDouble(7.0)
	if s.HasBounds {
		t.Error("bounds resurrected after poison")
	}
}

// matchLong, matchDouble, matchBool and matchStr are the membership test the
// probe leaf (expr's compileDynFilter) runs on a value of each type.
func matchLong(s *Summary, v int64) bool     { return s.Has(block.CellLong, uint64(v)) }
func matchDouble(s *Summary, f float64) bool { return s.Has(block.NormDouble(f)) }
func matchStr(s *Summary, v string) bool     { return s.Has(block.CellVarchar, block.VarPayload(v)) }

func matchBool(s *Summary, b bool) bool {
	if b {
		return s.Has(block.CellBool, 1)
	}
	return s.Has(block.CellBool, 0)
}

// hasPoints reports whether s still carries its keys as points.
func hasPoints(s *Summary) bool { return s.Points() != nil }

// samePoints reports whether a and b are the same points in the same order.
func samePoints(a, b []types.Value) bool { return slices.EqualFunc(a, b, types.Value.Equal) }

// TestSummaryNullsNeverCollected: a NULL build key is skipped. (A NULL probe
// value never passes either: the probe leaf, expr's compileDynFilter, tests
// only non-NULL values.)
func TestSummaryNullsNeverCollected(t *testing.T) {
	s := NewSummary(types.Bigint)
	s.addRow(block.NewLongBlock([]int64{0}, []bool{true}), 0)
	if s.Rows != 0 || !s.Empty() || matchLong(s, 0) {
		t.Errorf("NULL build key was collected: rows=%d empty=%v", s.Rows, s.Empty())
	}
}

// TestSummaryPointsOverflowFallBackToBounds: past MaxPushdownPoints distinct
// keys a summary keeps no points, so pruning falls back to its bounds, and
// its Bloom filter still matches every key.
func TestSummaryPointsOverflowFallBackToBounds(t *testing.T) {
	s := NewSummary(types.Bigint)
	for i := int64(0); i < MaxPushdownPoints; i++ {
		s.AddLong(i * 7)
		s.AddLong(i * 7) // a repeated key is one point
	}
	if got := s.Points(); len(got) != MaxPushdownPoints || got[0].I != 0 || got[len(got)-1].I != 7*(MaxPushdownPoints-1) {
		t.Fatalf("%d points, want %d ascending", len(got), MaxPushdownPoints)
	}
	s.AddLong(-1)
	if hasPoints(s) {
		t.Fatal("points survived the key past MaxPushdownPoints")
	}
	// Bloom may false-positive but must never false-negative.
	for i := int64(0); i < MaxPushdownPoints; i++ {
		if !matchLong(s, i*7) {
			t.Fatalf("bloom false negative for %d", i*7)
		}
	}
	// Bounds survive the overflow.
	min, max, ok := s.Bounds()
	if !ok || min.I != -1 || max.I != 7*(MaxPushdownPoints-1) {
		t.Errorf("bounds after overflow: [%v, %v] ok=%v", min, max, ok)
	}
}

func TestSummaryVarcharKeys(t *testing.T) {
	s := NewSummary(types.Varchar)
	s.AddStr("bb")
	s.AddStr("aa")
	if !matchStr(s, "aa") || matchStr(s, "cc") {
		t.Error("varchar Bloom filter wrong")
	}
	if matchLong(s, 1) {
		t.Error("long probe matched a varchar build")
	}
	if got := s.Points(); len(got) != 2 || got[0].S != "aa" || got[1].S != "bb" {
		t.Errorf("points %v, want [aa bb]", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	a := NewSummary(types.Bigint)
	a.AddLong(1)
	a.AddLong(5)
	b := NewSummary(types.Bigint)
	b.AddLong(3)
	b.AddLong(-2)
	a.Merge(b)
	for _, k := range []int64{1, 5, 3, -2} {
		if !matchLong(a, k) {
			t.Errorf("merged summary missing %d", k)
		}
	}
	if a.Rows != 4 {
		t.Errorf("merged rows %d, want 4", a.Rows)
	}
	min, max, ok := a.Bounds()
	if !ok || min.I != -2 || max.I != 5 {
		t.Errorf("merged bounds [%v, %v] ok=%v, want [-2, 5]", min, max, ok)
	}
}

func TestSummaryMergeDisablesOnMismatch(t *testing.T) {
	a := NewSummary(types.Bigint)
	a.AddLong(1)
	b := NewSummary(types.Varchar)
	a.Merge(b)
	if !a.Disabled {
		t.Error("type-mismatched merge did not disable")
	}

	c := NewSummary(types.Bigint)
	c.AddLong(1)
	d := NewSummary(types.Bigint)
	d.Disabled = true
	c.Merge(d)
	if !c.Disabled {
		t.Error("disabled input did not disable the union")
	}
	if c.Empty() {
		t.Error("disabled summary reported Empty (would wrongly short-circuit)")
	}
}

func TestSummaryMergePropagatesPoison(t *testing.T) {
	a := NewSummary(types.Double)
	a.AddDouble(1.0)
	b := NewSummary(types.Double)
	b.AddDouble(math.NaN())
	a.Merge(b)
	if a.HasBounds || !a.BoundsPoisoned {
		t.Errorf("poison lost in merge: HasBounds=%v BoundsPoisoned=%v", a.HasBounds, a.BoundsPoisoned)
	}
}

// TestSummaryMergePointsOverflowKeepsNone: a union whose points pass
// MaxPushdownPoints keeps none, and so does one with a side that has none;
// its Bloom filter holds both sides' keys.
func TestSummaryMergePointsOverflowKeepsNone(t *testing.T) {
	half := func(from int64) *Summary {
		s := NewSummary(types.Bigint)
		for i := range int64(MaxPushdownPoints/2 + 1) {
			s.AddLong(from + i)
		}
		return s
	}
	a := half(0)
	a.Merge(half(1000))
	if hasPoints(a) {
		t.Errorf("a union of %d points kept them", MaxPushdownPoints+2)
	}
	for _, k := range []int64{0, MaxPushdownPoints / 2, 1000, 1000 + MaxPushdownPoints/2} {
		if !matchLong(a, k) {
			t.Errorf("merged bloom false negative for %d", k)
		}
	}
	b := NewSummary(types.Bigint)
	b.AddLong(1)
	b.Merge(a)
	if hasPoints(b) {
		t.Error("a union with a side that has no points kept some")
	}
}

// collect runs a Collector over the distinct keys of one bigint key column,
// as the cells of a key table's entries.
func collect(c *Collector, rows int64, keys []int64) {
	cells, tags := make([]uint64, len(keys)), make([]byte, len(keys))
	for e, k := range keys {
		cells[e], tags[e] = uint64(k), block.CellLong
	}
	c.CollectCells(rows, len(keys), 1, cells, tags, nil, nil, everyEntry(len(keys)))
}

// everyEntry visits entries 0..n-1, as a join build visits one entry per
// distinct key.
func everyEntry(n int) func(visit func(int)) {
	return func(visit func(int)) {
		for e := range n {
			visit(e)
		}
	}
}

// TestCollectorSummarizesDistinctKeys: the collector sees each distinct key
// once and is told the row count; what it publishes matches every key, keeps
// the points up to MaxPushdownPoints, and reports the build's rows, not its
// keys.
func TestCollectorSummarizesDistinctKeys(t *testing.T) {
	specs := []ColumnSpec{{ID: 7, KeyIdx: 0, T: types.Bigint}}
	c := NewCollector(specs)
	collect(c, 40, []int64{5, -3, 12})
	s := c.Summaries()[0]
	if got := s.Points(); s.Rows != 40 || s.Empty() || len(got) != 3 || got[0].I != -3 || got[2].I != 12 {
		t.Errorf("rows %d empty %v points %v, want 40 false [-3 5 12]", s.Rows, s.Empty(), got)
	}
	for _, k := range []int64{5, -3, 12} {
		if !matchLong(s, k) {
			t.Errorf("key %d missing", k)
		}
	}
	if min, max, ok := s.Bounds(); matchLong(s, 6) || !ok || min.I != -3 || max.I != 12 {
		t.Errorf("absent key matched, or bounds [%v, %v] ok=%v", min, max, ok)
	}

	// More distinct keys than MaxPushdownPoints on a single key column: the
	// points are known to overflow and are never collected; bloom and bounds
	// still answer.
	many := make([]int64, MaxPushdownPoints+1)
	for i := range many {
		many[i] = int64(i * 3)
	}
	c = NewCollector(specs)
	collect(c, int64(len(many)), many)
	if s = c.Summaries()[0]; hasPoints(s) || s.Disabled {
		t.Errorf("overflowed summary: points %v disabled %v", hasPoints(s), s.Disabled)
	}
	for _, k := range many {
		if !matchLong(s, k) {
			t.Fatalf("bloom false negative for %d", k)
		}
	}

	// No build row at all: the summary stays empty and short-circuits.
	c = NewCollector(specs)
	if s = c.Summaries()[0]; !s.Empty() || matchLong(s, 1) {
		t.Error("an uncollected summary is not the empty one")
	}
	// Too many rows, or a spilled build: never filter.
	c = NewCollector(specs)
	c.MaxRows = 10
	collect(c, 11, []int64{1})
	if !c.Summaries()[0].Disabled {
		t.Error("a build past MaxRows still filters")
	}
}

// TestCollectorTwoKeyColumns: distinct key tuples repeat a column's values;
// the summary of each column holds each value once.
func TestCollectorTwoKeyColumns(t *testing.T) {
	longs, strs := []int64{1, 1, 2, 2}, []string{"a", "b", "a", "b"}
	var cells []uint64
	var tags []byte
	for e := range longs {
		cells = append(cells, uint64(longs[e]), block.VarPayload(strs[e]))
		tags = append(tags, block.CellLong, block.CellVarchar)
	}
	str := func(e, k int) string { return strs[e] }
	c := NewCollector([]ColumnSpec{{ID: 1, KeyIdx: 0, T: types.Bigint}, {ID: 2, KeyIdx: 1, T: types.Varchar}})
	c.CollectCells(9, 4, 2, cells, tags, str, nil, everyEntry(4))
	ls, ss := c.Summaries()[0], c.Summaries()[1]
	if len(ls.Points()) != 2 || len(ss.Points()) != 2 || ls.Rows != 9 || ss.Rows != 9 {
		t.Errorf("%d and %d points over %d and %d rows, want 2 and 2 over 9 and 9", len(ls.Points()), len(ss.Points()), ls.Rows, ss.Rows)
	}
	if !matchLong(ls, 2) || matchLong(ls, 3) || !matchStr(ss, "b") || matchStr(ss, "c") {
		t.Error("two-column summaries match the wrong values")
	}
	if min, max, ok := ss.Bounds(); !ok || min.S != "a" || max.S != "b" {
		t.Errorf("varchar bounds [%v, %v] %v, want [a, b]", min, max, ok)
	}
}

// TestMergeIdenticalPointsIsOneList: the identical summaries every task of a
// broadcast build publishes union into one list of their points, and a
// union's later keys are never written into a published summary.
func TestMergeIdenticalPointsIsOneList(t *testing.T) {
	pub := NewSummary(types.Bigint)
	for k := int64(0); k < 20; k++ {
		pub.AddLong(k)
	}
	union := NewSummary(types.Bigint)
	union.Merge(pub)
	union.Merge(pub)
	if !samePoints(union.Points(), pub.Points()) || !slices.Equal(union.Bloom, pub.Bloom) {
		t.Errorf("a union of identical summaries has points %v, want %v", union.Points(), pub.Points())
	}
	other := NewSummary(types.Bigint)
	other.AddLong(99)
	union.Merge(other)
	if matchLong(pub, 99) || len(pub.Points()) != 20 {
		t.Error("a new key was written into the published summary")
	}
	for k := int64(0); k < 20; k++ {
		if !matchLong(union, k) {
			t.Errorf("union lost %d", k)
		}
	}
	if got := union.Points(); !matchLong(union, 99) || len(got) != 21 || got[20].I != 99 {
		t.Errorf("union of 21 keys has points %v, 99 in its Bloom: %v", got, matchLong(union, 99))
	}
}

// TestCollectCellsMatchesCollect: a build summarized from its key table's
// normalized cells — row count and bounds from every entry, the Bloom filter
// and the points from one entry per distinct key — is the summary the typed
// Add calls make of the same keys: the same Bloom filter, points, bounds and
// row count, -0.0 and integral doubles on their integer cells, NULL keys left
// out.
func TestCollectCellsMatchesCollect(t *testing.T) {
	vals := []float64{3, math.Copysign(0, -1), 2.5, 3, -7.25, 2.5}
	nulls := []bool{false, false, false, false, false, true}
	var cells []uint64
	var tags []byte
	for i, f := range vals {
		tag, payload := block.NormDouble(f)
		if nulls[i] {
			tag, payload = block.CellNull, 0
		}
		cells, tags = append(cells, payload), append(tags, tag)
	}
	specs := []ColumnSpec{{ID: 1, T: types.Double}}
	fromCells := NewCollector(specs)
	fromCells.CollectCells(5, 4, 1, cells, tags, nil, nil, func(visit func(int)) {
		for _, e := range []int{0, 1, 2, 4} { // each distinct key's first entry
			visit(e)
		}
	})
	b := NewSummary(types.Double)
	for _, f := range []float64{3, 0, 2.5, -7.25} {
		b.AddDouble(f)
	}
	b.Rows = 5 // the build's rows, as the collector is told them
	a := fromCells.Summaries()[0]
	if a.Rows != 5 || a.Rows != b.Rows || !samePoints(a.Points(), b.Points()) || len(a.Points()) != 4 || !slices.Equal(a.Bloom, b.Bloom) {
		t.Fatalf("cells: %d rows, points %v; added: %d rows, points %v; same Bloom %v", a.Rows, a.Points(), b.Rows, b.Points(), slices.Equal(a.Bloom, b.Bloom))
	}
	for _, f := range []float64{3, 0, math.Copysign(0, -1), 2.5, -7.25} {
		if !matchDouble(a, f) {
			t.Errorf("%v: a build key does not match", f)
		}
	}
	amin, amax, aok := a.Bounds()
	bmin, bmax, bok := b.Bounds()
	if !aok || !bok || amin.F != bmin.F || amax.F != bmax.F || amin.F != -7.25 || amax.F != 3 {
		t.Errorf("bounds from cells [%v, %v] %v, added [%v, %v] %v, want [-7.25, 3]", amin, amax, aok, bmin, bmax, bok)
	}

	// A NaN key poisons the bounds and drops the points; BIGINT cells are
	// their values.
	tag, payload := block.NormDouble(math.NaN())
	poisoned := NewCollector(specs)
	poisoned.CollectCells(2, 2, 1, []uint64{cells[0], payload}, []byte{tags[0], tag}, nil, nil, func(visit func(int)) { visit(0); visit(1) })
	if s := poisoned.Summaries()[0]; s.HasBounds || !s.BoundsPoisoned || hasPoints(s) || !matchDouble(s, math.NaN()) {
		t.Errorf("a NaN build key: bounds %v poisoned %v points %v, NaN matches %v", s.HasBounds, s.BoundsPoisoned, s.Points(), matchDouble(s, math.NaN()))
	}
	longs := NewCollector([]ColumnSpec{{ID: 1, T: types.Bigint}})
	minus := int64(-9)
	longs.CollectCells(3, 3, 1, []uint64{4, uint64(minus), 0}, []byte{block.CellLong, block.CellLong, block.CellNull}, nil, nil, func(visit func(int)) { visit(0); visit(1) })
	if min, max, ok := longs.Summaries()[0].Bounds(); !ok || min.I != -9 || max.I != 4 {
		t.Errorf("bigint bounds from cells [%v, %v] %v, want [-9, 4]", min, max, ok)
	}
}

// TestBoundedSummaryPrunesOnly: a summary only split and stripe pruning reads
// keeps its row count and bounds, and its points while the build has at most
// MaxPushdownPoints keys; it never holds a Bloom filter, and rules no value
// out. Relayed, the same summary is collected in full.
func TestBoundedSummaryPrunesOnly(t *testing.T) {
	keys := make([]int64, MaxPushdownPoints+1)
	for i := range keys {
		keys[i] = int64(10 * i)
	}
	for _, n := range []int{MaxPushdownPoints, MaxPushdownPoints + 1} {
		c := NewCollector([]ColumnSpec{{ID: 4, T: types.Bigint, Bounded: true}})
		collect(c, int64(n), keys[:n])
		s := c.Summaries()[0]
		min, max, ok := s.Bounds()
		if s.Rows != int64(n) || !ok || min.I != 0 || max.I != int64(10*(n-1)) || s.Bloom != nil || !matchLong(s, 5) {
			t.Errorf("%d keys: %d rows, bounds [%v, %v] %v, bloom %v, 5 matches %v", n, s.Rows, min, max, ok, s.Bloom != nil, matchLong(s, 5))
		}
		if wantPoints := n <= MaxPushdownPoints; hasPoints(s) != wantPoints {
			t.Errorf("%d keys: points %v; want them only up to %d keys", n, hasPoints(s), MaxPushdownPoints)
		}
	}
	c := NewCollector([]ColumnSpec{{ID: 4, T: types.Bigint, Bounded: true}})
	c.Relayed = func(id int) bool { return id == 4 }
	collect(c, int64(len(keys)), keys)
	if s := c.Summaries()[0]; s.Bloom == nil || matchLong(s, 5) || !matchLong(s, 10) {
		t.Error("a relayed summary was collected for pruning only")
	}
}
