package dynfilter

import (
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// Key normalization must match the join hash table: a filter that disagrees
// with the join about which values are equal either drops matching rows
// (wrong results) or is useless. These tests pin the documented contract.

func TestSummaryDoubleIntNormalization(t *testing.T) {
	s := NewSummary(types.Bigint)
	s.AddLong(5, DefaultMaxSet)
	if !s.MatchLong(5) {
		t.Error("exact long key missed")
	}
	if !s.MatchDouble(5.0) {
		t.Error("5.0 must share the cell of bigint 5 (double==int joins)")
	}
	if s.MatchDouble(5.5) {
		t.Error("5.5 matched an integer-only build")
	}
	if s.MatchLong(6) {
		t.Error("absent key matched")
	}
}

func TestSummaryNegativeZeroFoldsToZero(t *testing.T) {
	s := NewSummary(types.Double)
	s.AddDouble(math.Copysign(0, -1), DefaultMaxSet)
	if !s.MatchDouble(0.0) {
		t.Error("+0.0 probe missed a -0.0 build key")
	}
	if !s.MatchLong(0) {
		t.Error("bigint 0 probe missed a -0.0 build key")
	}
	if !s.MatchDouble(math.Copysign(0, -1)) {
		t.Error("-0.0 probe missed itself")
	}
}

func TestSummaryNaNMatchesAndPoisonsBounds(t *testing.T) {
	s := NewSummary(types.Double)
	s.AddDouble(1.5, DefaultMaxSet)
	if !s.HasBounds {
		t.Fatal("bounds unset after first key")
	}
	s.AddDouble(math.NaN(), DefaultMaxSet)
	if !s.MatchDouble(math.NaN()) {
		t.Error("NaN probe missed a NaN build key (join matches NaN==NaN via bits)")
	}
	if s.HasBounds || !s.BoundsPoisoned {
		t.Errorf("NaN must poison bounds: HasBounds=%v BoundsPoisoned=%v", s.HasBounds, s.BoundsPoisoned)
	}
	if _, _, ok := s.Bounds(); ok {
		t.Error("Bounds() reported ok after NaN poison")
	}
	// Later keys must not resurrect the bounds.
	s.AddDouble(7.0, DefaultMaxSet)
	if s.HasBounds {
		t.Error("bounds resurrected after poison")
	}
}

// hasExact reports whether s still carries its exact key set.
func hasExact(s *Summary) bool { return s.exact != nil || s.Strs != nil }

// TestSummaryNullsNeverCollected: a NULL build key is skipped. (A NULL probe
// value never passes either: the probe leaf, expr's compileDynFilter, tests
// only non-NULL values.)
func TestSummaryNullsNeverCollected(t *testing.T) {
	s := NewSummary(types.Bigint)
	s.addRow(block.NewLongBlock([]int64{0}, []bool{true}), 0, DefaultMaxSet)
	if s.Rows != 0 || !s.Empty() || s.MatchLong(0) {
		t.Errorf("NULL build key was collected: rows=%d empty=%v", s.Rows, s.Empty())
	}
}

func TestSummaryExactOverflowDegradesToBloom(t *testing.T) {
	const maxSet = 8
	s := NewSummary(types.Bigint)
	for i := int64(0); i < 100; i++ {
		s.AddLong(i*7, maxSet)
	}
	if hasExact(s) {
		t.Fatal("exact set survived overflow")
	}
	if s.ExactValues() != nil {
		t.Fatal("ExactValues non-nil after overflow")
	}
	// Bloom may false-positive but must never false-negative.
	for i := int64(0); i < 100; i++ {
		if !s.MatchLong(i * 7) {
			t.Fatalf("bloom false negative for %d", i*7)
		}
	}
	// Bounds survive the overflow.
	min, max, ok := s.Bounds()
	if !ok || min.I != 0 || max.I != 99*7 {
		t.Errorf("bounds after overflow: [%v, %v] ok=%v", min, max, ok)
	}
}

func TestSummaryVarcharKeys(t *testing.T) {
	s := NewSummary(types.Varchar)
	s.AddStr("aa", DefaultMaxSet)
	s.AddStr("bb", DefaultMaxSet)
	if !s.MatchStr("aa") || s.MatchStr("cc") {
		t.Error("varchar exact set wrong")
	}
	if s.MatchLong(1) {
		t.Error("long probe matched a varchar build")
	}
	if got := len(s.ExactValues()); got != 2 {
		t.Errorf("ExactValues len %d, want 2", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	a := NewSummary(types.Bigint)
	a.AddLong(1, DefaultMaxSet)
	a.AddLong(5, DefaultMaxSet)
	b := NewSummary(types.Bigint)
	b.AddLong(3, DefaultMaxSet)
	b.AddLong(-2, DefaultMaxSet)
	a.Merge(b)
	for _, k := range []int64{1, 5, 3, -2} {
		if !a.MatchLong(k) {
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
	a.AddLong(1, DefaultMaxSet)
	b := NewSummary(types.Varchar)
	a.Merge(b)
	if !a.Disabled {
		t.Error("type-mismatched merge did not disable")
	}

	c := NewSummary(types.Bigint)
	c.AddLong(1, DefaultMaxSet)
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
	a.AddDouble(1.0, DefaultMaxSet)
	b := NewSummary(types.Double)
	b.AddDouble(math.NaN(), DefaultMaxSet)
	a.Merge(b)
	if a.HasBounds || !a.BoundsPoisoned {
		t.Errorf("poison lost in merge: HasBounds=%v BoundsPoisoned=%v", a.HasBounds, a.BoundsPoisoned)
	}
}

func TestSummaryMergeExactOverflowWins(t *testing.T) {
	a := NewSummary(types.Bigint)
	a.AddLong(1, DefaultMaxSet)
	b := NewSummary(types.Bigint)
	for i := int64(0); i < 10; i++ {
		b.AddLong(i, 4)
	}
	if hasExact(b) {
		t.Fatal("setup: b should have overflowed")
	}
	a.Merge(b)
	if hasExact(a) {
		t.Error("exact set survived merging an overflowed input")
	}
	for i := int64(0); i < 10; i++ {
		if !a.MatchLong(i) {
			t.Errorf("merged bloom false negative for %d", i)
		}
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
// the exact set under MaxSet, and reports the build's rows, not its keys.
func TestCollectorSummarizesDistinctKeys(t *testing.T) {
	specs := []ColumnSpec{{ID: 7, KeyIdx: 0, T: types.Bigint}}
	c := NewCollector(specs, 8, 0)
	collect(c, 40, []int64{5, -3, 12})
	s := c.Summaries()[0]
	if s.Rows != 40 || s.Empty() || !hasExact(s) || s.ExactLen() != 3 {
		t.Errorf("rows %d empty %v exact %v len %d, want 40 false true 3", s.Rows, s.Empty(), hasExact(s), s.ExactLen())
	}
	for _, k := range []int64{5, -3, 12} {
		if !s.MatchLong(k) {
			t.Errorf("key %d missing", k)
		}
	}
	if min, max, ok := s.Bounds(); s.MatchLong(6) || !ok || min.I != -3 || max.I != 12 {
		t.Errorf("absent key matched, or bounds [%v, %v] ok=%v", min, max, ok)
	}

	// More distinct keys than MaxSet on a single key column: the exact set is
	// known to overflow and is never built; bloom and bounds still answer.
	many := make([]int64, 100)
	for i := range many {
		many[i] = int64(i * 3)
	}
	c = NewCollector(specs, 8, 0)
	collect(c, 100, many)
	if s = c.Summaries()[0]; hasExact(s) || s.Disabled {
		t.Errorf("overflowed summary: exact %v disabled %v", hasExact(s), s.Disabled)
	}
	for _, k := range many {
		if !s.MatchLong(k) {
			t.Fatalf("bloom false negative for %d", k)
		}
	}

	// No build row at all: the summary stays empty and short-circuits.
	c = NewCollector(specs, 8, 0)
	if s = c.Summaries()[0]; !s.Empty() || s.MatchLong(1) {
		t.Error("an uncollected summary is not the empty one")
	}
	// Too many rows, or a spilled build: never filter.
	c = NewCollector(specs, 8, 10)
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
	c := NewCollector([]ColumnSpec{{ID: 1, KeyIdx: 0, T: types.Bigint}, {ID: 2, KeyIdx: 1, T: types.Varchar}}, 0, 0)
	c.CollectCells(9, 4, 2, cells, tags, str, nil, everyEntry(4))
	ls, ss := c.Summaries()[0], c.Summaries()[1]
	if ls.ExactLen() != 2 || ss.ExactLen() != 2 || ls.Rows != 9 || ss.Rows != 9 {
		t.Errorf("exact sets of %d and %d values over %d and %d rows, want 2 and 2 over 9 and 9", ls.ExactLen(), ss.ExactLen(), ls.Rows, ss.Rows)
	}
	if !ls.MatchLong(2) || ls.MatchLong(3) || !ss.MatchStr("b") || ss.MatchStr("c") {
		t.Error("two-column summaries match the wrong values")
	}
	if min, max, ok := ss.Bounds(); !ok || min.S != "a" || max.S != "b" {
		t.Errorf("varchar bounds [%v, %v] %v, want [a, b]", min, max, ok)
	}
}

// TestMergeSharesThenCopies: a union adopts the first published set without
// copying it, stays on it while later contributions add nothing new (every
// task of a broadcast build publishes the same keys), and copies before the
// first new key — the published summary is never written.
func TestMergeSharesThenCopies(t *testing.T) {
	pub := NewSummary(types.Bigint)
	for k := int64(0); k < 20; k++ {
		pub.AddLong(k, DefaultMaxSet)
	}
	union := NewSummary(types.Bigint)
	union.Merge(pub)
	union.Merge(pub)
	if &union.exact.tags[0] != &pub.exact.tags[0] {
		t.Error("a union of identical sets copied the set")
	}
	other := NewSummary(types.Bigint)
	other.AddLong(99, DefaultMaxSet)
	union.Merge(other)
	if &union.exact.tags[0] == &pub.exact.tags[0] || pub.MatchLong(99) || pub.ExactLen() != 20 {
		t.Error("a new key was written into the published summary's set")
	}
	for k := int64(0); k < 20; k++ {
		if !union.MatchLong(k) {
			t.Errorf("union lost %d", k)
		}
	}
	if !union.MatchLong(99) || union.ExactLen() != 21 {
		t.Errorf("union of 21 keys holds %d, 99 in it: %v", union.ExactLen(), union.MatchLong(99))
	}
}

// TestCollectCellsMatchesCollect: a build summarized from its key table's
// normalized cells — row count and bounds from every entry, the set from one
// entry per distinct key — is the summary the typed Add calls make of the
// same keys: the same set, bounds and row count, -0.0 and integral doubles on
// their integer cells, NULL keys left out. No Bloom filter is filled while
// the set holds.
func TestCollectCellsMatchesCollect(t *testing.T) {
	vals := []float64{3, math.Copysign(0, -1), 2.5, 3, -7.25, 2.5}
	nulls := []bool{false, false, false, false, false, true}
	var cells []uint64
	var tags []byte
	for i, f := range vals {
		tag, payload := block.NormDouble(f)
		c := cell{tag, payload}
		if nulls[i] {
			c = cell{}
		}
		cells, tags = append(cells, c.payload), append(tags, c.tag)
	}
	specs := []ColumnSpec{{ID: 1, T: types.Double}}
	fromCells := NewCollector(specs, 0, 0)
	fromCells.CollectCells(5, 4, 1, cells, tags, nil, nil, func(visit func(int)) {
		for _, e := range []int{0, 1, 2, 4} { // each distinct key's first entry
			visit(e)
		}
	})
	b := NewSummary(types.Double)
	for _, f := range []float64{3, 0, 2.5, -7.25} {
		b.AddDouble(f, DefaultMaxSet)
	}
	b.Rows = 5 // the build's rows, as the collector is told them
	a := fromCells.Summaries()[0]
	if a.Rows != 5 || a.Rows != b.Rows || a.ExactLen() != 4 || b.ExactLen() != 4 || a.Bloom != nil || b.Bloom != nil {
		t.Fatalf("cells: %d rows, %d keys, bloom %v; added: %d rows, %d keys, bloom %v", a.Rows, a.ExactLen(), a.Bloom != nil, b.Rows, b.ExactLen(), b.Bloom != nil)
	}
	for _, f := range []float64{3, 0, math.Copysign(0, -1), 2.5, -7.25, 1} {
		if a.MatchDouble(f) != b.MatchDouble(f) {
			t.Errorf("%v: cells say %v, the added keys %v", f, a.MatchDouble(f), b.MatchDouble(f))
		}
	}
	amin, amax, aok := a.Bounds()
	bmin, bmax, bok := b.Bounds()
	if !aok || !bok || amin.F != bmin.F || amax.F != bmax.F || amin.F != -7.25 || amax.F != 3 {
		t.Errorf("bounds from cells [%v, %v] %v, added [%v, %v] %v, want [-7.25, 3]", amin, amax, aok, bmin, bmax, bok)
	}

	// A NaN key poisons the bounds; BIGINT cells are their values.
	tag, payload := block.NormDouble(math.NaN())
	nan := cell{tag, payload}
	poisoned := NewCollector(specs, 0, 0)
	poisoned.CollectCells(2, 2, 1, []uint64{cells[0], nan.payload}, []byte{tags[0], nan.tag}, nil, nil, func(visit func(int)) { visit(0); visit(1) })
	if s := poisoned.Summaries()[0]; s.HasBounds || !s.BoundsPoisoned || !s.MatchDouble(math.NaN()) {
		t.Errorf("a NaN build key: bounds %v poisoned %v, NaN matches %v", s.HasBounds, s.BoundsPoisoned, s.MatchDouble(math.NaN()))
	}
	longs := NewCollector([]ColumnSpec{{ID: 1, T: types.Bigint}}, 0, 0)
	minus := int64(-9)
	longs.CollectCells(3, 3, 1, []uint64{4, uint64(minus), 0}, []byte{block.CellLong, block.CellLong, block.CellNull}, nil, nil, func(visit func(int)) { visit(0); visit(1) })
	if min, max, ok := longs.Summaries()[0].Bounds(); !ok || min.I != -9 || max.I != 4 {
		t.Errorf("bigint bounds from cells [%v, %v] %v, want [-9, 4]", min, max, ok)
	}
}

// TestBoundedSummaryPrunesOnly: a summary only split and stripe pruning reads
// keeps its row count and bounds, and its set while the build has at most
// MaxPushdownPoints keys; past that it holds no set and no Bloom filter, and
// rules no value out. Relayed, the same summary is collected in full.
func TestBoundedSummaryPrunesOnly(t *testing.T) {
	keys := make([]int64, MaxPushdownPoints+1)
	for i := range keys {
		keys[i] = int64(10 * i)
	}
	for _, n := range []int{MaxPushdownPoints, MaxPushdownPoints + 1} {
		c := NewCollector([]ColumnSpec{{ID: 4, T: types.Bigint, Bounded: true}}, 0, 0)
		collect(c, int64(n), keys[:n])
		s := c.Summaries()[0]
		min, max, ok := s.Bounds()
		if s.Rows != int64(n) || !ok || min.I != 0 || max.I != int64(10*(n-1)) || s.Bloom != nil {
			t.Errorf("%d keys: %d rows, bounds [%v, %v] %v, bloom %v", n, s.Rows, min, max, ok, s.Bloom != nil)
		}
		if wantSet := n <= MaxPushdownPoints; hasExact(s) != wantSet || s.MatchLong(5) == wantSet {
			t.Errorf("%d keys: exact set %v, 5 matches %v; want a set (ruling 5 out) only up to %d keys", n, hasExact(s), s.MatchLong(5), MaxPushdownPoints)
		}
	}
	c := NewCollector([]ColumnSpec{{ID: 4, T: types.Bigint, Bounded: true}}, 0, 0)
	c.Relayed = func(id int) bool { return id == 4 }
	collect(c, int64(len(keys)), keys)
	if s := c.Summaries()[0]; !hasExact(s) || s.MatchLong(5) || !s.MatchLong(10) {
		t.Error("a relayed summary was collected for pruning only")
	}
}
