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

func TestSummaryNullsNeverCollected(t *testing.T) {
	s := NewSummary(types.Bigint)
	s.AddValue(types.NullValue(types.Bigint), DefaultMaxSet)
	if s.Rows != 0 || !s.Empty() {
		t.Errorf("NULL build key was collected: rows=%d empty=%v", s.Rows, s.Empty())
	}
	// A NULL probe value never passes (safe for INNER/SEMI/RIGHT).
	s.AddLong(1, DefaultMaxSet)
	if s.MatchValue(types.NullValue(types.Bigint)) {
		t.Error("NULL probe value passed the filter")
	}
}

func TestSummaryExactOverflowDegradesToBloom(t *testing.T) {
	const maxSet = 8
	s := NewSummary(types.Bigint)
	for i := int64(0); i < 100; i++ {
		s.AddLong(i*7, maxSet)
	}
	if s.HasExact() {
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
	if b.HasExact() {
		t.Fatal("setup: b should have overflowed")
	}
	a.Merge(b)
	if a.HasExact() {
		t.Error("exact set survived merging an overflowed input")
	}
	for i := int64(0); i < 10; i++ {
		if !a.MatchLong(i) {
			t.Errorf("merged bloom false negative for %d", i)
		}
	}
}

// collect runs a Collector over the distinct keys of one bigint key column.
func collect(c *Collector, rows int64, keys []int64) {
	p := block.NewPage(block.NewLongBlock(keys, nil))
	c.Collect(rows, len(keys), []int{0}, everyRow(p))
}

// everyRow visits every row of p, as a join build visits its distinct keys.
func everyRow(p *block.Page) func(visit func(*block.Page, int)) {
	return func(visit func(*block.Page, int)) {
		for r := 0; r < p.RowCount(); r++ {
			visit(p, r)
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
	if s.Rows != 40 || s.Empty() || !s.HasExact() || s.ExactLen() != 3 {
		t.Errorf("rows %d empty %v exact %v len %d, want 40 false true 3", s.Rows, s.Empty(), s.HasExact(), s.ExactLen())
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
	if s = c.Summaries()[0]; s.HasExact() || s.Disabled {
		t.Errorf("overflowed summary: exact %v disabled %v", s.HasExact(), s.Disabled)
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
	p := block.NewPage(
		block.NewLongBlock([]int64{1, 1, 2, 2}, nil),
		block.NewVarcharBlock([]string{"a", "b", "a", "b"}, nil))
	c := NewCollector([]ColumnSpec{{ID: 1, KeyIdx: 0, T: types.Bigint}, {ID: 2, KeyIdx: 1, T: types.Varchar}}, 0, 0)
	c.Collect(9, 4, []int{0, 1}, everyRow(p))
	longs, strs := c.Summaries()[0], c.Summaries()[1]
	if longs.ExactLen() != 2 || strs.ExactLen() != 2 || longs.Rows != 9 || strs.Rows != 9 {
		t.Errorf("exact sets of %d and %d values over %d and %d rows, want 2 and 2 over 9 and 9", longs.ExactLen(), strs.ExactLen(), longs.Rows, strs.Rows)
	}
	if !longs.MatchLong(2) || longs.MatchLong(3) || !strs.MatchStr("b") || strs.MatchStr("c") {
		t.Error("two-column summaries match the wrong values")
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
