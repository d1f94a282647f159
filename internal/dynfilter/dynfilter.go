// Package dynfilter implements runtime dynamic join filters (the §IV-B
// adaptivity the paper defers): during a hash-join build the engine collects
// a per-key-column summary — a Bloom filter over the distinct keys, min/max
// bounds, and the keys themselves while there are at most MaxPushdownPoints
// of them — and ships it to the probe side, where the Bloom filter runs as an
// extra scan predicate and the points or bounds narrow splits and stripes.
// The summary is the same in process and on the wire: whatever carries it, a
// scan tests the same rows against the same bits.
//
// Correctness contract: a summary may only ever claim "this value cannot
// match any build row". Values are the join hash table's key cells
// (block.CellLong and the rest, block.NormDouble): doubles equal to an integer
// share the integer's cell so BIGINT==DOUBLE joins filter correctly, NaN uses
// its raw bit pattern (the join matches NaN==NaN through Float64bits, so the
// filter must too), and -0.0 folds to the integer cell 0. A Bloom filter's
// false positive only lets a row through to the join, which drops it.
// NULL build keys never join, so they are excluded from summaries; NULL probe
// keys never pass a filter, which is safe for the join types filters attach
// to (INNER/SEMI/RIGHT — types whose output drops unmatched probe rows).
//
// Delivery is best-effort: a late, lost, or partial summary degrades to an
// unfiltered scan, never a hang or a row difference.
package dynfilter

import (
	"math"
	"slices"
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

// BloomBits is the fixed bloom sizing (bits, power of two). A fixed size
// keeps cross-task unions a plain word-wise OR: partitioned join builds run
// on many tasks and the coordinator merges their summaries before delivery.
const BloomBits = 1 << 16

const bloomWords = BloomBits / 64

// MaxPushdownPoints caps the keys a summary keeps as points, the IN-list they
// become in a scan's constraint (split and stripe pruning); past it the
// summary keeps none and pruning falls back to min/max. Keeps cache keys,
// connector prune checks and wire frames small.
const MaxPushdownPoints = 100

// DefaultMaxRows bounds collection work: past this many build rows the
// collector marks the summary disabled and stops (a huge build side makes a
// probe filter worthless anyway).
const DefaultMaxRows = 1 << 20

// Summary is the runtime filter for one join key column.
type Summary struct {
	// T is the build key column type the summary was collected from.
	T types.Type

	// Disabled marks a summary that must not filter anything (collection
	// aborted: unsupported type or build too large).
	Disabled bool

	// Rows counts non-null build keys observed.
	Rows int64

	// Bloom is a fixed-size blocked bloom over the key cells' hashes
	// (block.HashCell), the only membership test. A summary without one —
	// collected for pruning only (ColumnSpec.Bounded) — says nothing about
	// membership, and every non-NULL value matches it unless it is empty.
	Bloom []uint64

	// points are the distinct keys, ascending, boxed as the summary's type;
	// nil once there are more than MaxPushdownPoints of them, or a NaN key
	// has been seen (it equals no point). Only pruning reads them.
	points []types.Value

	// Min/Max bound the observed keys for orderable types. HasBounds is
	// false when unset (empty build) or poisoned (NaN key observed: NaN is
	// unordered, so range bounds would wrongly exclude it).
	HasBounds bool
	Min, Max  types.Value
	// BoundsPoisoned distinguishes "no keys yet" from "bounds invalidated
	// by a NaN key" so merges propagate the poison.
	BoundsPoisoned bool
}

// NewSummary returns an empty (matches-nothing) summary for type t.
func NewSummary(t types.Type) *Summary {
	s := &Summary{T: t, points: []types.Value{}}
	switch t {
	case types.Varchar, types.Bigint, types.Date, types.Double, types.Boolean:
	default:
		// Array/Unknown keys: no safe normalization — never filter.
		s.Disabled = true
	}
	return s
}

// Empty reports whether the build side produced zero joinable (non-null)
// keys: an INNER/SEMI probe can short-circuit to zero rows.
func (s *Summary) Empty() bool { return !s.Disabled && s.Rows == 0 }

// Has reports whether a probe value whose key cell is (tag, payload) may
// match a build key: the predicate compiler's dynamic-filter leaf asks it of
// every row. A VARCHAR value's cell is (block.CellVarchar,
// block.VarPayload(v)).
func (s *Summary) Has(tag byte, payload uint64) bool {
	if s.Bloom == nil {
		return s.Rows > 0
	}
	h := block.HashCell(tag, payload)
	h1 := h & (BloomBits - 1)
	h2 := (h >> 16) & (BloomBits - 1)
	return s.Bloom[h1>>6]&(1<<(h1&63)) != 0 && s.Bloom[h2>>6]&(1<<(h2&63)) != 0
}

// bloomSet sets a key hash's bits. Has reads them at two fields, bits 0-15
// and 16-31, which the exchange does not route by: a build behind one still
// spreads over every bit of the Bloom.
func (s *Summary) bloomSet(h uint64) {
	h1 := h & (BloomBits - 1)
	h2 := (h >> 16) & (BloomBits - 1)
	s.Bloom[h1>>6] |= 1 << (h1 & 63)
	s.Bloom[h2>>6] |= 1 << (h2 & 63)
}

// addKey records one non-NULL key cell, counting no row: into the Bloom
// filter when the summary has one, into the points while they last, and a
// VARCHAR key, whose bytes are str, into the bounds. str may view memory the
// caller reuses: what the summary keeps is a copy.
func (s *Summary) addKey(tag byte, payload uint64, str string) {
	if s.Bloom != nil {
		s.bloomSet(block.HashCell(tag, payload))
	}
	if s.T == types.Varchar && (!s.HasBounds || str < s.Min.S || str > s.Max.S) {
		v := strings.Clone(str)
		widen(s, v, &s.Min.S, &s.Max.S, types.VarcharValue(v))
	}
	if s.points == nil {
		return
	}
	v := s.point(tag, payload, str)
	i, found := slices.BinarySearchFunc(s.points, v, types.Value.Compare)
	switch {
	case found:
	case len(s.points) == MaxPushdownPoints:
		s.points = nil
	default:
		if v.T == types.Varchar {
			v.S = strings.Clone(v.S)
		}
		s.points = slices.Insert(s.points, i, v)
	}
}

// point boxes a key cell as a value of the summary's type: an integer cell of
// a DOUBLE summary is the double it equals.
func (s *Summary) point(tag byte, payload uint64, str string) types.Value {
	switch tag {
	case block.CellLong:
		if s.T == types.Double {
			return types.DoubleValue(float64(int64(payload)))
		}
		return types.Value{T: s.T, I: int64(payload)}
	case block.CellDouble:
		return types.DoubleValue(math.Float64frombits(payload))
	case block.CellBool:
		return types.BooleanValue(payload != 0)
	}
	return types.VarcharValue(str)
}

// widen folds the key v into min/max, compared as its own type: lo and hi are
// the field of Min and Max that holds it, first the boxed key.
func widen[T int64 | float64 | string](s *Summary, v T, lo, hi *T, first types.Value) {
	switch {
	case s.BoundsPoisoned:
	case !s.HasBounds:
		s.HasBounds, s.Min, s.Max = true, first, first
	case v < *lo:
		*lo = v
	case v > *hi:
		*hi = v
	}
}

// poisonBounds drops min/max and the points for good: a NaN key is unordered,
// and equals no point.
func (s *Summary) poisonBounds() {
	s.HasBounds, s.BoundsPoisoned = false, true
	s.Min, s.Max = types.Value{}, types.Value{}
	s.points = nil
}

// added counts a key the typed Add calls record, which always fill a Bloom
// filter.
func (s *Summary) added() {
	s.Rows++
	if s.Bloom == nil {
		s.Bloom = make([]uint64, bloomWords)
	}
}

// AddLong records a non-null bigint/date key.
func (s *Summary) AddLong(v int64) {
	s.added()
	s.addKey(block.CellLong, uint64(v), "")
	widen(s, v, &s.Min.I, &s.Max.I, types.Value{T: s.T, I: v})
}

// AddDouble records a non-null double key.
func (s *Summary) AddDouble(f float64) {
	s.added()
	if math.IsNaN(f) {
		s.poisonBounds()
	}
	tag, payload := block.NormDouble(f)
	s.addKey(tag, payload, "")
	widen(s, f, &s.Min.F, &s.Max.F, types.DoubleValue(f))
}

// AddBool records a non-null boolean key.
func (s *Summary) AddBool(b bool) {
	s.added()
	if b {
		s.addKey(block.CellBool, 1, "")
	} else {
		s.addKey(block.CellBool, 0, "")
	}
}

// AddStr records a non-null varchar key.
func (s *Summary) AddStr(v string) {
	s.added()
	s.addKey(block.CellVarchar, block.VarPayload(v), v)
}

// addRow records row r of a build key column read through its typed
// accessor. NULLs are skipped.
func (s *Summary) addRow(b block.Block, r int) {
	if b.IsNull(r) {
		return
	}
	switch b.Type() {
	case types.Bigint, types.Date:
		s.AddLong(b.Long(r))
	case types.Double:
		s.AddDouble(b.Double(r))
	case types.Boolean:
		s.AddBool(b.Bool(r))
	case types.Varchar:
		s.AddStr(b.Str(r))
	default:
		s.Disabled = true
	}
}

// Points returns the distinct keys in ascending order, or nil when there are
// more than MaxPushdownPoints of them or the summary does not keep them. Used
// for IN-list domain pushdown; the caller must not modify the slice.
func (s *Summary) Points() []types.Value {
	if s.Disabled {
		return nil
	}
	return s.points
}

// Bounds returns the observed [min, max] when available.
func (s *Summary) Bounds() (min, max types.Value, ok bool) {
	if s.Disabled || !s.HasBounds {
		return types.Value{}, types.Value{}, false
	}
	return s.Min, s.Max, true
}

// Merge unions o into s (partitioned builds publish one summary per task;
// the coordinator merges them before delivery). A disabled input disables
// the union; mismatched types disable it too (should not happen). The Blooms
// OR; if either side says nothing about membership, neither does the union.
// The points union while there are at most MaxPushdownPoints of them, so the
// identical points every task of a broadcast build publishes merge into one
// list.
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	if o.Disabled || s.T != o.T {
		s.Disabled = true
		return
	}
	if s.Disabled {
		return
	}
	switch {
	case s.Bloom == nil && s.Rows > 0, o.Bloom == nil && o.Rows > 0:
		s.Bloom = nil
	case o.Bloom == nil:
	case s.Bloom == nil:
		s.Bloom = slices.Clone(o.Bloom)
	default:
		for i, w := range o.Bloom {
			s.Bloom[i] |= w
		}
	}
	s.Rows += o.Rows
	switch {
	case s.points == nil || o.points == nil:
		s.points = nil
	case len(s.points) == 0:
		s.points = slices.Clip(o.points) // shared: a later key copies it
	case len(o.points) > 0:
		u := slices.Concat(s.points, o.points)
		slices.SortFunc(u, types.Value.Compare)
		if u = slices.CompactFunc(u, func(a, b types.Value) bool { return a.Compare(b) == 0 }); len(u) > MaxPushdownPoints {
			u = nil
		}
		s.points = u
	}
	if o.BoundsPoisoned {
		s.poisonBounds()
	} else if o.HasBounds && !s.BoundsPoisoned {
		if !s.HasBounds {
			s.HasBounds = true
			s.Min, s.Max = o.Min, o.Max
		} else {
			if o.Min.Compare(s.Min) < 0 {
				s.Min = o.Min
			}
			if o.Max.Compare(s.Max) > 0 {
				s.Max = o.Max
			}
		}
	}
}
