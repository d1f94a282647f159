// Package dynfilter implements runtime dynamic join filters (the §IV-B
// adaptivity the paper defers): during a hash-join build the engine collects
// a per-key-column summary — an exact key set while the distinct count stays
// under a configurable cardinality, min/max bounds, and a bloom filter above
// the threshold — and ships it to the probe side, where it runs as an extra
// scan predicate and as min/max bounds for stripe/split skipping.
//
// Correctness contract: a summary may only ever claim "this value cannot
// match any build row". Values are the join hash table's key cells
// (block.CellLong and the rest, block.NormDouble): doubles equal to an integer
// share the integer's cell so BIGINT==DOUBLE joins filter correctly, NaN uses
// its raw bit pattern (the join matches NaN==NaN through Float64bits, so the
// filter must too), and -0.0 folds to the integer cell 0.
// NULL build keys never join, so they are excluded from summaries; NULL probe
// keys never pass a filter, which is safe for the join types filters attach
// to (INNER/SEMI/RIGHT — types whose output drops unmatched probe rows).
//
// Delivery is best-effort: a late, lost, or partial summary degrades to an
// unfiltered scan, never a hang or a row difference.
package dynfilter

import (
	"math"
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

// cell is one normalized fixed-width key value.
type cell struct {
	tag     byte
	payload uint64
}

// BloomBits is the fixed bloom sizing (bits, power of two). A fixed size
// keeps cross-task unions a plain word-wise OR: partitioned join builds run
// on many tasks and the coordinator merges their summaries before delivery.
const BloomBits = 1 << 16

const bloomWords = BloomBits / 64

// DefaultMaxSet is the exact-set cardinality threshold: up to this many
// distinct keys the summary carries the exact set (enabling IN-list domain
// pushdown); beyond it the summary degrades to min/max + bloom.
const DefaultMaxSet = 4096

// MaxPushdownPoints caps the IN-list a summary's exact set becomes in a
// scan's constraint (split and stripe pruning); larger sets fall back to
// min/max range pushdown. Keeps cache keys and connector prune checks small,
// and bounds the set a summary that only prunes collects (ColumnSpec.Bounded).
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

	// exact carries the distinct normalized cells while the cardinality is
	// ≤ maxSet; nil once overflowed. For varchar keys Strs is used instead.
	exact *cellSet
	Strs  map[string]struct{}

	// Bloom is a fixed-size blocked bloom over the key hash. It is
	// nil while the exact set holds every key, and filled when the set
	// overflows: from the set's members, then from every later key. A summary
	// with neither — collected for pruning only (ColumnSpec.Bounded) — says
	// nothing about membership, and every non-NULL value matches it.
	Bloom []uint64

	// Min/Max bound the observed keys for orderable types. HasBounds is
	// false when unset (empty build) or poisoned (NaN key observed: NaN is
	// unordered, so range bounds would wrongly exclude it).
	HasBounds bool
	Min, Max  types.Value
	// BoundsPoisoned distinguishes "no keys yet" from "bounds invalidated
	// by a NaN key" so merges propagate the poison.
	BoundsPoisoned bool
}

// cellSet is the exact key set: open-addressed, linear-probing, at most half
// full; tag block.CellNull marks an empty slot (NULL keys are never
// collected). One goroutine writes it while its summary is collected or merged; published, it
// is only read (probes run concurrently), in a few ns where a Go map's hashing
// costs more than the vectorized join probe the filter is trying to save.
type cellSet struct {
	tags     []byte // block.CellNull: an empty slot; 9 bytes a slot, not a padded 16
	payloads []uint64
	n        int
	// shared: the arrays belong to a published summary this one was merged
	// from and are copied before the first write; a union of identical sets
	// (every task of a broadcast build publishes the same one) never copies.
	shared bool
}

// newCellSet returns an empty set with room for keys cells.
func newCellSet(keys int) *cellSet {
	size := 16
	for size < 2*keys {
		size <<= 1
	}
	return &cellSet{tags: make([]byte, size), payloads: make([]uint64, size)}
}

// find returns the slot c is in, or the empty slot where it would go.
func (t *cellSet) find(c cell) uint64 {
	mask := uint64(len(t.tags) - 1)
	for i := c.hash() & mask; ; i = (i + 1) & mask {
		if t.tags[i] == block.CellNull || (t.tags[i] == c.tag && t.payloads[i] == c.payload) {
			return i
		}
	}
}

func (t *cellSet) has(c cell) bool { return t.tags[t.find(c)] != block.CellNull }

// put stores a cell the set does not hold and has room for.
func (t *cellSet) put(c cell) {
	i := t.find(c)
	t.tags[i], t.payloads[i] = c.tag, c.payload
	t.n++
}

func (t *cellSet) add(c cell) {
	if t.has(c) {
		return
	}
	if 2*(t.n+1) > len(t.tags) || t.shared {
		old := *t
		*t = *newCellSet(old.n + 1)
		old.each(t.put)
	}
	t.put(c)
}

// each calls fn with every member, in no particular order.
func (t *cellSet) each(fn func(cell)) {
	for i, tag := range t.tags {
		if tag != block.CellNull {
			fn(cell{tag, t.payloads[i]})
		}
	}
}

// matchCell is the shared fixed-width membership test: exact set when it
// survived, bloom otherwise; a varchar build never equals a fixed-width
// probe, and a summary without either matches every value.
func (s *Summary) matchCell(c cell) bool {
	switch {
	case s.exact != nil:
		return s.exact.has(c)
	case s.Strs != nil:
		return false
	case s.Bloom != nil:
		return s.bloomHas(c.hash())
	}
	return true
}

// NewSummary returns an empty (matches-nothing) summary for type t.
func NewSummary(t types.Type) *Summary {
	s := &Summary{T: t}
	switch t {
	case types.Varchar:
		s.Strs = make(map[string]struct{})
	case types.Bigint, types.Date, types.Double, types.Boolean:
		s.exact = newCellSet(0)
	default:
		// Array/Unknown keys: no safe normalization — never filter.
		s.Disabled = true
	}
	return s
}

// Empty reports whether the build side produced zero joinable (non-null)
// keys: an INNER/SEMI probe can short-circuit to zero rows.
func (s *Summary) Empty() bool { return !s.Disabled && s.Rows == 0 }

// bloomSet and bloomHas read a key hash (block.HashCell, block.HashString)
// at two fields, bits 0-15 and 16-31, which the exchange does not route by:
// a build behind one still spreads over every bit of the Bloom.
func (s *Summary) bloomSet(h uint64) {
	h1 := h & (BloomBits - 1)
	h2 := (h >> 16) & (BloomBits - 1)
	s.Bloom[h1>>6] |= 1 << (h1 & 63)
	s.Bloom[h2>>6] |= 1 << (h2 & 63)
}

func (s *Summary) bloomHas(h uint64) bool {
	h1 := h & (BloomBits - 1)
	h2 := (h >> 16) & (BloomBits - 1)
	return s.Bloom[h1>>6]&(1<<(h1&63)) != 0 && s.Bloom[h2>>6]&(1<<(h2&63)) != 0
}

// hash is c's key hash.
func (c cell) hash() uint64 { return block.HashCell(c.tag, c.payload) }

// overflow drops the exact set for the Bloom filter, which takes its members:
// past maxSet keys the summary is its Bloom and its bounds.
func (s *Summary) overflow() {
	if s.Bloom == nil {
		s.Bloom = make([]uint64, bloomWords)
	}
	s.eachHash(s.bloomSet)
	s.exact, s.Strs = nil, nil
}

// eachHash calls fn with the Bloom hash of every member of the exact set.
func (s *Summary) eachHash(fn func(uint64)) {
	if s.exact != nil {
		s.exact.each(func(c cell) { fn(c.hash()) })
	}
	for v := range s.Strs {
		fn(block.HashString(v))
	}
}

// hasMembership reports whether the summary can rule a value out: it has an
// exact set or a Bloom filter.
func (s *Summary) hasMembership() bool {
	return s.exact != nil || s.Strs != nil || s.Bloom != nil
}

// addCell records one normalized non-null fixed-width key.
func (s *Summary) addCell(c cell, maxSet int) {
	s.Rows++
	s.addMember(c, maxSet)
}

// addMember puts a key into the exact set, or into the Bloom filter once the
// set has overflowed; a summary with neither keeps none.
func (s *Summary) addMember(c cell, maxSet int) {
	switch t := s.exact; {
	case t == nil:
		if s.Bloom != nil {
			s.bloomSet(c.hash())
		}
	case t.has(c):
	case t.n >= maxSet:
		s.overflow()
		s.bloomSet(c.hash())
	default:
		t.add(c)
	}
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

// poisonBounds drops min/max for good: a NaN key is unordered.
func (s *Summary) poisonBounds() {
	s.HasBounds, s.BoundsPoisoned = false, true
	s.Min, s.Max = types.Value{}, types.Value{}
}

// AddLong records a non-null bigint/date key.
func (s *Summary) AddLong(v int64, maxSet int) {
	s.addCell(cell{block.CellLong, uint64(v)}, maxSet)
	widen(s, v, &s.Min.I, &s.Max.I, types.Value{T: s.T, I: v})
}

// AddDouble records a non-null double key.
func (s *Summary) AddDouble(f float64, maxSet int) {
	tag, payload := block.NormDouble(f)
	s.addCell(cell{tag, payload}, maxSet)
	if math.IsNaN(f) {
		s.poisonBounds()
		return
	}
	widen(s, f, &s.Min.F, &s.Max.F, types.DoubleValue(f))
}

func boolCell(b bool) cell {
	if b {
		return cell{block.CellBool, 1}
	}
	return cell{block.CellBool, 0}
}

// AddBool records a non-null boolean key.
func (s *Summary) AddBool(b bool, maxSet int) { s.addCell(boolCell(b), maxSet) }

// AddStr records a non-null varchar key.
func (s *Summary) AddStr(v string, maxSet int) {
	s.Rows++
	s.addStr(v, maxSet)
}

// addStr puts a non-null varchar key into the exact set, or into the Bloom
// filter once the set has overflowed, and into the bounds, counting no row.
// v may view memory the caller reuses: what the summary keeps is a copy.
func (s *Summary) addStr(v string, maxSet int) {
	switch _, ok := s.Strs[v]; {
	case ok:
	case s.Strs == nil:
		if s.Bloom != nil {
			s.bloomSet(block.HashString(v))
		}
	case len(s.Strs) >= maxSet:
		s.overflow()
		s.bloomSet(block.HashString(v))
	default:
		s.Strs[strings.Clone(v)] = struct{}{}
	}
	if !s.HasBounds || v < s.Min.S || v > s.Max.S {
		v = strings.Clone(v)
		widen(s, v, &s.Min.S, &s.Max.S, types.VarcharValue(v))
	}
}

// addRow records row r of a build key column read through its typed
// accessor. NULLs are skipped.
func (s *Summary) addRow(b block.Block, r, maxSet int) {
	if b.IsNull(r) {
		return
	}
	switch b.Type() {
	case types.Bigint, types.Date:
		s.AddLong(b.Long(r), maxSet)
	case types.Double:
		s.AddDouble(b.Double(r), maxSet)
	case types.Boolean:
		s.AddBool(b.Bool(r), maxSet)
	case types.Varchar:
		s.AddStr(b.Str(r), maxSet)
	default:
		s.Disabled = true
	}
}

// --- probe-side membership (the predicate compiler's dynamic-filter leaf calls these) ---

// MatchLong reports whether a bigint/date probe value may match a build key.
func (s *Summary) MatchLong(v int64) bool {
	return s.matchCell(cell{block.CellLong, uint64(v)})
}

// MatchDouble reports whether a double probe value may match a build key.
func (s *Summary) MatchDouble(f float64) bool {
	tag, payload := block.NormDouble(f)
	return s.matchCell(cell{tag, payload})
}

// MatchBool reports whether a boolean probe value may match a build key.
func (s *Summary) MatchBool(b bool) bool { return s.matchCell(boolCell(b)) }

// MatchStr reports whether a varchar probe value may match a build key.
func (s *Summary) MatchStr(v string) bool {
	switch {
	case s.Strs != nil:
		_, ok := s.Strs[v]
		return ok
	case s.exact != nil:
		return false // fixed-width build keys never equal a varchar probe
	case s.Bloom != nil:
		return s.bloomHas(block.HashString(v))
	}
	return true
}

// reserve makes room in a still-empty exact set for keys cells at once,
// instead of by doubling.
func (s *Summary) reserve(keys int) {
	if s.exact != nil && s.exact.n == 0 && 2*keys > len(s.exact.tags) {
		s.exact = newCellSet(keys)
	}
}

// ExactLen is the size of the exact key set, 0 when there is none.
func (s *Summary) ExactLen() int {
	if s.exact != nil {
		return s.exact.n
	}
	return len(s.Strs)
}

// ExactValues returns the exact key set as boxed values of the summary's
// type, or nil when overflowed/unavailable. Used for IN-list domain pushdown.
func (s *Summary) ExactValues() []types.Value {
	if s.Disabled {
		return nil
	}
	if s.Strs != nil {
		out := make([]types.Value, 0, len(s.Strs))
		for v := range s.Strs {
			out = append(out, types.VarcharValue(v))
		}
		return out
	}
	if s.exact == nil {
		return nil
	}
	out := make([]types.Value, 0, s.exact.n)
	s.exact.each(func(c cell) {
		switch c.tag {
		case block.CellLong:
			switch s.T {
			case types.Double:
				out = append(out, types.DoubleValue(float64(int64(c.payload))))
			default:
				out = append(out, types.Value{T: s.T, I: int64(c.payload)})
			}
		case block.CellDouble:
			out = append(out, types.DoubleValue(math.Float64frombits(c.payload)))
		case block.CellBool:
			out = append(out, types.BooleanValue(c.payload != 0))
		}
	})
	return out
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
// the union; mismatched types disable it too (should not happen). Exact sets
// union into an exact set; if either side has only a Bloom filter, the union
// is a Bloom filter holding both sides' keys; if either side says nothing
// about membership, neither does the union.
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
	s.Rows += o.Rows
	switch {
	case !s.hasMembership() || !o.hasMembership():
		s.exact, s.Strs, s.Bloom = nil, nil, nil
	case s.Strs != nil && o.Strs != nil:
		for v := range o.Strs {
			s.Strs[v] = struct{}{}
		}
	case s.exact != nil && o.exact != nil:
		if s.exact.n == 0 {
			adopted := *o.exact
			adopted.shared = true
			s.exact = &adopted
		} else {
			o.exact.each(s.exact.add)
		}
	default:
		s.overflow()
		for i, w := range o.Bloom {
			s.Bloom[i] |= w
		}
		o.eachHash(s.bloomSet)
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
