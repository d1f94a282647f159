// Package dynfilter implements runtime dynamic join filters (the §IV-B
// adaptivity the paper defers): during a hash-join build the engine collects
// a per-key-column summary — an exact key set while the distinct count stays
// under a configurable cardinality, min/max bounds, and a bloom filter above
// the threshold — and ships it to the probe side, where it runs as an extra
// scan predicate and as min/max bounds for stripe/split skipping.
//
// Correctness contract: a summary may only ever claim "this value cannot
// match any build row". Values are normalized exactly like the join hash
// table's key cells (see internal/operators/batchhash.go normValue): doubles
// equal to an integer share the integer's cell so BIGINT==DOUBLE joins filter
// correctly, NaN uses its raw bit pattern (the join matches NaN==NaN through
// Float64bits, so the filter must too), and -0.0 folds to the integer cell 0.
// NULL build keys never join, so they are excluded from summaries; NULL probe
// keys never pass a filter, which is safe for the join types filters attach
// to (INNER/SEMI/RIGHT — types whose output drops unmatched probe rows).
//
// Delivery is best-effort: a late, lost, or partial summary degrades to an
// unfiltered scan, never a hang or a row difference.
package dynfilter

import (
	"math"

	"repro/internal/types"
)

// Normalized cell tags, mirroring internal/operators/batchhash.go. The
// duplication is deliberate: operators cannot be imported here (it imports
// exec-adjacent packages), and these four constants are the stable canonical
// key encoding shared by the hash table, the partitioner, and now filters.
const (
	cellNull   byte = 0
	cellLong   byte = 1 // also doubles equal to an integer
	cellDouble byte = 2
	cellBool   byte = 4
)

// cell is one normalized fixed-width key value.
type cell struct {
	tag     byte
	payload uint64
}

// normDouble folds a non-null double onto its canonical cell, sharing the
// integer cell when the value is integral (double==int join semantics).
func normDouble(f float64) cell {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return cell{cellLong, uint64(int64(f))}
	}
	return cell{cellDouble, math.Float64bits(f)}
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

	// Bloom is a fixed-size blocked bloom over the canonical cell hash,
	// populated from the start so overflowing the exact set loses nothing.
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
// full; tag cellNull marks an empty slot (NULL keys are never collected). One
// goroutine writes it while its summary is collected or merged; published, it
// is only read (probes run concurrently), in a few ns where a Go map's hashing
// costs more than the vectorized join probe the filter is trying to save.
type cellSet struct {
	tags     []byte // cellNull: an empty slot; 9 bytes a slot, not a padded 16
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
	for i := cellHash(c) & mask; ; i = (i + 1) & mask {
		if t.tags[i] == cellNull || (t.tags[i] == c.tag && t.payloads[i] == c.payload) {
			return i
		}
	}
}

func (t *cellSet) has(c cell) bool { return t.tags[t.find(c)] != cellNull }

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
		if tag != cellNull {
			fn(cell{tag, t.payloads[i]})
		}
	}
}

// matchCell is the shared fixed-width membership test: exact set when it
// survived, bloom otherwise; a varchar build never equals a fixed-width
// probe.
func (s *Summary) matchCell(c cell) bool {
	if s.exact != nil {
		return s.exact.has(c)
	}
	if s.Strs != nil {
		return false
	}
	return s.bloomHas(cellHash(c))
}

// NewSummary returns an empty (matches-nothing) summary for type t.
func NewSummary(t types.Type) *Summary {
	s := &Summary{T: t, Bloom: make([]uint64, bloomWords)}
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

// splitmix64 is the bloom hash finalizer (matches the operator-local hash
// family; any good 64-bit mixer works here since blooms never cross tasks
// un-merged with different functions).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Summary) bloomSet(h uint64) {
	h1 := h & (BloomBits - 1)
	h2 := (h >> 32) & (BloomBits - 1)
	s.Bloom[h1>>6] |= 1 << (h1 & 63)
	s.Bloom[h2>>6] |= 1 << (h2 & 63)
}

func (s *Summary) bloomHas(h uint64) bool {
	h1 := h & (BloomBits - 1)
	h2 := (h >> 32) & (BloomBits - 1)
	return s.Bloom[h1>>6]&(1<<(h1&63)) != 0 && s.Bloom[h2>>6]&(1<<(h2&63)) != 0
}

func cellHash(c cell) uint64 {
	return splitmix64(uint64(c.tag)*0x9e3779b97f4a7c15 ^ c.payload)
}

func strHash(v string) uint64 {
	// FNV-1a, finalized through splitmix for bloom bit spread.
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	return splitmix64(h)
}

// addCell records one normalized non-null fixed-width key.
func (s *Summary) addCell(c cell, maxSet int) {
	s.Rows++
	s.bloomSet(cellHash(c))
	if t := s.exact; t != nil && !t.has(c) {
		if t.n >= maxSet {
			s.exact = nil // overflow: bloom + bounds carry on
		} else {
			t.add(c)
		}
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
	s.addCell(cell{cellLong, uint64(v)}, maxSet)
	widen(s, v, &s.Min.I, &s.Max.I, types.Value{T: s.T, I: v})
}

// AddDouble records a non-null double key.
func (s *Summary) AddDouble(f float64, maxSet int) {
	s.addCell(normDouble(f), maxSet)
	if math.IsNaN(f) {
		s.poisonBounds()
		return
	}
	widen(s, f, &s.Min.F, &s.Max.F, types.DoubleValue(f))
}

func boolCell(b bool) cell {
	if b {
		return cell{cellBool, 1}
	}
	return cell{cellBool, 0}
}

// AddBool records a non-null boolean key.
func (s *Summary) AddBool(b bool, maxSet int) { s.addCell(boolCell(b), maxSet) }

// AddStr records a non-null varchar key.
func (s *Summary) AddStr(v string, maxSet int) {
	s.Rows++
	s.bloomSet(strHash(v))
	if s.Strs != nil {
		if _, ok := s.Strs[v]; !ok {
			if len(s.Strs) >= maxSet {
				s.Strs = nil
			} else {
				s.Strs[v] = struct{}{}
			}
		}
	}
	widen(s, v, &s.Min.S, &s.Max.S, types.VarcharValue(v))
}

// AddValue records a boxed key value. NULLs are skipped.
func (s *Summary) AddValue(v types.Value, maxSet int) {
	if s.Disabled || v.Null {
		return
	}
	switch v.T {
	case types.Bigint, types.Date:
		s.AddLong(v.I, maxSet)
	case types.Double:
		s.AddDouble(v.F, maxSet)
	case types.Boolean:
		s.AddBool(v.B, maxSet)
	case types.Varchar:
		s.AddStr(v.S, maxSet)
	default:
		s.Disabled = true
	}
}

// --- probe-side membership (the vecfilter kernels call these) ---

// MatchLong reports whether a bigint/date probe value may match a build key.
func (s *Summary) MatchLong(v int64) bool {
	return s.matchCell(cell{cellLong, uint64(v)})
}

// MatchDouble reports whether a double probe value may match a build key.
func (s *Summary) MatchDouble(f float64) bool {
	return s.matchCell(normDouble(f))
}

// MatchBool reports whether a boolean probe value may match a build key.
func (s *Summary) MatchBool(b bool) bool { return s.matchCell(boolCell(b)) }

// MatchStr reports whether a varchar probe value may match a build key.
func (s *Summary) MatchStr(v string) bool {
	if s.Strs != nil {
		_, ok := s.Strs[v]
		return ok
	}
	if s.exact != nil {
		return false // fixed-width build keys never equal a varchar probe
	}
	return s.bloomHas(strHash(v))
}

// MatchValue is the boxed fallback used for exotic block types.
func (s *Summary) MatchValue(v types.Value) bool {
	if s.Disabled {
		return true
	}
	if v.Null {
		return false
	}
	switch v.T {
	case types.Bigint, types.Date:
		return s.MatchLong(v.I)
	case types.Double:
		return s.MatchDouble(v.F)
	case types.Boolean:
		return s.MatchBool(v.B)
	case types.Varchar:
		return s.MatchStr(v.S)
	default:
		return true // no safe test: keep the row
	}
}

// reserve makes room in a still-empty exact set for keys cells at once,
// instead of by doubling.
func (s *Summary) reserve(keys int) {
	if s.exact != nil && s.exact.n == 0 && 2*keys > len(s.exact.tags) {
		s.exact = newCellSet(keys)
	}
}

// HasExact reports whether the summary still carries its exact key set.
func (s *Summary) HasExact() bool { return s.exact != nil || s.Strs != nil }

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
		case cellLong:
			switch s.T {
			case types.Double:
				out = append(out, types.DoubleValue(float64(int64(c.payload))))
			default:
				out = append(out, types.Value{T: s.T, I: int64(c.payload)})
			}
		case cellDouble:
			out = append(out, types.DoubleValue(math.Float64frombits(c.payload)))
		case cellBool:
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
// the union; mismatched types disable it too (should not happen).
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	if o.Disabled || s.T != o.T || len(o.Bloom) != len(s.Bloom) {
		s.Disabled = true
		return
	}
	if s.Disabled {
		return
	}
	s.Rows += o.Rows
	for i := range s.Bloom {
		s.Bloom[i] |= o.Bloom[i]
	}
	switch {
	case s.Strs != nil:
		if o.Strs == nil {
			s.Strs = nil
		} else {
			for v := range o.Strs {
				s.Strs[v] = struct{}{}
			}
		}
	case s.exact != nil:
		switch {
		case o.exact == nil:
			s.exact = nil
		case s.exact.n == 0:
			adopted := *o.exact
			adopted.shared = true
			s.exact = &adopted
		default:
			o.exact.each(s.exact.add)
		}
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
