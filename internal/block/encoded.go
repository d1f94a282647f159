package block

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// RLEBlock is a run-length-encoded block: one value repeated Count times.
// The paper's Fig. 5 shows an RLE returnflag column ("F" x 6).
type RLEBlock struct {
	Val   Block // single-row block holding the repeated value
	Count int
}

// NewRLEBlockFromBlock wraps a single-row block as an RLE run of count rows.
func NewRLEBlockFromBlock(val Block, count int) *RLEBlock {
	return &RLEBlock{Val: val, Count: count}
}

// NewRLEBlock builds an RLE run of a boxed value.
func NewRLEBlock(v types.Value, count int) *RLEBlock {
	return &RLEBlock{Val: BuildBlock(v.T, []types.Value{v}), Count: count}
}

func (b *RLEBlock) Len() int                  { return b.Count }
func (b *RLEBlock) Type() types.Type          { return b.Val.Type() }
func (b *RLEBlock) IsNull(row int) bool       { return b.Val.IsNull(0) }
func (b *RLEBlock) Long(row int) int64        { return b.Val.Long(0) }
func (b *RLEBlock) Double(row int) float64    { return b.Val.Double(0) }
func (b *RLEBlock) Str(row int) string        { return b.Val.Str(0) }
func (b *RLEBlock) Bool(row int) bool         { return b.Val.Bool(0) }
func (b *RLEBlock) Value(row int) types.Value { return b.Val.Value(0) }
func (b *RLEBlock) SizeBytes() int64          { return b.Val.SizeBytes() + 8 }

// DictionaryBlock stores per-row indices into a (usually small) dictionary
// block. Several pages may share one dictionary (paper §V-C), so page
// processors can evaluate expressions once per dictionary entry and reuse the
// results across pages (paper §V-E).
type DictionaryBlock struct {
	Dict    Block
	Indices []int32
}

// NewDictionaryBlock builds a dictionary block over dict with the given
// per-row indices.
func NewDictionaryBlock(dict Block, indices []int32) *DictionaryBlock {
	return &DictionaryBlock{Dict: dict, Indices: indices}
}

func (b *DictionaryBlock) Len() int               { return len(b.Indices) }
func (b *DictionaryBlock) Type() types.Type       { return b.Dict.Type() }
func (b *DictionaryBlock) IsNull(row int) bool    { return b.Dict.IsNull(int(b.Indices[row])) }
func (b *DictionaryBlock) Long(row int) int64     { return b.Dict.Long(int(b.Indices[row])) }
func (b *DictionaryBlock) Double(row int) float64 { return b.Dict.Double(int(b.Indices[row])) }
func (b *DictionaryBlock) Str(row int) string     { return b.Dict.Str(int(b.Indices[row])) }
func (b *DictionaryBlock) Bool(row int) bool      { return b.Dict.Bool(int(b.Indices[row])) }
func (b *DictionaryBlock) Value(row int) types.Value {
	return b.Dict.Value(int(b.Indices[row]))
}
func (b *DictionaryBlock) SizeBytes() int64 {
	return b.Dict.SizeBytes() + int64(4*len(b.Indices))
}

// LazyBlock defers producing a column until it is first accessed, so that
// highly selective filters never pay to read, decompress, or decode columns
// they end up not touching (paper §V-D).
type LazyBlock struct {
	T      types.Type
	Count  int
	loader func(*Arena) Block
	// arena is what the loader is given to decode into (Page.LeaseLazy):
	// nil, the heap, unless the page's owner lends the page.
	arena *Arena
	// loaded publishes the materialized block atomically: sliced views of
	// one page share the same LazyBlock across drivers, so Load races. An
	// interface field would tear (two-word write) — a concurrent reader
	// could pair the type word with a stale data word and observe an empty
	// block.
	loaded atomic.Pointer[Block]
	mu     sync.Mutex
}

// NewLazyBlock builds a lazy block of the given type and row count; loader is
// invoked at most once, on first access, with the arena the page's owner
// attached (Page.LeaseLazy) or nil, and may lease the block's vectors from it.
func NewLazyBlock(t types.Type, count int, loader func(*Arena) Block) *LazyBlock {
	return &LazyBlock{T: t, Count: count, loader: loader}
}

// Load materializes the underlying block (idempotent, goroutine-safe).
func (b *LazyBlock) Load() Block {
	if p := b.loaded.Load(); p != nil {
		return *p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.loaded.Load(); p != nil {
		return *p
	}
	blk := b.loader(b.arena)
	b.loader, b.arena = nil, nil
	b.loaded.Store(&blk)
	return blk
}

// Loaded reports whether the block has been materialized yet.
func (b *LazyBlock) Loaded() bool { return b.loaded.Load() != nil }

func (b *LazyBlock) Len() int                  { return b.Count }
func (b *LazyBlock) Type() types.Type          { return b.T }
func (b *LazyBlock) IsNull(row int) bool       { return b.Load().IsNull(row) }
func (b *LazyBlock) Long(row int) int64        { return b.Load().Long(row) }
func (b *LazyBlock) Double(row int) float64    { return b.Load().Double(row) }
func (b *LazyBlock) Str(row int) string        { return b.Load().Str(row) }
func (b *LazyBlock) Bool(row int) bool         { return b.Load().Bool(row) }
func (b *LazyBlock) Value(row int) types.Value { return b.Load().Value(row) }
func (b *LazyBlock) SizeBytes() int64 {
	if p := b.loaded.Load(); p != nil {
		return (*p).SizeBytes()
	}
	return 16
}

// DictEncoder dictionary-encodes a BIGINT, DATE or VARCHAR column a page at a
// time under one dictionary that grows from page to page: entries are numbered
// in order of first appearance (NULL takes one), so indices handed out for an
// earlier page stay valid, and every page of the column can share the block
// Dict returns once the last one is in. The zero value is an empty encoder.
type DictEncoder struct {
	typ    types.Type
	strs   dictValues[string]
	longs  dictValues[int64]
	nullAt int32 // the NULL entry's index + 1; 0 while no NULL has been seen
}

// dictValues is the dictionary over one value type: vals[id] is entry id (the
// zero value at the NULL entry), ids finds a value's entry once there are
// more than dictScanEntries of them; fewer are found by scanning vals, which
// for a handful of flags or modes costs less than hashing the value.
type dictValues[T comparable] struct {
	ids  map[T]int32
	vals []T
	hint int // at least this many entries are coming (0: unknown); sizes vals and ids
}

const dictScanEntries = 8

// find returns v's entry. nullAt is the NULL entry's index + 1: its slot holds
// the zero value and is no value's entry.
func (d *dictValues[T]) find(v T, nullAt int32) (int32, bool) {
	if d.ids != nil {
		id, ok := d.ids[v]
		return id, ok
	}
	for id, x := range d.vals {
		if x == v && int32(id) != nullAt-1 {
			return int32(id), true
		}
	}
	return 0, false
}

// add appends an entry — v, or at index nullAt-1 the NULL entry — and returns
// its index.
func (d *dictValues[T]) add(v T, nullAt int32) int32 {
	id := int32(len(d.vals))
	if d.vals == nil && d.hint > 0 {
		// A lower bound misses a few colliding values: room for an eighth more.
		d.hint += d.hint / 8
		d.vals = make([]T, 0, d.hint)
	}
	d.vals = append(d.vals, v)
	switch {
	case d.ids != nil:
		if id != nullAt-1 {
			d.ids[v] = id
		}
	case len(d.vals) > dictScanEntries:
		d.ids = make(map[T]int32, max(2*len(d.vals), d.hint))
		for j, x := range d.vals {
			if int32(j) != nullAt-1 {
				d.ids[x] = int32(j)
			}
		}
	}
	return id
}

// encode appends src's unseen values to the dictionary and returns src's
// indices, or false once the dictionary would pass max entries.
func (d *dictValues[T]) encode(src []T, nulls []bool, nullAt *int32, max int) ([]int32, bool) {
	out := make([]int32, len(src))
	var last T
	lastID := int32(-1)
	for i, v := range src {
		if nulls != nil && nulls[i] {
			if *nullAt == 0 {
				if len(d.vals) >= max {
					return nil, false
				}
				var zero T
				*nullAt = int32(len(d.vals)) + 1
				d.add(zero, *nullAt)
			}
			out[i] = *nullAt - 1
			continue
		}
		// Runs of one value are common (flags, clustered keys): a repeat of
		// the cell before skips the lookup.
		if lastID < 0 || v != last {
			id, ok := d.find(v, *nullAt)
			if !ok {
				if len(d.vals) >= max {
					return nil, false
				}
				id = d.add(v, *nullAt)
			}
			last, lastID = v, id
		}
		out[i] = lastID
	}
	return out, true
}

// Encode returns b's rows as indices into the encoder's dictionary, entering
// the values it has not seen. It returns false when b is not a flat block of
// an encodable type (or not of the type of the pages before it), or once the
// dictionary would hold more than maxEntries: the encoder is then spent.
func (e *DictEncoder) Encode(b Block, maxEntries int) ([]int32, bool) {
	if e.Len() > 0 && b.Type() != e.typ {
		return nil, false
	}
	e.typ = b.Type()
	switch src := b.(type) {
	case *VarcharBlock:
		return e.strs.encode(src.Vals, src.Nulls, &e.nullAt, maxEntries)
	case *LongBlock:
		return e.longs.encode(src.Vals, src.Nulls, &e.nullAt, maxEntries)
	}
	return nil, false
}

// Len is the number of dictionary entries so far, the NULL entry included.
func (e *DictEncoder) Len() int { return len(e.strs.vals) + len(e.longs.vals) }

// Dict returns the dictionary as a block. Call it after the last Encode: the
// block shares the encoder's arrays.
func (e *DictEncoder) Dict() Block {
	var nulls []bool
	if e.nullAt > 0 {
		nulls = make([]bool, e.Len())
		nulls[e.nullAt-1] = true
	}
	if e.typ == types.Varchar {
		return &VarcharBlock{Vals: e.strs.vals, Nulls: nulls}
	}
	return &LongBlock{T: e.typ, Vals: e.longs.vals, Nulls: nulls}
}

// DictEncode builds a dictionary block from a plain block if the column's
// cardinality is low enough to make it worthwhile; otherwise it returns the
// input unchanged. maxRatio caps dictionary size as a fraction of row count.
// A column that surely has more distinct values than that is returned before
// any dictionary is built (distinctAtLeast), and one that may not gets its
// dictionary sized by the same count.
func DictEncode(b Block, maxRatio float64) Block {
	limit := int(maxRatio * float64(b.Len()))
	var enc DictEncoder
	switch src := b.(type) {
	case *LongBlock:
		if enc.longs.hint = distinctAtLeast(src.Vals, src.Nulls, hashLong); enc.longs.hint > limit {
			return b
		}
	case *VarcharBlock:
		if enc.strs.hint = distinctAtLeast(src.Vals, src.Nulls, hashString); enc.strs.hint > limit {
			return b
		}
	}
	indices, ok := enc.Encode(b, limit)
	if !ok || len(indices) == 0 {
		return b
	}
	return &DictionaryBlock{Dict: enc.Dict(), Indices: indices}
}

// sketchBits is the size of the bitmap distinctAtLeast hashes into (2 KiB,
// on the stack).
const sketchLog, sketchBits = 14, 1 << 14

// distinctAtLeast returns a lower bound on the dictionary entries a column
// needs, its NULL entry included, without a set: each value sets the bit its
// hash picks, so no more bits are set than there are distinct values.
func distinctAtLeast[T any](vals []T, nulls []bool, hash func(T) uint64) int {
	var set [sketchBits / 64]uint64
	null := 0
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			null = 1
			continue
		}
		h := hash(v) >> (64 - sketchLog)
		set[h/64] |= 1 << (h % 64)
	}
	n := null
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

var sketchSeed = maphash.MakeSeed()

func hashLong(v int64) uint64    { return uint64(v) * 0x9e3779b97f4a7c15 }
func hashString(s string) uint64 { return maphash.String(sketchSeed, s) }

// RLEEncode returns an RLE block if every row of b holds the same value
// (including all-NULL), otherwise b unchanged. Doubles must match to the bit:
// 0.0 and -0.0 are equal values but not one run, so neither sign is lost.
func RLEEncode(b Block) Block {
	n := b.Len()
	if n == 0 {
		return b
	}
	first := b.Value(0)
	for i := 1; i < n; i++ {
		v := b.Value(i)
		if v.Null != first.Null {
			return b
		}
		if !v.Null && (!v.Equal(first) || math.Float64bits(v.F) != math.Float64bits(first.F)) {
			return b
		}
	}
	return NewRLEBlock(first, n)
}

// Bounds summarizes b for min/max skipping (§V-C): its least and greatest
// non-NULL values, how many rows are NULL, and ok=false when no row holds a
// value. A run is read as its one value and a dictionary as its entries —
// exact for one DictEncode built from the rows, conservative for a dictionary
// shared with other pages — and flat columns in typed loops. Of equal values
// the first is kept, a value that compares false both ways (a NaN after the
// first) moves neither bound, and values without an order (arrays) take the
// first as both: types.Value.Compare's answers, without boxing each row.
func Bounds(b Block) (lo, hi types.Value, nulls int64, ok bool) {
	switch x := b.(type) {
	case *LazyBlock:
		return Bounds(x.Load())
	case *RLEBlock:
		lo, hi, nulls, ok = Bounds(x.Val)
		return lo, hi, nulls * int64(x.Count), ok
	case *DictionaryBlock:
		lo, hi, _, ok = Bounds(x.Dict)
		for _, ix := range x.Indices {
			if x.Dict.IsNull(int(ix)) {
				nulls++
			}
		}
		return lo, hi, nulls, ok
	case *LongBlock:
		return bounds(x.Vals, x.Nulls, func(v int64) types.Value { return types.Value{T: x.T, I: v} })
	case *DoubleBlock:
		return bounds(x.Vals, x.Nulls, types.DoubleValue)
	case *VarcharBlock:
		return bounds(x.Vals, x.Nulls, types.VarcharValue)
	case *BoolBlock:
		// false < true: the least is false if any value is, the greatest true
		// if any is.
		var seen [2]bool
		for i, v := range x.Vals {
			if x.Nulls != nil && x.Nulls[i] {
				nulls++
			} else if v {
				seen[1] = true
			} else {
				seen[0] = true
			}
		}
		if ok = seen[0] || seen[1]; ok {
			lo, hi = types.BooleanValue(!seen[0]), types.BooleanValue(seen[1])
		}
		return lo, hi, nulls, ok
	}
	for r := 0; r < b.Len(); r++ {
		if b.IsNull(r) {
			nulls++
		} else if !ok {
			lo, hi, ok = b.Value(r), b.Value(r), true
		}
	}
	return lo, hi, nulls, ok
}

func bounds[T cmp.Ordered](vals []T, nullMask []bool, box func(T) types.Value) (lo, hi types.Value, nulls int64, ok bool) {
	var l, h T
	for i, v := range vals {
		switch {
		case nullMask != nil && nullMask[i]:
			nulls++
		case !ok:
			l, h, ok = v, v, true
		default:
			if v < l {
				l = v
			}
			if v > h {
				h = v
			}
		}
	}
	if ok {
		lo, hi = box(l), box(h)
	}
	return lo, hi, nulls, ok
}
