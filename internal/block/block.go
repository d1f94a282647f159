// Package block implements the engine's columnar in-memory data model.
//
// The unit of data flow between operators is a Page: a columnar encoding of
// a sequence of rows (paper §IV-E1). Each column of a page is a Block with a
// flat in-memory representation. In addition to the plain typed blocks there
// are run-length-encoded and dictionary blocks, which let operators work
// directly on compressed data (paper §V-E, Fig. 5), and lazy blocks, which
// defer reading/decoding a column until it is first accessed (paper §V-D).
package block

import (
	"fmt"
	"sync/atomic"

	"repro/internal/types"
)

// Block is one column of a page: a flat, immutable sequence of values.
//
// The typed accessors (Long, Double, Str, Bool) are fast paths used by
// compiled expression evaluators; Value is the generic boxed accessor.
// Calling a typed accessor on a block of the wrong type panics, as would a
// mistyped array access; the analyzer guarantees the engine never does that.
type Block interface {
	// Len returns the number of rows in the block.
	Len() int
	// Type returns the SQL type of the block's values.
	Type() types.Type
	// IsNull reports whether the row is SQL NULL.
	IsNull(row int) bool
	// Long returns the int64 at row (Bigint/Date blocks).
	Long(row int) int64
	// Double returns the float64 at row (Double blocks).
	Double(row int) float64
	// Str returns the string at row (Varchar blocks).
	Str(row int) string
	// Bool returns the bool at row (Boolean blocks).
	Bool(row int) bool
	// Value returns the boxed value at row.
	Value(row int) types.Value
	// SizeBytes estimates retained memory, used for memory accounting.
	SizeBytes() int64
}

// LongBlock stores BIGINT or DATE values.
type LongBlock struct {
	T     types.Type // Bigint or Date
	Vals  []int64
	Nulls []bool // nil means no nulls
}

// NewLongBlock builds a BIGINT block; nulls may be nil.
func NewLongBlock(vals []int64, nulls []bool) *LongBlock {
	return &LongBlock{T: types.Bigint, Vals: vals, Nulls: nulls}
}

// NewDateBlock builds a DATE block; nulls may be nil.
func NewDateBlock(vals []int64, nulls []bool) *LongBlock {
	return &LongBlock{T: types.Date, Vals: vals, Nulls: nulls}
}

func (b *LongBlock) Len() int         { return len(b.Vals) }
func (b *LongBlock) Type() types.Type { return b.T }
func (b *LongBlock) IsNull(row int) bool {
	return b.Nulls != nil && b.Nulls[row]
}
func (b *LongBlock) Long(row int) int64     { return b.Vals[row] }
func (b *LongBlock) Double(row int) float64 { return float64(b.Vals[row]) }
func (b *LongBlock) Str(row int) string     { panic("Str on LongBlock") }
func (b *LongBlock) Bool(row int) bool      { panic("Bool on LongBlock") }
func (b *LongBlock) Value(row int) types.Value {
	if b.IsNull(row) {
		return types.NullValue(b.T)
	}
	return types.Value{T: b.T, I: b.Vals[row]}
}
func (b *LongBlock) SizeBytes() int64 { return int64(8*len(b.Vals) + len(b.Nulls)) }

// DoubleBlock stores DOUBLE values.
type DoubleBlock struct {
	Vals  []float64
	Nulls []bool
}

// NewDoubleBlock builds a DOUBLE block; nulls may be nil.
func NewDoubleBlock(vals []float64, nulls []bool) *DoubleBlock {
	return &DoubleBlock{Vals: vals, Nulls: nulls}
}

func (b *DoubleBlock) Len() int         { return len(b.Vals) }
func (b *DoubleBlock) Type() types.Type { return types.Double }
func (b *DoubleBlock) IsNull(row int) bool {
	return b.Nulls != nil && b.Nulls[row]
}
func (b *DoubleBlock) Long(row int) int64     { return int64(b.Vals[row]) }
func (b *DoubleBlock) Double(row int) float64 { return b.Vals[row] }
func (b *DoubleBlock) Str(row int) string     { panic("Str on DoubleBlock") }
func (b *DoubleBlock) Bool(row int) bool      { panic("Bool on DoubleBlock") }
func (b *DoubleBlock) Value(row int) types.Value {
	if b.IsNull(row) {
		return types.NullValue(types.Double)
	}
	return types.DoubleValue(b.Vals[row])
}
func (b *DoubleBlock) SizeBytes() int64 { return int64(8*len(b.Vals) + len(b.Nulls)) }

// VarcharBlock stores VARCHAR values.
type VarcharBlock struct {
	Vals  []string
	Nulls []bool
	// size caches SizeBytes, which costs a walk over every string: stats and
	// cache accounting ask for a page's size several times per operator it
	// passes, and a block is immutable, so the walk is done once. Zero means
	// not computed (a block of zero bytes has nothing to walk). Blocks are
	// shared between drivers, hence the atomic; racing first calls store the
	// same number.
	size atomic.Int64
}

// NewVarcharBlock builds a VARCHAR block; nulls may be nil.
func NewVarcharBlock(vals []string, nulls []bool) *VarcharBlock {
	return &VarcharBlock{Vals: vals, Nulls: nulls}
}

func (b *VarcharBlock) Len() int         { return len(b.Vals) }
func (b *VarcharBlock) Type() types.Type { return types.Varchar }
func (b *VarcharBlock) IsNull(row int) bool {
	return b.Nulls != nil && b.Nulls[row]
}
func (b *VarcharBlock) Long(row int) int64     { panic("Long on VarcharBlock") }
func (b *VarcharBlock) Double(row int) float64 { panic("Double on VarcharBlock") }
func (b *VarcharBlock) Str(row int) string     { return b.Vals[row] }
func (b *VarcharBlock) Bool(row int) bool      { panic("Bool on VarcharBlock") }
func (b *VarcharBlock) Value(row int) types.Value {
	if b.IsNull(row) {
		return types.NullValue(types.Varchar)
	}
	return types.VarcharValue(b.Vals[row])
}
func (b *VarcharBlock) SizeBytes() int64 {
	if n := b.size.Load(); n != 0 {
		return n
	}
	n := int64(16*len(b.Vals) + len(b.Nulls))
	for _, s := range b.Vals {
		n += int64(len(s))
	}
	b.size.Store(n)
	return n
}

// BoolBlock stores BOOLEAN values.
type BoolBlock struct {
	Vals  []bool
	Nulls []bool
}

// NewBoolBlock builds a BOOLEAN block; nulls may be nil.
func NewBoolBlock(vals []bool, nulls []bool) *BoolBlock {
	return &BoolBlock{Vals: vals, Nulls: nulls}
}

func (b *BoolBlock) Len() int         { return len(b.Vals) }
func (b *BoolBlock) Type() types.Type { return types.Boolean }
func (b *BoolBlock) IsNull(row int) bool {
	return b.Nulls != nil && b.Nulls[row]
}
func (b *BoolBlock) Long(row int) int64     { panic("Long on BoolBlock") }
func (b *BoolBlock) Double(row int) float64 { panic("Double on BoolBlock") }
func (b *BoolBlock) Str(row int) string     { panic("Str on BoolBlock") }
func (b *BoolBlock) Bool(row int) bool      { return b.Vals[row] }
func (b *BoolBlock) Value(row int) types.Value {
	if b.IsNull(row) {
		return types.NullValue(types.Boolean)
	}
	return types.BooleanValue(b.Vals[row])
}
func (b *BoolBlock) SizeBytes() int64 { return int64(len(b.Vals) + len(b.Nulls)) }

// ArrayBlock stores ARRAY values (boxed; arrays are a usability extension and
// not on the hot path).
type ArrayBlock struct {
	Vals  [][]types.Value
	Nulls []bool
	size  atomic.Int64 // cached SizeBytes, as in VarcharBlock
}

// NewArrayBlock builds an ARRAY block; nulls may be nil.
func NewArrayBlock(vals [][]types.Value, nulls []bool) *ArrayBlock {
	return &ArrayBlock{Vals: vals, Nulls: nulls}
}

func (b *ArrayBlock) Len() int         { return len(b.Vals) }
func (b *ArrayBlock) Type() types.Type { return types.Array }
func (b *ArrayBlock) IsNull(row int) bool {
	return b.Nulls != nil && b.Nulls[row]
}
func (b *ArrayBlock) Long(row int) int64     { panic("Long on ArrayBlock") }
func (b *ArrayBlock) Double(row int) float64 { panic("Double on ArrayBlock") }
func (b *ArrayBlock) Str(row int) string     { panic("Str on ArrayBlock") }
func (b *ArrayBlock) Bool(row int) bool      { panic("Bool on ArrayBlock") }
func (b *ArrayBlock) Value(row int) types.Value {
	if b.IsNull(row) {
		return types.NullValue(types.Array)
	}
	return types.ArrayValue(b.Vals[row])
}
func (b *ArrayBlock) SizeBytes() int64 {
	if n := b.size.Load(); n != 0 {
		return n
	}
	n := int64(24*len(b.Vals) + len(b.Nulls))
	for _, a := range b.Vals {
		n += int64(48 * len(a))
	}
	b.size.Store(n)
	return n
}

// BuildBlock constructs the natural concrete block for a column of boxed
// values of the given type.
func BuildBlock(t types.Type, vals []types.Value) Block {
	n := len(vals)
	var nulls []bool
	hasNull := false
	for i, v := range vals {
		if v.Null {
			if !hasNull {
				nulls = make([]bool, n)
				hasNull = true
			}
			nulls[i] = true
		}
	}
	switch t {
	case types.Bigint, types.Date:
		longs := make([]int64, n)
		for i, v := range vals {
			longs[i] = v.I
		}
		return &LongBlock{T: t, Vals: longs, Nulls: nulls}
	case types.Double:
		ds := make([]float64, n)
		for i, v := range vals {
			ds[i] = v.F
		}
		return &DoubleBlock{Vals: ds, Nulls: nulls}
	case types.Varchar:
		ss := make([]string, n)
		for i, v := range vals {
			ss[i] = v.S
		}
		return &VarcharBlock{Vals: ss, Nulls: nulls}
	case types.Boolean:
		bs := make([]bool, n)
		for i, v := range vals {
			bs[i] = v.B
		}
		return &BoolBlock{Vals: bs, Nulls: nulls}
	case types.Array:
		as := make([][]types.Value, n)
		for i, v := range vals {
			as[i] = v.A
		}
		return &ArrayBlock{Vals: as, Nulls: nulls}
	default:
		// A column of NULL literals with no inferred type.
		bs := make([]bool, n)
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		return &BoolBlock{Vals: bs, Nulls: all}
	}
}

// CopyPositions builds a new block holding the given rows of b, in order.
// It is the engine's gather primitive, used by filters and joins.
func CopyPositions(b Block, rows []int) Block {
	switch src := b.(type) {
	case *LongBlock:
		vals := make([]int64, len(rows))
		var nulls []bool
		for i, r := range rows {
			vals[i] = src.Vals[r]
			if src.Nulls != nil && src.Nulls[r] {
				if nulls == nil {
					nulls = make([]bool, len(rows))
				}
				nulls[i] = true
			}
		}
		return &LongBlock{T: src.T, Vals: vals, Nulls: nulls}
	case *DoubleBlock:
		vals := make([]float64, len(rows))
		var nulls []bool
		for i, r := range rows {
			vals[i] = src.Vals[r]
			if src.Nulls != nil && src.Nulls[r] {
				if nulls == nil {
					nulls = make([]bool, len(rows))
				}
				nulls[i] = true
			}
		}
		return &DoubleBlock{Vals: vals, Nulls: nulls}
	case *VarcharBlock:
		vals := make([]string, len(rows))
		var nulls []bool
		for i, r := range rows {
			vals[i] = src.Vals[r]
			if src.Nulls != nil && src.Nulls[r] {
				if nulls == nil {
					nulls = make([]bool, len(rows))
				}
				nulls[i] = true
			}
		}
		return &VarcharBlock{Vals: vals, Nulls: nulls}
	case *BoolBlock:
		vals := make([]bool, len(rows))
		var nulls []bool
		for i, r := range rows {
			vals[i] = src.Vals[r]
			if src.Nulls != nil && src.Nulls[r] {
				if nulls == nil {
					nulls = make([]bool, len(rows))
				}
				nulls[i] = true
			}
		}
		return &BoolBlock{Vals: vals, Nulls: nulls}
	case *ArrayBlock:
		vals := make([][]types.Value, len(rows))
		var nulls []bool
		for i, r := range rows {
			vals[i] = src.Vals[r]
			if src.Nulls != nil && src.Nulls[r] {
				if nulls == nil {
					nulls = make([]bool, len(rows))
				}
				nulls[i] = true
			}
		}
		return &ArrayBlock{Vals: vals, Nulls: nulls}
	case *RLEBlock:
		return NewRLEBlockFromBlock(src.Val, len(rows))
	case *DictionaryBlock:
		ids := make([]int32, len(rows))
		for i, r := range rows {
			ids[i] = src.Indices[r]
		}
		return &DictionaryBlock{Dict: src.Dict, Indices: ids}
	case *LazyBlock:
		return CopyPositions(src.Load(), rows)
	default:
		// Generic fallback through boxed values.
		vals := make([]types.Value, len(rows))
		for i, r := range rows {
			vals[i] = b.Value(r)
		}
		return BuildBlock(b.Type(), vals)
	}
}

// Slice returns rows [from, to) of b as a new block. Plain and encoded
// blocks slice as zero-copy views over the parent's arrays (blocks are
// immutable, so sharing is safe); this keeps repeated slicing of one large
// page — the morsel queue carving a giant scan page into ~64k-row morsels —
// O(1) per slice instead of copying the shrinking remainder each time.
func Slice(b Block, from, to int) Block {
	if from == 0 && to == b.Len() {
		return b
	}
	switch src := b.(type) {
	case *LongBlock:
		return &LongBlock{T: src.T, Vals: src.Vals[from:to], Nulls: sliceNulls(src.Nulls, from, to)}
	case *DoubleBlock:
		return &DoubleBlock{Vals: src.Vals[from:to], Nulls: sliceNulls(src.Nulls, from, to)}
	case *VarcharBlock:
		return &VarcharBlock{Vals: src.Vals[from:to], Nulls: sliceNulls(src.Nulls, from, to)}
	case *BoolBlock:
		return &BoolBlock{Vals: src.Vals[from:to], Nulls: sliceNulls(src.Nulls, from, to)}
	case *DictionaryBlock:
		return &DictionaryBlock{Dict: src.Dict, Indices: src.Indices[from:to]}
	case *RLEBlock:
		return &RLEBlock{Val: src.Val, Count: to - from}
	case *LazyBlock:
		return Slice(src.Load(), from, to)
	}
	rows := make([]int, to-from)
	for i := range rows {
		rows[i] = from + i
	}
	return CopyPositions(b, rows)
}

func sliceNulls(nulls []bool, from, to int) []bool {
	if nulls == nil {
		return nil
	}
	return nulls[from:to]
}

// Decode returns a fully materialized plain block: lazy blocks are loaded and
// RLE/dictionary encodings are expanded. Used where an operator cannot work
// on the encoded form.
func Decode(b Block) Block {
	switch src := b.(type) {
	case *LazyBlock:
		return Decode(src.Load())
	case *RLEBlock:
		rows := make([]int, src.Count)
		return Decode(CopyPositions(src.Val, rows)) // all zeros: repeat row 0
	case *DictionaryBlock:
		rows := make([]int, len(src.Indices))
		for i, id := range src.Indices {
			rows[i] = int(id)
		}
		return Decode(CopyPositions(src.Dict, rows))
	default:
		return b
	}
}

func typeName(b Block) string { return fmt.Sprintf("%T", b) }
