package block

import "math"

// Key cells: the canonical form of one key value, a tag and a payload. The
// hash tables, the hash partitioner and the dynamic filters all key on it, so
// two values are the same key exactly when their cells are equal. NULL has a
// tag of its own (NULL is neither 0 nor ""), and a double equal to an integer
// below 1e15 shares the integer's cell, so BIGINT = DOUBLE joins and groups
// find each other. A fixed-width value's cell is its tag and a uint64; a
// VARCHAR's, or any other type's, exists only as bytes after its tag.
const (
	CellNull    byte = 0
	CellLong    byte = 1 // BIGINT and DATE, and doubles equal to an integer
	CellDouble  byte = 2
	CellVarchar byte = 3
	CellBool    byte = 4
	CellOther   byte = 5 // any other type, by its rendered value
)

// NormDouble returns the cell of a non-null double: the integer's when f
// equals an integer below 1e15 in magnitude (-0.0 is 0's), else its bits
// (NaN matches NaN by them).
func NormDouble(f float64) (tag byte, payload uint64) {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return CellLong, uint64(int64(f))
	}
	return CellDouble, math.Float64bits(f)
}
