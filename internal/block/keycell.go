package block

import (
	"math"

	"repro/internal/types"
)

// Key cells: the canonical form of one key value, a tag and a payload. The
// hash tables, the hash partitioner and the dynamic filters all key on it, so
// two values are the same key exactly when their cells are equal. NULL has a
// tag of its own (NULL is neither 0 nor ""), and a double equal to an integer
// below 1e15 shares the integer's cell, so BIGINT = DOUBLE joins and groups
// find each other. A fixed-width value's cell is its tag and a uint64; a
// VARCHAR's, or any other type's, exists only as bytes after its tag.
//
// The key hash: every consumer of a key's hash computes it here, so one key
// has one hash wherever it is hashed — in the exchange, a raptor bucket, a
// key table, a spill partition, a DISTINCT set or a dynamic filter, and under
// every encoding. A fixed-width cell hashes by HashCell, a VARCHAR by
// HashString, any other value by its rendered text (HashAt), and a key of
// several columns folds its columns' hashes in order (HashFold). The hash is
// deterministic, with no per-process seed: HTTP workers route by it.
//
// Its consumers read disjoint bits of it, so that the keys one of them holds
// still spread over the bits another reads:
//   - a key table's slot: the low bits (h & mask);
//   - the exchange and raptor's buckets: bits 32 and up (Route);
//   - a spill partition: the top four bits (spill.Partition);
//   - a dynamic filter's Bloom: bits 0-15 and 16-31, which the exchange does
//     not read.
//
// Hashes that are not of a key are not this one: the TPC-H generator's (it
// seeds the data), the distinct-count sketches (distinctAtLeast, the
// connectors' NDV), hive's listing, the result cache, the accountant and
// fault injection.
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

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer. It maps 0
// to 0, which makes HashFold(0, c) c.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const golden = 0x9e3779b97f4a7c15

// HashCell is the hash of a fixed-width key cell: splitmix64 (the golden-ratio
// step, then mix64) over the payload with the tag folded in by a golden-ratio
// multiple, so equal payloads of different kinds (long 1 and bool true) hash
// apart. The step keeps the NULL cell off hash 0.
func HashCell(tag byte, payload uint64) uint64 {
	return mix64((payload ^ uint64(tag)*golden) + golden)
}

// HashString is the hash of a VARCHAR key cell: FNV-1a over its bytes, mixed
// as a cell.
func HashString(s string) uint64 { return HashCell(CellVarchar, fnv1a(s)) }

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashFold folds c, the hash of a key's next column, into h, the hash of the
// columns before it (0 before the first): a one-column key's hash is its
// column's. Mixing h first keeps (a, a) off 0 and (a, b) apart from (b, a).
func HashFold(h, c uint64) uint64 { return mix64(h) ^ c }

// HashAt is the hash of the key cell at row r of b, for a block of any type
// and encoding, read through its accessors: the row-at-a-time reference the
// column kernels agree with.
func HashAt(b Block, r int) uint64 {
	if b.IsNull(r) {
		return HashCell(CellNull, 0)
	}
	switch b.Type() {
	case types.Bigint, types.Date:
		return HashCell(CellLong, uint64(b.Long(r)))
	case types.Double:
		return HashCell(NormDouble(b.Double(r)))
	case types.Varchar:
		return HashString(b.Str(r))
	case types.Boolean:
		if b.Bool(r) {
			return HashCell(CellBool, 1)
		}
		return HashCell(CellBool, 0)
	}
	return HashCell(CellOther, fnv1a(b.Value(r).String()))
}

// Route is the one of n consumers (an exchange's, a raptor table's buckets)
// that a key whose hash is h goes to: bits 32 and up, mod n, so that the keys
// one consumer holds still spread over a key table's low bits.
func Route(h uint64, n int) int { return int((h >> 32) % uint64(n)) }
