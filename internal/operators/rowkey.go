package operators

import (
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

// appendCellKey appends the canonical binary encoding of one cell (column col,
// row r). It is the single definition of the engine's key encoding: the batch
// hashing kernels (batchhash.go) fold exactly these bytes, so vectorized and
// fallback paths always agree.
func appendCellKey(buf []byte, col block.Block, r int) []byte {
	if col.IsNull(r) {
		return append(buf, 0)
	}
	switch col.Type() {
	case types.Bigint, types.Date:
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(col.Long(r)))
	case types.Double:
		buf = append(buf, 2)
		// Encode doubles that equal an integer identically to the
		// integer so cross-type joins group correctly.
		f := col.Double(r)
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			buf[len(buf)-1] = 1
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f)))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	case types.Varchar:
		buf = append(buf, 3)
		s := col.Str(r)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	case types.Boolean:
		if col.Bool(r) {
			buf = append(buf, 4, 1)
		} else {
			buf = append(buf, 4, 0)
		}
	default:
		buf = append(buf, 5)
		s := col.Value(r).String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// encodeRowKey appends a canonical binary encoding of the given columns of
// row r to buf. It is the hashing primitive for aggregations, joins,
// distinct, and hash partitioning: equal rows encode identically.
func encodeRowKey(buf []byte, p *block.Page, r int, cols []int) []byte {
	for _, c := range cols {
		buf = appendCellKey(buf, p.Col(c), r)
	}
	return buf
}

// hashRowKey hashes the encoded key with FNV-1a, used for partitioning.
func hashRowKey[K []byte | string](key K) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// HashPartition computes the target partition of row r given the hash
// columns; it is used by partitioned outputs and local exchanges. Page-level
// callers should prefer HashPartitionPage, which batches the hashing.
func HashPartition(p *block.Page, r int, cols []int, parts int) int {
	if parts <= 1 {
		return 0
	}
	var buf [64]byte
	key := encodeRowKey(buf[:0], p, r, cols)
	return int(hashRowKey(key) % uint64(parts))
}

// compareRows orders row a of pa against row b of pb on the sort keys.
// Numeric, varchar, and boolean keys compare through the typed block
// accessors; other types fall back to boxed Value.Compare. Ordering is
// identical to Value.Compare, with NULLS LAST.
func compareRows(pa *block.Page, a int, pb *block.Page, b int, keys []sortKey) int {
	for _, k := range keys {
		ca, cb := pa.Col(k.col), pb.Col(k.col)
		an, bn := ca.IsNull(a), cb.IsNull(b)
		var c int
		switch {
		case an && bn:
			c = 0
		case an:
			c = 1 // NULLS LAST
		case bn:
			c = -1
		default:
			c = compareCells(ca, a, cb, b)
		}
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// compareCells compares two non-null cells without boxing when both sides
// have a typed fast path; mixed numeric pairs compare as doubles, matching
// Value.Compare.
func compareCells(ca block.Block, a int, cb block.Block, b int) int {
	ta, tb := ca.Type(), cb.Type()
	switch {
	case (ta == types.Bigint || ta == types.Date) && (tb == types.Bigint || tb == types.Date):
		x, y := ca.Long(a), cb.Long(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case (ta == types.Double || ta == types.Bigint || ta == types.Date) &&
		(tb == types.Double || tb == types.Bigint || tb == types.Date):
		x, y := ca.Double(a), cb.Double(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case ta == types.Varchar && tb == types.Varchar:
		return strings.Compare(ca.Str(a), cb.Str(b))
	case ta == types.Boolean && tb == types.Boolean:
		x, y := ca.Bool(a), cb.Bool(b)
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	default:
		return ca.Value(a).Compare(cb.Value(b))
	}
}

type sortKey struct {
	col  int
	desc bool
}
