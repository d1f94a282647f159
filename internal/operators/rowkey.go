package operators

import (
	"encoding/binary"
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

// appendCellKey appends the byte encoding of one cell (column col, row r): its
// key cell (block.CellNull and the rest), tag first. Two cells are the same
// key exactly when their encodings are equal, and then their key hashes
// (block.HashAt) are too.
func appendCellKey(buf []byte, col block.Block, r int) []byte {
	if col.IsNull(r) {
		return append(buf, block.CellNull)
	}
	switch col.Type() {
	case types.Bigint, types.Date:
		buf = append(buf, block.CellLong)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(col.Long(r)))
	case types.Double:
		tag, payload := block.NormDouble(col.Double(r))
		buf = append(buf, tag)
		buf = binary.LittleEndian.AppendUint64(buf, payload)
	case types.Varchar:
		buf = append(buf, block.CellVarchar)
		s := col.Str(r)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	case types.Boolean:
		if col.Bool(r) {
			buf = append(buf, block.CellBool, 1)
		} else {
			buf = append(buf, block.CellBool, 0)
		}
	default:
		buf = append(buf, block.CellOther)
		s := col.Value(r).String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// encodeRowKey appends a canonical binary encoding of the given columns of
// row r to buf: the key a bytes-layout key table stores and compares. Equal
// rows encode identically.
func encodeRowKey(buf []byte, p *block.Page, r int, cols []int) []byte {
	for _, c := range cols {
		buf = appendCellKey(buf, p.Col(c), r)
	}
	return buf
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
