package operators

import (
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

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
