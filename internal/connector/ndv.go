package connector

import (
	"hash/maphash"
	"math"

	"repro/internal/block"
	"repro/internal/types"
)

var ndvSeed = maphash.MakeSeed()

// FoldDistinct adds the identity of every non-null cell of col to set, the
// one NDV rule of the connectors that fold their statistics an append at a
// time (memconn, raptor, shardsql). Two cells share an identity when they
// render the same (Value.String): an integer, date or boolean is its own
// identity and so is a double's bit pattern (-0.0 is not 0.0; every NaN is one
// value); a string, and anything else through its rendering, is a 64-bit
// hash, whose collisions among a table's values are too rare to move a
// cardinality estimate.
func FoldDistinct(set map[uint64]struct{}, col block.Block) {
	var last uint64
	seen := false
	typ := col.Type()
	for r, n := 0, col.Len(); r < n; r++ {
		if col.IsNull(r) {
			continue
		}
		var id uint64
		switch typ {
		case types.Bigint, types.Date:
			id = uint64(col.Long(r))
		case types.Double:
			f := col.Double(r)
			if f != f {
				f = math.NaN()
			}
			id = math.Float64bits(f)
		case types.Boolean:
			if col.Bool(r) {
				id = 1
			}
		case types.Varchar:
			id = maphash.String(ndvSeed, col.Str(r))
		default:
			id = maphash.String(ndvSeed, col.Value(r).String())
		}
		// Runs of one value are common (clustered keys, flags): skip the
		// lookup for a repeat of the cell before.
		if seen && id == last {
			continue
		}
		last, seen = id, true
		set[id] = struct{}{}
	}
}

// Distinct is a table's distinct cell identities per column (FoldDistinct),
// kept so that a write folds in only the pages it adds.
type Distinct []map[uint64]struct{}

// Fold adds pages, just written to a table of columns cols whose statistics
// were st, and returns the table's statistics: the row count and each
// column's distinct count. The ColumnNDV map is new: a reader may hold st's.
func (d Distinct) Fold(st TableStats, cols []Column, pages []*block.Page) TableStats {
	rows := st.RowCount
	for _, p := range pages {
		rows += int64(p.RowCount())
		for ci := range cols {
			if d[ci] == nil {
				d[ci] = map[uint64]struct{}{}
			}
			FoldDistinct(d[ci], p.Col(ci))
		}
	}
	ndv := make(map[string]int64, len(cols))
	for i, col := range cols {
		ndv[col.Name] = int64(len(d[i]))
	}
	return TableStats{RowCount: rows, ColumnNDV: ndv}
}
