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
// time (memconn, raptor). Two cells share an identity when they render the
// same (Value.String): an integer, date or boolean is its own identity and so
// is a double's bit pattern (-0.0 is not 0.0; every NaN is one value); a
// string, and anything else through its rendering, is a 64-bit hash, whose
// collisions among a table's values are too rare to move a cardinality
// estimate.
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
