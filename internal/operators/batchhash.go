package operators

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/block"
	"repro/internal/types"
)

// Batch hashing kernels (paper §V-B, §V-E): instead of serializing every row
// into a canonical byte key and hashing it with a per-row FNV loop, these
// kernels walk each key column's typed slice once and fold each column into a
// per-row hash vector in place. Byte-layout hashes (hashCol) are bit-identical
// to hashRowKey(encodeRowKey(...)), which keeps hash partitioning across
// workers (HashPartitionPage) in exact agreement with the per-row fallback.
// Fixed-layout table hashes use the cheaper mix64 over normalized cells —
// they never leave the operator, and key equality is verified on the cells
// themselves, so only distribution matters there.
//
// For fixed-width key columns (BIGINT, DATE, DOUBLE, BOOLEAN) each cell also
// normalizes to a (tag, payload) pair whose equality is exactly equality of
// the cell's canonical encoding, which lets the hash tables verify keys
// without materializing any bytes at all. Doubles equal to an integer
// normalize to the integer cell, preserving the engine's cross-type
// double==int join/group equivalence; NULL normalizes to a dedicated tag so
// NULL != 0 and NULL(varchar) != "".

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Normalized cell tags. They match the leading tag byte of encodeRowKey so
// fixed-cell equality is canonical-byte equality.
const (
	cellNull   byte = 0
	cellLong   byte = 1 // also doubles equal to an integer
	cellDouble byte = 2
	cellBool   byte = 4
)

// fixedWidthKey reports whether a key column of type t normalizes to a
// fixed-width (tag, payload) cell. Varchar and Array need byte encodings.
// Unknown is also routed to the byte layout: operators that derive the
// layout from their first input page would otherwise lock into fixed cells
// on an all-NULL batch (typed Unknown) and fail when a later page delivers
// the column's real variable-width type.
func fixedWidthKey(t types.Type) bool {
	switch t {
	case types.Varchar, types.Array, types.Unknown:
		return false
	}
	return true
}

// fixedWidthKeys reports whether every key type normalizes to fixed cells.
// Layout decisions must come from planner types, not first-page block types:
// an all-NULL literal column materializes as an untyped (boolean) block, and
// a layout locked in from such a page would mis-handle later variable-width
// pages of the same column.
func fixedWidthKeys(ts []types.Type) bool {
	for _, t := range ts {
		if !fixedWidthKey(t) {
			return false
		}
	}
	return true
}

// normDouble returns the canonical cell of a non-null double. Doubles that
// equal an integer share the integer's cell (see encodeRowKey).
func normDouble(f float64) (byte, uint64) {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return cellLong, uint64(int64(f))
	}
	return cellDouble, math.Float64bits(f)
}

// normValue normalizes a boxed fixed-width value. It panics on variable-width
// types, mirroring the typed block accessors: callers gate on fixedWidthKey.
func normValue(v types.Value) (byte, uint64) {
	if v.Null {
		return cellNull, 0
	}
	switch v.T {
	case types.Bigint, types.Date:
		return cellLong, uint64(v.I)
	case types.Double:
		return normDouble(v.F)
	case types.Boolean:
		if v.B {
			return cellBool, 1
		}
		return cellBool, 0
	default:
		panic("normValue on variable-width type")
	}
}

// fnvByte folds one byte into h (FNV-1a step).
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

// fnvBytes folds a byte slice into h.
func fnvBytes(h uint64, bs []byte) uint64 {
	for _, b := range bs {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// fnvCell folds a normalized cell into h exactly as hashRowKey folds the
// cell's canonical encodeRowKey bytes.
func fnvCell(h uint64, tag byte, payload uint64) uint64 {
	h = fnvByte(h, tag)
	switch tag {
	case cellNull:
	case cellBool:
		h = fnvByte(h, byte(payload&1))
	default: // cellLong, cellDouble: 8 payload bytes, little-endian
		for i := 0; i < 64; i += 8 {
			h ^= (payload >> i) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// fnvStr folds a varchar cell (tag 3, 4-byte length, bytes) into h.
func fnvStr(h uint64, s string) uint64 {
	h = fnvByte(h, 3)
	n := uint32(len(s))
	for i := 0; i < 32; i += 8 {
		h = fnvByte(h, byte(n>>i))
	}
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// normCol writes the normalized cells of column b into the row-major scratch
// at key position k (stride nk). RLE columns normalize once; dictionary
// columns normalize per dictionary entry and gather through the index vector.
func normCol(b block.Block, cells []uint64, tags []byte, k, nk, n int) {
	switch src := b.(type) {
	case *block.LongBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				tags[i*nk+k], cells[i*nk+k] = cellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = cellLong, uint64(src.Vals[i])
			}
		}
	case *block.DoubleBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				tags[i*nk+k], cells[i*nk+k] = cellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = normDouble(src.Vals[i])
			}
		}
	case *block.BoolBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				tags[i*nk+k], cells[i*nk+k] = cellNull, 0
			} else if src.Vals[i] {
				tags[i*nk+k], cells[i*nk+k] = cellBool, 1
			} else {
				tags[i*nk+k], cells[i*nk+k] = cellBool, 0
			}
		}
	case *block.RLEBlock:
		tag, cell := normValue(src.Val.Value(0))
		for i := 0; i < n; i++ {
			tags[i*nk+k], cells[i*nk+k] = tag, cell
		}
	case *block.DictionaryBlock:
		d := src.Dict
		dn := d.Len()
		dtags := make([]byte, dn)
		dcells := make([]uint64, dn)
		for j := 0; j < dn; j++ {
			dtags[j], dcells[j] = normValue(d.Value(j))
		}
		for i := 0; i < n; i++ {
			id := src.Indices[i]
			tags[i*nk+k], cells[i*nk+k] = dtags[id], dcells[id]
		}
	case *block.LazyBlock:
		normCol(src.Load(), cells, tags, k, nk, n)
	default:
		for i := 0; i < n; i++ {
			if b.IsNull(i) {
				tags[i*nk+k], cells[i*nk+k] = cellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = normValue(b.Value(i))
			}
		}
	}
}

// hashCol folds column b's canonical per-row encoding into the hash vector,
// column-at-a-time. After folding every key column in order, hashes[i] equals
// hashRowKey(encodeRowKey(nil, p, i, cols)).
func hashCol(b block.Block, hashes []uint64, n int) {
	switch src := b.(type) {
	case *block.LongBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], cellNull)
			} else {
				hashes[i] = fnvCell(hashes[i], cellLong, uint64(src.Vals[i]))
			}
		}
	case *block.DoubleBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], cellNull)
			} else {
				tag, cell := normDouble(src.Vals[i])
				hashes[i] = fnvCell(hashes[i], tag, cell)
			}
		}
	case *block.BoolBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], cellNull)
			} else if src.Vals[i] {
				hashes[i] = fnvCell(hashes[i], cellBool, 1)
			} else {
				hashes[i] = fnvCell(hashes[i], cellBool, 0)
			}
		}
	case *block.VarcharBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], cellNull)
			} else {
				hashes[i] = fnvStr(hashes[i], src.Vals[i])
			}
		}
	case *block.RLEBlock:
		enc := appendCellKey(nil, src.Val, 0)
		for i := 0; i < n; i++ {
			hashes[i] = fnvBytes(hashes[i], enc)
		}
	case *block.DictionaryBlock:
		d := src.Dict
		dn := d.Len()
		var arena []byte
		offs := make([]uint32, dn+1)
		for j := 0; j < dn; j++ {
			arena = appendCellKey(arena, d, j)
			offs[j+1] = uint32(len(arena))
		}
		for i := 0; i < n; i++ {
			id := src.Indices[i]
			hashes[i] = fnvBytes(hashes[i], arena[offs[id]:offs[id+1]])
		}
	case *block.LazyBlock:
		hashCol(src.Load(), hashes, n)
	default:
		var buf []byte
		for i := 0; i < n; i++ {
			buf = appendCellKey(buf[:0], b, i)
			hashes[i] = fnvBytes(hashes[i], buf)
		}
	}
}

// batchKeys is the reusable per-page scratch of a hashing operator: the
// per-row hash vector and, in fixed mode, the normalized key cells.
type batchKeys struct {
	fixed  bool
	nk     int
	hashes []uint64
	cells  []uint64 // row-major, nk per row (fixed mode only)
	tags   []byte   // row-major, nk per row (fixed mode only)
	buf    []byte   // canonical-encoding scratch (bytes mode)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer, far
// cheaper than byte-wise FNV. Key-table hashes are consumed only locally (the
// table verifies equality on the cells themselves), so they do not need the
// canonical FNV that cross-worker partitioning requires — HashPartitionPage
// keeps the canonical encoding.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fixed1Hash is the table hash of a single normalized fixed-width key cell —
// the nk==1 case of batchKeys.reset's fused pass. Single-cell fast paths
// (dictionary/RLE memoization in join build/probe and aggregation) must use
// this exact function so their hashes agree with rows inserted via reset.
func fixed1Hash(cell uint64, tag byte) uint64 {
	return mix64(cell ^ uint64(tag)*0x9e3779b97f4a7c15)
}

// bytes1Hash is the table hash of a single canonically-encoded key cell — the
// single-column case of the bytes-layout fold in batchKeys.reset.
func bytes1Hash(enc []byte) uint64 {
	return fnvBytes(fnvOffset, enc)
}

// loadCol unwraps a lazy block so encoding type-switches see the real block.
func loadCol(b block.Block) block.Block {
	if lz, ok := b.(*block.LazyBlock); ok {
		return lz.Load()
	}
	return b
}

// reset recomputes the hash vector (and normalized cells in fixed mode) for
// the key columns of p. fixed must match the owning table's layout; callers
// derive it from the key column types, which are constant per operator.
func (bk *batchKeys) reset(p *block.Page, cols []int, fixed bool) {
	n := p.RowCount()
	bk.fixed = fixed
	bk.nk = len(cols)
	bk.hashes = scratch(bk.hashes, n)
	if fixed {
		bk.cells = scratch(bk.cells, n*bk.nk)
		bk.tags = scratch(bk.tags, n*bk.nk)
		for k, c := range cols {
			normCol(p.Col(c), bk.cells, bk.tags, k, bk.nk, n)
		}
		// One fused pass over the row-major cells: tag folded in via a
		// golden-ratio multiple so equal payloads of different kinds
		// (e.g. long 1 vs bool true) hash apart.
		nk := bk.nk
		if nk == 1 {
			for i := 0; i < n; i++ {
				bk.hashes[i] = fixed1Hash(bk.cells[i], bk.tags[i])
			}
		} else {
			for i := 0; i < n; i++ {
				h := uint64(fnvOffset)
				base := i * nk
				for k := 0; k < nk; k++ {
					h = mix64(h ^ bk.cells[base+k] ^ uint64(bk.tags[base+k])*0x9e3779b97f4a7c15)
				}
				bk.hashes[i] = h
			}
		}
	} else {
		for i := range bk.hashes {
			bk.hashes[i] = fnvOffset
		}
		for _, c := range cols {
			hashCol(p.Col(c), bk.hashes, n)
		}
	}
}

// row returns the normalized cells and tags of row r (fixed mode).
func (bk *batchKeys) row(r int) ([]uint64, []byte) {
	base := r * bk.nk
	return bk.cells[base : base+bk.nk], bk.tags[base : base+bk.nk]
}

// nullKey reports whether any key cell of row r is NULL (fixed mode).
func (bk *batchKeys) nullKey(r int) bool {
	base := r * bk.nk
	for k := 0; k < bk.nk; k++ {
		if bk.tags[base+k] == cellNull {
			return true
		}
	}
	return false
}

// scratch returns per-page scratch of length n with unspecified contents:
// s when it is big enough, else a new array of the next power of two. Page
// sizes vary, and scratch sized to each record high is reallocated at every
// one.
func scratch[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, 1<<bits.Len(uint(n-1)))
}

// hashVecPool recycles hash vectors across HashPartitionPage calls.
var hashVecPool = sync.Pool{New: func() any { return new([]uint64) }}

// HashPartitionPage computes every row's target partition in one batched
// pass, replacing the per-row encodeRowKey+HashPartition loop on the exchange
// hot paths. dst is reused when it has capacity; partition assignment is
// bit-identical to HashPartition for every row.
func HashPartitionPage(p *block.Page, cols []int, parts int, dst []int) []int {
	n := p.RowCount()
	dst = scratch(dst, n)
	if parts <= 1 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	hp := hashVecPool.Get().(*[]uint64)
	hs := scratch(*hp, n)
	for i := range hs {
		hs[i] = fnvOffset
	}
	for _, c := range cols {
		hashCol(p.Col(c), hs, n)
	}
	for i, h := range hs {
		dst[i] = int(h % uint64(parts))
	}
	*hp = hs
	hashVecPool.Put(hp)
	return dst
}

// partitionRows groups a page's rows by target partition, by counting sort:
// rows[offs[t]:offs[t+1]] are, in page order, the rows parts sends to
// partition t of n. rows and offs are scratch the caller keeps from page to
// page, so nothing is allocated per page or grown by append.
func partitionRows(parts []int, n int, rows, offs []int) ([]int, []int) {
	offs = scratch(offs, n+1)
	clear(offs)
	for _, t := range parts {
		offs[t+1]++
	}
	for t := 1; t <= n; t++ {
		offs[t] += offs[t-1]
	}
	rows = scratch(rows, len(parts))
	for r, t := range parts {
		rows[offs[t]] = r
		offs[t]++
	}
	// Every cursor now stands at its partition's end, the next one's start.
	copy(offs[1:], offs)
	offs[0] = 0
	return rows, offs
}
