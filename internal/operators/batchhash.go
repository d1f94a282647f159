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
// columns normalize per dictionary entry (kept in dk while pages share the
// dictionary) and gather through the index vector.
func normCol(b block.Block, cells []uint64, tags []byte, k, nk, n int, dk *dictKeys) {
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
		if !dk.covers(src.Dict, n, true) {
			normRows(b, cells, tags, k, nk, n)
			return
		}
		for i := 0; i < n; i++ {
			id := src.Indices[i]
			tags[i*nk+k], cells[i*nk+k] = dk.tags[id], dk.cells[id]
		}
	case *block.LazyBlock:
		normCol(src.Load(), cells, tags, k, nk, n, dk)
	default:
		normRows(b, cells, tags, k, nk, n)
	}
}

// normRows is normCol's row-at-a-time case, for any block.
func normRows(b block.Block, cells []uint64, tags []byte, k, nk, n int) {
	for i := 0; i < n; i++ {
		tags[i*nk+k], cells[i*nk+k] = normValue(b.Value(i))
	}
}

// dictKeys is the key form of every entry of one dictionary — canonical
// encodings in an arena (bytes layout) or normalized cells (fixed layout) —
// built once per dictionary identity and kept as scratch by whoever hashes a
// key column page after page: pages of one column share their dictionary.
type dictKeys struct {
	dict  block.Block
	fixed bool
	arena []byte
	offs  []uint32
	tags  []byte
	cells []uint64
	row   []byte // one row's encoding, when the column is hashed row by row
}

// covers makes dk hold d's entries in the asked layout and reports true; it
// reports false, holding what it held, when that takes building them for a
// dictionary with more entries than the page has rows — the rows are then
// encoded one by one for less (the paper's guard, §V-E).
func (dk *dictKeys) covers(d block.Block, rows int, fixed bool) bool {
	if dk.dict == d && dk.fixed == fixed {
		return true
	}
	dn := d.Len()
	if dn > rows {
		return false
	}
	dk.dict, dk.fixed = d, fixed
	if fixed {
		dk.tags, dk.cells = scratch(dk.tags, dn), scratch(dk.cells, dn)
		for j := 0; j < dn; j++ {
			dk.tags[j], dk.cells[j] = normValue(d.Value(j))
		}
		return true
	}
	dk.arena, dk.offs = dk.arena[:0], scratch(dk.offs, dn+1)
	dk.offs[0] = 0
	for j := 0; j < dn; j++ {
		dk.arena = appendCellKey(dk.arena, d, j)
		dk.offs[j+1] = uint32(len(dk.arena))
	}
	return true
}

// hashCol folds column b's canonical per-row encoding into the hash vector,
// column-at-a-time. After folding every key column in order, hashes[i] equals
// hashRowKey(encodeRowKey(nil, p, i, cols)). dk is the caller's scratch for
// this key column's dictionary, should it arrive under one.
func hashCol(b block.Block, hashes []uint64, n int, dk *dictKeys) {
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
		if !dk.covers(src.Dict, n, false) {
			hashRows(b, hashes, n, dk)
			return
		}
		arena, offs := dk.arena, dk.offs
		for i := 0; i < n; i++ {
			id := src.Indices[i]
			hashes[i] = fnvBytes(hashes[i], arena[offs[id]:offs[id+1]])
		}
	case *block.LazyBlock:
		hashCol(src.Load(), hashes, n, dk)
	default:
		hashRows(b, hashes, n, dk)
	}
}

// hashRows is hashCol's row-at-a-time case, for any block.
func hashRows(b block.Block, hashes []uint64, n int, dk *dictKeys) {
	for i := 0; i < n; i++ {
		dk.row = appendCellKey(dk.row[:0], b, i)
		hashes[i] = fnvBytes(hashes[i], dk.row)
	}
}

// batchKeys is the reusable per-page scratch of a hashing operator: the
// per-row hash vector and, in fixed mode, the normalized key cells.
type batchKeys struct {
	fixed  bool
	nk     int
	hashes []uint64
	cells  []uint64   // row-major, nk per row (fixed mode only)
	tags   []byte     // row-major, nk per row (fixed mode only)
	buf    []byte     // canonical-encoding scratch (bytes mode)
	dicts  []dictKeys // per key column, the entries of the dictionary it arrives under
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

// fixed1Hash is the table hash of a single normalized fixed-width key cell.
func fixed1Hash(cell uint64, tag byte) uint64 {
	return mix64(cell ^ uint64(tag)*0x9e3779b97f4a7c15)
}

// fixedHash is the table hash of one row's normalized cells: the tag is
// folded in via a golden-ratio multiple so equal payloads of different kinds
// (e.g. long 1 vs bool true) hash apart. reset hashes a page's rows with it
// and rowKey a single row, so a key hashes the same whichever resolved it.
func fixedHash(cells []uint64, tags []byte) uint64 {
	if len(cells) == 1 {
		return fixed1Hash(cells[0], tags[0])
	}
	h := uint64(fnvOffset)
	for k, cell := range cells {
		h = mix64(h ^ cell ^ uint64(tags[k])*0x9e3779b97f4a7c15)
	}
	return h
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
	bk.dicts = extend(bk.dicts, bk.nk)
	if fixed {
		bk.cells = scratch(bk.cells, n*bk.nk)
		bk.tags = scratch(bk.tags, n*bk.nk)
		for k, c := range cols {
			normCol(p.Col(c), bk.cells, bk.tags, k, bk.nk, n, &bk.dicts[k])
		}
		// One fused pass over the row-major cells.
		nk := bk.nk
		if nk == 1 {
			for i := 0; i < n; i++ {
				bk.hashes[i] = fixed1Hash(bk.cells[i], bk.tags[i])
			}
		} else {
			for i := 0; i < n; i++ {
				bk.hashes[i] = fixedHash(bk.cells[i*nk:(i+1)*nk], bk.tags[i*nk:(i+1)*nk])
			}
		}
	} else {
		for i := range bk.hashes {
			bk.hashes[i] = fnvOffset
		}
		for k, c := range cols {
			hashCol(p.Col(c), bk.hashes, n, &bk.dicts[k])
		}
	}
}

// rowKey computes the key of the single row r of p as reset computes every
// row's, in place of a reset for the page: in fixed mode the row's normalized
// cells (cells, tags), else its canonical encoding (buf), and the key's table
// hash, which it returns. It is the miss path of encodedKeys: a key it enters
// and a key reset's batch enters are found by either.
func (bk *batchKeys) rowKey(p *block.Page, cols []int, r int, fixed bool) uint64 {
	if !fixed {
		bk.buf = encodeRowKey(bk.buf[:0], p, r, cols)
		return hashRowKey(bk.buf)
	}
	bk.cells, bk.tags = scratch(bk.cells, len(cols)), scratch(bk.tags, len(cols))
	for k, c := range cols {
		bk.tags[k], bk.cells[k] = normValue(p.Col(c).Value(r))
	}
	return fixedHash(bk.cells, bk.tags)
}

// unresolvedKey marks a combination no row of the page has asked for yet in
// an encodedKeys memo: key ids are >= 0, -1 is a join's "no such key".
const unresolvedKey = -2

// encodedKeys resolves the pages whose key columns all arrive dictionary- or
// RLE-encoded (paper §V-E): a row's key is then one of a few combinations of
// dictionary entries, named by combining the columns' indices (an RLE column
// is a dictionary of one entry), and the hash table is asked once per
// combination the page references instead of once per row.
type encodedKeys struct {
	memo []int32 // per page: combination → key id, or unresolvedKey
}

// resolve writes every row's key id into ids, asking miss(r) for the id of row
// r's key at the first row of each combination; combinations no row has are
// never looked up or entered. run reports that the page is a single
// combination (every column RLE): ids[0] is every row's. It declines (ok
// false, ids scratch) when a key column is flat, and when the page has fewer
// rows than combinations — the memo then costs more to clear than the rows to
// resolve (the paper's guard).
func (e *encodedKeys) resolve(p *block.Page, cols []int, ids []int32, miss func(r int) int32) (run, ok bool) {
	n := len(ids)
	if n == 0 || len(cols) == 0 {
		return false, false
	}
	combos, dicts := 1, 0
	for _, c := range cols {
		switch kc := loadCol(p.Col(c)).(type) {
		case *block.RLEBlock:
		case *block.DictionaryBlock:
			dicts++
			if combos *= kc.Dict.Len(); combos > n {
				return false, false
			}
		default:
			return false, false
		}
	}
	if dicts == 0 {
		id := miss(0)
		for r := range ids {
			ids[r] = id
		}
		return true, true
	}
	// Combine the index vectors into ids, first key column slowest, then
	// replace each combination by its key id.
	first := true
	for _, c := range cols {
		kc, isDict := loadCol(p.Col(c)).(*block.DictionaryBlock)
		switch {
		case !isDict:
		case first:
			copy(ids, kc.Indices)
			first = false
		default:
			width, idx := int32(kc.Dict.Len()), kc.Indices
			for r := range ids {
				ids[r] = ids[r]*width + idx[r]
			}
		}
	}
	e.memo = scratch(e.memo, combos)
	memo := e.memo
	for j := range memo {
		memo[j] = unresolvedKey
	}
	for r, j := range ids {
		id := memo[j]
		if id == unresolvedKey {
			id = miss(r)
			memo[j] = id
		}
		ids[r] = id
	}
	return false, true
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

// partitionScratch is what HashPartitionPage keeps between calls: the hash
// vector and, per hash column, the encodings of the dictionary it arrives
// under.
type partitionScratch struct {
	hashes []uint64
	dicts  []dictKeys
}

// partitionScratchPool recycles the scratch across HashPartitionPage calls.
var partitionScratchPool = sync.Pool{New: func() any { return new(partitionScratch) }}

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
	ps := partitionScratchPool.Get().(*partitionScratch)
	hs := scratch(ps.hashes, n)
	for i := range hs {
		hs[i] = fnvOffset
	}
	ps.dicts = extend(ps.dicts, len(cols))
	for k, c := range cols {
		hashCol(p.Col(c), hs, n, &ps.dicts[k])
	}
	for i, h := range hs {
		dst[i] = int(h % uint64(parts))
	}
	ps.hashes = hs
	partitionScratchPool.Put(ps)
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
