package operators

import (
	"math"
	"slices"

	"repro/internal/block"
	"repro/internal/types"
)

// Batch hashing kernels (paper §V-B, §V-E): instead of serializing every row
// into a canonical byte key and hashing it with a per-row FNV loop, these
// kernels walk each key column's typed slice once and fold each column into a
// per-row hash vector in place. Byte-layout hashes (hashCol) are bit-identical
// to hashRowKey(encodeRowKey(...)), which keeps hash partitioning across
// workers (hashPartitionPage) in exact agreement with the per-row fallback.
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

// normValue normalizes a boxed fixed-width value. It panics on variable-width
// types, mirroring the typed block accessors: callers gate on fixedWidthKey.
func normValue(v types.Value) (byte, uint64) {
	if v.Null {
		return block.CellNull, 0
	}
	switch v.T {
	case types.Bigint, types.Date:
		return block.CellLong, uint64(v.I)
	case types.Double:
		return block.NormDouble(v.F)
	case types.Boolean:
		if v.B {
			return block.CellBool, 1
		}
		return block.CellBool, 0
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
	case block.CellNull:
	case block.CellBool:
		h = fnvByte(h, byte(payload&1))
	default: // block.CellLong, block.CellDouble: 8 payload bytes, little-endian
		for i := 0; i < 64; i += 8 {
			h ^= (payload >> i) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// fnvStr folds a varchar cell (its tag, 4-byte length, bytes) into h.
func fnvStr(h uint64, s string) uint64 {
	h = fnvByte(h, block.CellVarchar)
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
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.CellLong, uint64(src.Vals[i])
			}
		}
	case *block.DoubleBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.NormDouble(src.Vals[i])
			}
		}
	case *block.BoolBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else if src.Vals[i] {
				tags[i*nk+k], cells[i*nk+k] = block.CellBool, 1
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.CellBool, 0
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
	case *block.SelectedBlock:
		normSelected(src, cells, tags, k, nk, n, dk)
	default:
		normRows(b, cells, tags, k, nk, n)
	}
}

// normSelected is normCol for a column under a selection: a bigint or
// dictionary source is read through it in place, anything else row by row.
func normSelected(b *block.SelectedBlock, cells []uint64, tags []byte, k, nk, n int, dk *dictKeys) {
	src, sel := block.Unselect(b)
	switch src := src.(type) {
	case *block.LongBlock:
		for i, r := range sel[:n] {
			if src.Nulls != nil && src.Nulls[r] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.CellLong, uint64(src.Vals[r])
			}
		}
	case *block.DictionaryBlock:
		if !dk.covers(src.Dict, n, true) {
			normRows(b, cells, tags, k, nk, n)
			return
		}
		for i, r := range sel[:n] {
			id := src.Indices[r]
			tags[i*nk+k], cells[i*nk+k] = dk.tags[id], dk.cells[id]
		}
	default:
		normRows(b, cells, tags, k, nk, n)
	}
}

// flatLongs gives the values and NULL mask of a key column that is a flat
// bigint block, or a selection over one (sel: row r is source row sel[r]),
// for a direct key table to read where they lie; ok is false for any other
// encoding, which normCol reads.
func flatLongs(b block.Block) (vals []int64, nulls []bool, sel []int, ok bool) {
	src, sel := block.Unselect(b)
	if l, ok := src.(*block.LongBlock); ok {
		return l.Vals, l.Nulls, sel, true
	}
	return nil, nil, nil, false
}

// longSpan is the smallest and largest of n rows of a flatLongs column; ok is
// false when one of them is NULL.
func longSpan(vals []int64, nulls []bool, sel []int, n int) (lo, hi int64, ok bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	if sel == nil {
		for r, v := range vals[:n] {
			if nulls != nil && nulls[r] {
				return 0, 0, false
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		return lo, hi, true
	}
	for _, r := range sel[:n] {
		if nulls != nil && nulls[r] {
			return 0, 0, false
		}
		lo, hi = min(lo, vals[r]), max(hi, vals[r])
	}
	return lo, hi, true
}

// cellSpan is the smallest and largest of normalized single-key cells, as
// signed integers; ok is false when one of them is not an integer (CellLong).
func cellSpan(cells []uint64, tags []byte) (lo, hi int64, ok bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for r, tag := range tags {
		if tag != block.CellLong {
			return 0, 0, false
		}
		lo, hi = min(lo, int64(cells[r])), max(hi, int64(cells[r]))
	}
	return lo, hi, true
}

// normRows is normCol's row-at-a-time case, for any block.
func normRows(b block.Block, cells []uint64, tags []byte, k, nk, n int) {
	for i := 0; i < n; i++ {
		tags[i*nk+k], cells[i*nk+k] = normValue(b.Value(i))
	}
}

// dictKeys is the key form of every entry of one dictionary — canonical
// encodings in an arena (bytes layout) or normalized cells (fixed layout) —
// built once per dictionary identity and kept by whoever hashes a key column
// page after page: pages of one column share their dictionary. It outlives a
// page, so its arrays are its own, not leased.
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
		dk.tags, dk.cells = slices.Grow(dk.tags[:0], dn)[:dn], slices.Grow(dk.cells[:0], dn)[:dn]
		for j := 0; j < dn; j++ {
			dk.tags[j], dk.cells[j] = normValue(d.Value(j))
		}
		return true
	}
	dk.arena, dk.offs = dk.arena[:0], slices.Grow(dk.offs[:0], dn+1)[:dn+1]
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
				hashes[i] = fnvByte(hashes[i], block.CellNull)
			} else {
				hashes[i] = fnvCell(hashes[i], block.CellLong, uint64(src.Vals[i]))
			}
		}
	case *block.DoubleBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], block.CellNull)
			} else {
				tag, cell := block.NormDouble(src.Vals[i])
				hashes[i] = fnvCell(hashes[i], tag, cell)
			}
		}
	case *block.BoolBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], block.CellNull)
			} else if src.Vals[i] {
				hashes[i] = fnvCell(hashes[i], block.CellBool, 1)
			} else {
				hashes[i] = fnvCell(hashes[i], block.CellBool, 0)
			}
		}
	case *block.VarcharBlock:
		for i := 0; i < n; i++ {
			if src.Nulls != nil && src.Nulls[i] {
				hashes[i] = fnvByte(hashes[i], block.CellNull)
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
	case *block.SelectedBlock:
		hashSelected(src, hashes, n, dk)
	default:
		hashRows(b, hashes, n, dk)
	}
}

// hashSelected is hashCol for a column under a selection: a bigint, varchar
// or dictionary source is read through it in place, anything else row by row.
func hashSelected(b *block.SelectedBlock, hashes []uint64, n int, dk *dictKeys) {
	src, sel := block.Unselect(b)
	switch src := src.(type) {
	case *block.LongBlock:
		for i, r := range sel[:n] {
			if src.Nulls != nil && src.Nulls[r] {
				hashes[i] = fnvByte(hashes[i], block.CellNull)
			} else {
				hashes[i] = fnvCell(hashes[i], block.CellLong, uint64(src.Vals[r]))
			}
		}
	case *block.VarcharBlock:
		for i, r := range sel[:n] {
			if src.Nulls != nil && src.Nulls[r] {
				hashes[i] = fnvByte(hashes[i], block.CellNull)
			} else {
				hashes[i] = fnvStr(hashes[i], src.Vals[r])
			}
		}
	case *block.DictionaryBlock:
		if !dk.covers(src.Dict, n, false) {
			hashRows(b, hashes, n, dk)
			return
		}
		arena, offs := dk.arena, dk.offs
		for i, r := range sel[:n] {
			id := src.Indices[r]
			hashes[i] = fnvBytes(hashes[i], arena[offs[id]:offs[id+1]])
		}
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

// batchKeys is what a hashing operator computes for the key columns of a
// page: the per-row hash vector and, in fixed mode, the normalized key cells,
// all leased from the operator's arena for the page (reset); and what it keeps
// from page to page: the dictionary memos and one row's key (rowKey).
type batchKeys struct {
	fixed  bool
	nk     int
	hashes []uint64
	cells  []uint64   // row-major, nk per row (fixed mode only)
	tags   []byte     // row-major, nk per row (fixed mode only)
	dicts  []dictKeys // per key column, the entries of the dictionary it arrives under

	// One row's key: its canonical encoding (bytes mode), or its cells and
	// tags (fixed mode).
	buf      []byte
	rowCells []uint64
	rowTags  []byte
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer, far
// cheaper than byte-wise FNV. Key-table hashes are consumed only locally (the
// table verifies equality on the cells themselves), so they do not need the
// canonical FNV that cross-worker partitioning requires — hashPartitionPage
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

// sizeDicts gives bk a dictionary record for each of nk key columns.
func (bk *batchKeys) sizeDicts(nk int) {
	if nk > len(bk.dicts) {
		bk.dicts = append(bk.dicts, make([]dictKeys, nk-len(bk.dicts))...)
	}
}

// reset computes the hash vector (and normalized cells in fixed mode) for
// the key columns of p into vectors leased from a: normalize, then hashCells,
// in fixed mode. fixed must match the owning table's layout; callers derive it
// from the key column types, which are constant per operator.
func (bk *batchKeys) reset(a *block.Arena, p *block.Page, cols []int, fixed bool) {
	n := p.RowCount()
	if !fixed {
		bk.hashes = block.Lease[uint64](a, n)
		bk.fixed, bk.nk = false, len(cols)
		bk.sizeDicts(bk.nk)
		for i := range bk.hashes {
			bk.hashes[i] = fnvOffset
		}
		for k, c := range cols {
			hashCol(p.Col(c), bk.hashes, n, &bk.dicts[k])
		}
		return
	}
	bk.normalize(a, p, cols)
	bk.hashCells(a, n)
}

// normalize computes the fixed-mode normalized cells of the key columns of p
// into vectors leased from a, and no hash: a direct key table reads none.
func (bk *batchKeys) normalize(a *block.Arena, p *block.Page, cols []int) {
	n := p.RowCount()
	bk.fixed, bk.nk = true, len(cols)
	bk.sizeDicts(bk.nk)
	bk.cells = block.Lease[uint64](a, n*bk.nk)
	bk.tags = block.Lease[byte](a, n*bk.nk)
	for k, c := range cols {
		normCol(p.Col(c), bk.cells, bk.tags, k, bk.nk, n, &bk.dicts[k])
	}
}

// hashCells computes the table hash of each of the n rows normalize left
// cells for, in one fused pass over the row-major cells, into a vector leased
// from a: the pass reset makes after normalize, and a hashed key table's
// after a direct one declined the page.
func (bk *batchKeys) hashCells(a *block.Arena, n int) {
	bk.hashes = block.Lease[uint64](a, n)
	if nk := bk.nk; nk == 1 {
		for i := 0; i < n; i++ {
			bk.hashes[i] = fixed1Hash(bk.cells[i], bk.tags[i])
		}
	} else {
		for i := 0; i < n; i++ {
			bk.hashes[i] = fixedHash(bk.cells[i*nk:(i+1)*nk], bk.tags[i*nk:(i+1)*nk])
		}
	}
}

// rowKey computes the key of the single row r of p as reset computes every
// row's, in place of a reset for the page: in fixed mode the row's normalized
// cells (rowCells, rowTags), else its canonical encoding (buf), and the key's
// table hash, which it returns. It is the miss path of resolveEncoded: a key
// it enters and a key reset's batch enters are found by either.
func (bk *batchKeys) rowKey(p *block.Page, cols []int, r int, fixed bool) uint64 {
	if !fixed {
		bk.buf = encodeRowKey(bk.buf[:0], p, r, cols)
		return hashRowKey(bk.buf)
	}
	bk.rowCells, bk.rowTags = bk.rowCells[:0], bk.rowTags[:0]
	for _, c := range cols {
		tag, cell := normValue(p.Col(c).Value(r))
		bk.rowCells, bk.rowTags = append(bk.rowCells, cell), append(bk.rowTags, tag)
	}
	return fixedHash(bk.rowCells, bk.rowTags)
}

// unresolvedKey marks a combination no row of the page has asked for yet in
// resolveEncoded's memo: key ids are >= 0, -1 is a join's "no such key".
const unresolvedKey = -2

// resolveEncoded resolves a page whose key columns all arrive dictionary- or
// RLE-encoded (paper §V-E): a row's key is then one of a few combinations of
// dictionary entries, named by combining the columns' indices (an RLE column
// is a dictionary of one entry), and the hash table is asked once per
// combination the page references instead of once per row. It writes every
// row's key id into ids, asking miss(r) for the id of row r's key at the first
// row of each combination; combinations no row has are never looked up or
// entered. The memo from combination to key id is leased from a. run reports
// that the page asked for a single combination (every column RLE, or every
// row on the same dictionary entries): ids[0] is every row's. It declines (ok
// false, ids scratch) when a key column is flat, and when the page has fewer
// rows than combinations — the memo then costs more to clear than the rows to
// resolve (the paper's guard).
func resolveEncoded(a *block.Arena, p *block.Page, cols []int, ids []int32, miss func(r int) int32) (run, ok bool) {
	n := len(ids)
	if n == 0 || len(cols) == 0 {
		return false, false
	}
	combos, dicts := 1, 0
	for _, c := range cols {
		kc, _ := block.Unselect(p.Col(c))
		switch kc := kc.(type) {
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
	// Combine the index vectors — a column under a selection read through
	// it — into ids, first key column slowest, then replace each combination
	// by its key id.
	first := true
	for _, c := range cols {
		b, sel := block.Unselect(p.Col(c))
		kc, isDict := b.(*block.DictionaryBlock)
		if !isDict {
			continue
		}
		width, idx := int32(kc.Dict.Len()), kc.Indices
		if first {
			width = 0
			first = false
		}
		if sel == nil { // width 0: the first column starts every id
			for r := range ids {
				ids[r] = ids[r]*width + idx[r]
			}
		} else {
			for r := range ids {
				ids[r] = ids[r]*width + idx[sel[r]]
			}
		}
	}
	memo := block.Lease[int32](a, combos)
	for j := range memo {
		memo[j] = unresolvedKey
	}
	asked := 0
	for r, j := range ids {
		id := memo[j]
		if id == unresolvedKey {
			id = miss(r)
			memo[j] = id
			asked++
		}
		ids[r] = id
	}
	return asked == 1, true
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
		if bk.tags[base+k] == block.CellNull {
			return true
		}
	}
	return false
}

// hashPartitionPage computes every row's target partition of parts in one
// batched pass (bk's canonical hashes of the key columns), into a vector
// leased from a; the assignment is bit-identical to HashPartition for every
// row.
func hashPartitionPage(a *block.Arena, bk *batchKeys, p *block.Page, cols []int, parts int) []int {
	dst := block.Lease[int](a, p.RowCount())
	if parts <= 1 {
		clear(dst)
		return dst
	}
	bk.reset(a, p, cols, false)
	for i, h := range bk.hashes {
		dst[i] = int(h % uint64(parts))
	}
	return dst
}

// partitionRows groups a page's rows by target partition, by counting sort:
// rows[offs[t]:offs[t+1]] are, in page order, the rows parts sends to
// partition t of n, in the integer type of parts (a spilled aggregation's
// group ids are int32). Both vectors are leased from a, so nothing is
// allocated per page or grown by append.
func partitionRows[R int | int32](a *block.Arena, parts []R, n int) (rows []R, offs []int) {
	offs = block.Lease[int](a, n+1)
	clear(offs)
	for _, t := range parts {
		offs[t+1]++
	}
	for t := 1; t <= n; t++ {
		offs[t] += offs[t-1]
	}
	rows = block.Lease[R](a, len(parts))
	for r, t := range parts {
		rows[offs[t]] = R(r)
		offs[t]++
	}
	// Every cursor now stands at its partition's end, the next one's start.
	copy(offs[1:], offs)
	offs[0] = 0
	return rows, offs
}
