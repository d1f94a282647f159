package operators

import (
	"math"
	"slices"

	"repro/internal/block"
	"repro/internal/types"
)

// Batch hashing kernels (paper §V-B, §V-E): instead of hashing a key row by
// row, these kernels walk each key column's typed slice once and fold each
// column's cell hashes into a per-row hash vector in place (hashCol). The hash
// is the one key hash (block.HashCell, block.HashString, block.HashFold), so
// the exchange (hashPartitionPage), a spill partition and a key table read
// disjoint bits of the same value, whatever layout or encoding hashed it.
//
// For fixed-width key columns (BIGINT, DATE, DOUBLE, BOOLEAN) each cell also
// normalizes to a (tag, payload) pair whose equality is exactly equality of
// the cell's canonical encoding, which lets the hash tables verify keys
// without materializing any bytes at all. Doubles equal to an integer
// normalize to the integer cell, preserving the engine's cross-type
// double==int join/group equivalence; NULL normalizes to a dedicated tag so
// NULL != 0 and NULL(varchar) != "".

// nullHash is a NULL key cell's hash.
var nullHash = block.HashCell(block.CellNull, 0)

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

// normCol writes the normalized cells of column b into the row-major scratch
// at key position k (stride nk). A flat column, or a selection over one, is
// read where it lies; RLE columns normalize once; dictionary columns
// normalize per dictionary entry (kept in dk while pages share the
// dictionary) and gather through the index vector.
func normCol(b block.Block, cells []uint64, tags []byte, k, nk, n int, dk *dictKeys) {
	src, sel := block.Unselect(b)
	switch src := src.(type) {
	case *block.LongBlock:
		for i := 0; i < n; i++ {
			if r := at(sel, i); src.Nulls != nil && src.Nulls[r] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.CellLong, uint64(src.Vals[r])
			}
		}
	case *block.DoubleBlock:
		for i := 0; i < n; i++ {
			if r := at(sel, i); src.Nulls != nil && src.Nulls[r] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				tags[i*nk+k], cells[i*nk+k] = block.NormDouble(src.Vals[r])
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
			id := src.Indices[at(sel, i)]
			tags[i*nk+k], cells[i*nk+k] = dk.tags[id], dk.cells[id]
		}
	default:
		normRows(b, cells, tags, k, nk, n)
	}
}

// at is the row of a selection's source that row i reads: sel[i], or i
// when there is no selection.
func at(sel []int, i int) int {
	if sel == nil {
		return i
	}
	return sel[i]
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

// dictKeys is the key form of every entry of one dictionary — its cell hash
// (bytes layout) or its normalized cell (fixed layout) — built once per
// dictionary identity and kept by whoever hashes a key column page after
// page: pages of one column share their dictionary. It outlives a page, so
// its arrays are its own, not leased.
type dictKeys struct {
	dict   block.Block
	fixed  bool
	hashes []uint64
	tags   []byte
	cells  []uint64
}

// covers makes dk hold d's entries in the asked layout and reports true; it
// reports false, holding what it held, when that takes building them for a
// dictionary with more entries than the page has rows — the rows are then
// hashed one by one for less (the paper's guard, §V-E).
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
	dk.hashes = slices.Grow(dk.hashes[:0], dn)[:dn]
	for j := 0; j < dn; j++ {
		dk.hashes[j] = block.HashAt(d, j)
	}
	return true
}

// hashCol folds the cell hashes of column b into the hash vector,
// column-at-a-time (block.HashFold): after every key column in order,
// hashes[i] is row i's key hash. A flat column, or a selection over one, is
// read where it lies. dk is the caller's scratch for this key column's
// dictionary, should it arrive under one.
func hashCol(b block.Block, hashes []uint64, n int, dk *dictKeys) {
	src, sel := block.Unselect(b)
	switch src := src.(type) {
	case *block.LongBlock:
		if sel == nil { // the exchange's common case, without the indirection
			for i, v := range src.Vals[:n] {
				c := block.HashCell(block.CellLong, uint64(v))
				if src.Nulls != nil && src.Nulls[i] {
					c = nullHash
				}
				hashes[i] = block.HashFold(hashes[i], c)
			}
			return
		}
		for i, r := range sel[:n] {
			c := nullHash
			if src.Nulls == nil || !src.Nulls[r] {
				c = block.HashCell(block.CellLong, uint64(src.Vals[r]))
			}
			hashes[i] = block.HashFold(hashes[i], c)
		}
	case *block.DoubleBlock:
		for i := range hashes[:n] {
			c := nullHash
			if r := at(sel, i); src.Nulls == nil || !src.Nulls[r] {
				c = block.HashCell(block.NormDouble(src.Vals[r]))
			}
			hashes[i] = block.HashFold(hashes[i], c)
		}
	case *block.VarcharBlock:
		for i := range hashes[:n] {
			c := nullHash
			if r := at(sel, i); src.Nulls == nil || !src.Nulls[r] {
				c = block.HashString(src.Vals[r])
			}
			hashes[i] = block.HashFold(hashes[i], c)
		}
	case *block.RLEBlock:
		c := block.HashAt(src.Val, 0)
		for i := range hashes[:n] {
			hashes[i] = block.HashFold(hashes[i], c)
		}
	case *block.DictionaryBlock:
		if !dk.covers(src.Dict, n, false) {
			hashRows(b, hashes, n)
			return
		}
		for i := range hashes[:n] {
			hashes[i] = block.HashFold(hashes[i], dk.hashes[src.Indices[at(sel, i)]])
		}
	default:
		hashRows(b, hashes, n)
	}
}

// hashRows is hashCol's row-at-a-time case, for any block.
func hashRows(b block.Block, hashes []uint64, n int) {
	for i := range hashes[:n] {
		hashes[i] = block.HashFold(hashes[i], block.HashAt(b, i))
	}
}

// batchKeys is what a hashing operator computes for the key columns of a
// page: the per-row hash vector and, in fixed mode, the normalized key cells,
// all leased from the operator's arena for the page (reset); and what it keeps
// from page to page: the dictionary memos, one row's canonical encoding, and
// the page on which resolveEncoded hands the first row of each key
// combination to the lookup (selectRows).
type batchKeys struct {
	fixed  bool
	nk     int
	hashes []uint64
	cells  []uint64   // row-major, nk per row (fixed mode only)
	tags   []byte     // row-major, nk per row (fixed mode only)
	dicts  []dictKeys // per key column, the entries of the dictionary it arrives under
	buf    []byte     // one row's canonical encoding (encodeRowKey)

	firsts   block.Page
	firstSel []block.SelectedBlock
	firstCol []block.Block
	firstKey []int
}

// fixedHash is the key hash of one row's normalized cells: the fold of their
// cell hashes, which is what hashCol computes for the same key.
func fixedHash(cells []uint64, tags []byte) uint64 {
	var h uint64
	for k, cell := range cells {
		h = block.HashFold(h, block.HashCell(tags[k], cell))
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
		clear(bk.hashes)
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

// hashCells computes the key hash of each of the n rows normalize left
// cells for, in one fused pass over the row-major cells, into a vector leased
// from a: the pass reset makes after normalize, and a hashed key table's
// after a direct one declined the page.
func (bk *batchKeys) hashCells(a *block.Arena, n int) {
	bk.hashes = block.Lease[uint64](a, n)
	if nk := bk.nk; nk == 1 {
		for i := 0; i < n; i++ {
			bk.hashes[i] = block.HashCell(bk.tags[i], bk.cells[i])
		}
	} else {
		for i := 0; i < n; i++ {
			bk.hashes[i] = fixedHash(bk.cells[i*nk:(i+1)*nk], bk.tags[i*nk:(i+1)*nk])
		}
	}
}

// resolveEncoded resolves a page whose key columns all arrive dictionary- or
// RLE-encoded (paper §V-E): a row's key is then one of a few combinations of
// dictionary entries, named by combining the columns' indices (an RLE column
// is a dictionary of one entry), and the hash table is asked once per
// combination the page references instead of once per row. It collects the
// first row of each combination the page has, in row order, and hands them to
// resolve as one page — the key columns selected at those rows, key k at
// column k of cols — for the page's batch lookup to fill their ids; then it
// writes every row's key id into ids. Combinations no row has are never looked
// up or entered. Its vectors are leased from a, and the page is bk's. run
// reports that the page has a single combination (every column RLE, or every
// row on the same dictionary entries): ids[0] is every row's. It declines (ok
// false, ids scratch) when a key column is flat, and when the page has fewer
// rows than combinations — the memo then costs more to clear than the rows to
// resolve (the paper's guard).
func resolveEncoded(a *block.Arena, bk *batchKeys, p *block.Page, cols []int, ids []int32, resolve func(firsts *block.Page, cols []int, ids []int32)) (run, ok bool) {
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
	firstIDs := block.Lease[int32](a, min(n, combos))
	if dicts == 0 { // every column a run: row 0 is every row
		first := block.Lease[int](a, 1)
		first[0] = 0
		resolve(bk.selectRows(a, p, cols, first), bk.firstKey[:len(cols)], firstIDs)
		for r := range ids {
			ids[r] = firstIDs[0]
		}
		return true, true
	}
	// Combine the index vectors — a column under a selection read through
	// it — into ids, first key column slowest.
	first := true
	for _, c := range cols {
		b, sel := block.Unselect(p.Col(c))
		kc, isDict := b.(*block.DictionaryBlock)
		if !isDict {
			continue
		}
		width, idx := int32(kc.Dict.Len()), kc.Indices
		if first { // width 0: the first column starts every id
			width, first = 0, false
		}
		if sel == nil {
			for r := range ids {
				ids[r] = ids[r]*width + idx[r]
			}
		} else {
			for r := range ids {
				ids[r] = ids[r]*width + idx[sel[r]]
			}
		}
	}
	// Collect the first row of each combination, resolve them, and give
	// every row its combination's id.
	memo := block.Lease[int32](a, combos)
	for j := range memo {
		memo[j] = -1
	}
	firsts := block.Lease[int](a, len(firstIDs))[:0]
	for r, j := range ids {
		if memo[j] < 0 {
			memo[j] = 0 // seen: its id comes from resolve
			firsts = append(firsts, r)
		}
	}
	firstIDs = firstIDs[:len(firsts)]
	resolve(bk.selectRows(a, p, cols, firsts), bk.firstKey[:len(cols)], firstIDs)
	for k, r := range firsts {
		memo[ids[r]] = firstIDs[k]
	}
	for r, j := range ids {
		ids[r] = memo[j]
	}
	return len(firsts) == 1, true
}

// selectRows is the page of p's key columns cols at the ascending rows rows,
// key k at column k (firstKey), read where they lie: bk's page, made again
// for every call, with the selections of columns already under one leased
// from a.
func (bk *batchKeys) selectRows(a *block.Arena, p *block.Page, cols []int, rows []int) *block.Page {
	nk := len(cols)
	if len(bk.firstSel) < nk {
		bk.firstSel, bk.firstCol = make([]block.SelectedBlock, nk), make([]block.Block, nk)
		bk.firstKey = make([]int, nk)
	}
	for k, c := range cols {
		src, sel := block.Unselect(p.Col(c))
		if sel != nil {
			through := block.Lease[int](a, len(rows))
			for i, r := range rows {
				through[i] = sel[r]
			}
			bk.firstSel[k] = block.SelectedBlock{Src: src, Sel: through}
		} else {
			bk.firstSel[k] = block.SelectedBlock{Src: src, Sel: rows}
		}
		bk.firstCol[k], bk.firstKey[k] = &bk.firstSel[k], k
	}
	bk.firsts.SetCols(bk.firstCol[:nk])
	return &bk.firsts
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
// batched pass: the route (block.Route) of the key hash bk computes for the
// key columns, into a vector leased from a.
func hashPartitionPage(a *block.Arena, bk *batchKeys, p *block.Page, cols []int, parts int) []int {
	dst := block.Lease[int](a, p.RowCount())
	if parts <= 1 {
		clear(dst)
		return dst
	}
	bk.reset(a, p, cols, false)
	for i, h := range bk.hashes {
		dst[i] = block.Route(h, parts)
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
