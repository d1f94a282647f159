package operators

import (
	"math"
	"slices"

	"repro/internal/block"
	"repro/internal/types"
)

// Batch hashing kernels (paper §V-B, §V-E): instead of hashing a key row by
// row, these kernels walk each key column's typed slice once and normalize
// every cell to a (tag, payload) pair (normCol), then fold each row's cell
// hashes into a per-row hash vector in one pass (hashCells). The hash is the
// one key hash (block.HashCell, block.HashFold), so the exchange
// (hashPartitionPage), a spill partition and a key table read disjoint bits
// of the same value, whatever encoding hashed it.
//
// A key table compares the cells to verify a key: doubles equal to an
// integer normalize to the integer cell, preserving the engine's cross-type
// double==int join/group equivalence; NULL normalizes to a dedicated tag so
// NULL != 0 and NULL(varchar) != ""; a VARCHAR's payload is a hash of its
// bytes, so its cell comes with the string, which the table compares only
// when the cells are equal.

// varKey reports whether a key column of planner type t may hold
// variable-width cells (block.CellVarchar, block.CellOther), whose bytes a key
// table keeps beside them: a VARCHAR, an array, and an untyped column. It is
// decided from planner types, never from a page's: an all-NULL page arrives
// as an untyped (boolean) block, and the VARCHAR pages after it still need
// their bytes kept.
func varKey(t types.Type) bool { return t == types.Varchar || !t.Comparable() }

// varCell reports whether a cell's tag is a variable-width value's, whose
// payload is a hash of its bytes (block.VarPayload): equal cells with this tag
// are the same key only when the bytes are equal too.
func varCell(tag byte) bool { return tag == block.CellVarchar || tag == block.CellOther }

// cellAt is the key cell of row r of b, any type and encoding, read through
// its accessors, and for a variable-width cell the bytes its payload hashes.
func cellAt(b block.Block, r int) (tag byte, payload uint64, s string) {
	if b.IsNull(r) {
		return block.CellNull, 0, ""
	}
	switch b.Type() {
	case types.Bigint, types.Date:
		return block.CellLong, uint64(b.Long(r)), ""
	case types.Double:
		tag, payload = block.NormDouble(b.Double(r))
		return tag, payload, ""
	case types.Varchar:
		s = b.Str(r)
		return block.CellVarchar, block.VarPayload(s), s
	case types.Boolean:
		if b.Bool(r) {
			return block.CellBool, 1, ""
		}
		return block.CellBool, 0, ""
	}
	s = b.Value(r).String()
	return block.CellOther, block.VarPayload(s), s
}

// normCol writes the normalized cells of column b into the row-major scratch
// at key position k (stride nk), and the string of each string cell (varCell)
// into strs at the same place, leased when b may hold one (leaseStrs). A flat
// column, or a selection over one, is read where it lies; RLE columns
// normalize once; dictionary columns normalize per dictionary entry (kept in
// dk while pages share the dictionary) and gather through the index vector.
func normCol(b block.Block, cells []uint64, tags []byte, strs []string, k, nk, n int, dk *dictKeys) {
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
	case *block.VarcharBlock:
		for i := 0; i < n; i++ {
			if r := at(sel, i); src.Nulls != nil && src.Nulls[r] {
				tags[i*nk+k], cells[i*nk+k] = block.CellNull, 0
			} else {
				s := src.Vals[r]
				tags[i*nk+k], cells[i*nk+k], strs[i*nk+k] = block.CellVarchar, block.VarPayload(s), s
			}
		}
	case *block.RLEBlock:
		tag, cell, s := cellAt(src.Val, 0)
		for i := 0; i < n; i++ {
			putCell(cells, tags, strs, i*nk+k, tag, cell, s)
		}
	case *block.DictionaryBlock:
		if !dk.covers(src.Dict, n) {
			normRows(b, cells, tags, strs, k, nk, n)
			return
		}
		for i := 0; i < n; i++ {
			id := src.Indices[at(sel, i)]
			putCell(cells, tags, strs, i*nk+k, dk.tags[id], dk.cells[id], dk.strs[id])
		}
	default:
		normRows(b, cells, tags, strs, k, nk, n)
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
func normRows(b block.Block, cells []uint64, tags []byte, strs []string, k, nk, n int) {
	for i := 0; i < n; i++ {
		tag, cell, s := cellAt(b, i)
		putCell(cells, tags, strs, i*nk+k, tag, cell, s)
	}
}

// putCell writes one normalized cell at i, and its string if it is a string
// cell: strs is leased only where a key column may hold one (leaseStrs).
func putCell(cells []uint64, tags []byte, strs []string, i int, tag byte, cell uint64, s string) {
	if tags[i], cells[i] = tag, cell; varCell(tag) {
		strs[i] = s
	}
}

// leaseStrs leases from a the strings of m key rows of the columns cols of p
// when one of them may hold a string cell (varKey of its block's type), and
// gives nil otherwise: a fixed-width key's rows write no string.
func leaseStrs(a *block.Arena, p *block.Page, cols []int, m int) []string {
	for _, c := range cols {
		if varKey(p.Col(c).Type()) {
			return block.Lease[string](a, m*len(cols))
		}
	}
	return nil
}

// dictKeys is the normalized cell of every entry of one dictionary, and a
// variable-width entry's string, built once per dictionary identity and kept
// by whoever normalizes or hashes a key column page after page: pages of one
// column share their dictionary. It outlives a page, so its arrays are its
// own, not leased; a string is the dictionary's, which dict keeps.
type dictKeys struct {
	dict  block.Block
	tags  []byte
	cells []uint64
	strs  []string
}

// covers makes dk hold d's entries and reports true; it reports false,
// holding what it held, when that takes building them for a dictionary with
// more entries than the page has rows — the rows are then normalized one by
// one for less (the paper's guard, §V-E).
func (dk *dictKeys) covers(d block.Block, rows int) bool {
	if dk.dict == d {
		return true
	}
	dn := d.Len()
	if dn > rows {
		return false
	}
	dk.dict = d
	dk.tags, dk.cells = slices.Grow(dk.tags[:0], dn)[:dn], slices.Grow(dk.cells[:0], dn)[:dn]
	dk.strs = slices.Grow(dk.strs[:0], dn)[:dn]
	normRows(d, dk.cells, dk.tags, dk.strs, 0, 1, dn)
	return true
}

// batchKeys is what a hashing operator computes for the key columns of a
// page: the per-row hash vector, the normalized key cells and the strings of
// the variable-width ones, all leased from the operator's arena for the page
// (hashKeys); and what it keeps from page to page: the dictionary memos.
type batchKeys struct {
	nk     int
	hashes []uint64
	cells  []uint64   // row-major, nk per row
	tags   []byte     // row-major, nk per row
	strs   []string   // row-major, nk per row, set where a cell is a string cell (varCell)
	dicts  []dictKeys // per key column, the entries of the dictionary it arrives under
}

// fixedHash is the key hash of one row's normalized cells: the fold of their
// cell hashes, which is what hashCells computes for the same key.
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

// hashKeys computes the normalized cells and the hash vector for the key
// columns of p into vectors leased from a: normalize, then hashCells. The
// exchange and a spilled join route rows by the hashes and look nothing up.
func (bk *batchKeys) hashKeys(a *block.Arena, p *block.Page, cols []int) {
	bk.normalize(a, p, cols)
	bk.hashCells(a, p.RowCount())
}

// lease readies bk's vectors for m rows of the key columns cols of p, leased
// from a.
func (bk *batchKeys) lease(a *block.Arena, p *block.Page, cols []int, m int) {
	bk.nk = len(cols)
	bk.sizeDicts(bk.nk)
	bk.cells = block.Lease[uint64](a, m*bk.nk)
	bk.tags = block.Lease[byte](a, m*bk.nk)
	bk.strs = leaseStrs(a, p, cols, m)
}

// normalize computes the normalized cells of the key columns of p into
// vectors leased from a, and no hash: a direct key table reads none.
func (bk *batchKeys) normalize(a *block.Arena, p *block.Page, cols []int) {
	n := p.RowCount()
	bk.lease(a, p, cols, n)
	for k, c := range cols {
		normCol(p.Col(c), bk.cells, bk.tags, bk.strs, k, bk.nk, n, &bk.dicts[k])
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
// combination the page references instead of once per row. It finds the
// first row of each combination the page has, in row order, normalizes their
// keys into bk from the cells dictKeys holds per dictionary entry
// (normEncoded), and hands the rows to resolve for the page's batch lookup to
// fill their ids; then it writes every row's key id into ids. Combinations no
// row has are never looked up or entered. Its vectors are leased from a. run
// reports that the page has a single combination (every column RLE, or every
// row on the same dictionary entries): ids[0] is every row's. It declines (ok
// false, ids scratch) when a key column is flat, and when the page has fewer
// rows than combinations — the memo then costs more to clear than the rows to
// resolve (the paper's guard).
func resolveEncoded(a *block.Arena, bk *batchKeys, p *block.Page, cols []int, ids []int32, resolve func(rows []int, ids []int32)) (run, ok bool) {
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
	if dicts == 0 { // every column a run: row 0 is every row
		first := block.Lease[int](a, 1)
		first[0] = 0
		bk.normEncoded(a, p, cols, first)
		resolve(first, ids[:1])
		for r := range ids {
			ids[r] = ids[0]
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
	firsts := block.Lease[int](a, min(n, combos))[:0]
	for r, j := range ids {
		if memo[j] < 0 {
			memo[j] = 0 // seen: its id comes from resolve
			firsts = append(firsts, r)
		}
	}
	firstIDs := block.Lease[int32](a, len(firsts))
	bk.normEncoded(a, p, cols, firsts)
	resolve(firsts, firstIDs)
	for k, r := range firsts {
		memo[ids[r]] = firstIDs[k]
	}
	for r, j := range ids {
		ids[r] = memo[j]
	}
	return len(firsts) == 1, true
}

// normEncoded normalizes the keys of p's rows rows into bk, key k from column
// cols[k], each an RLE or a dictionary column (resolveEncoded): a run's one
// cell, or the cell dictKeys holds for the row's dictionary entry, with the
// string read from the dictionary's own block. resolveEncoded has checked
// that no dictionary has more entries than the page has rows, so dictKeys
// covers every one.
func (bk *batchKeys) normEncoded(a *block.Arena, p *block.Page, cols []int, rows []int) {
	bk.lease(a, p, cols, len(rows))
	nk := bk.nk
	for k, c := range cols {
		src, sel := block.Unselect(p.Col(c))
		switch src := src.(type) {
		case *block.RLEBlock:
			tag, cell, s := cellAt(src.Val, 0)
			for i := range rows {
				putCell(bk.cells, bk.tags, bk.strs, i*nk+k, tag, cell, s)
			}
		case *block.DictionaryBlock:
			dk := &bk.dicts[k]
			dk.covers(src.Dict, p.RowCount())
			for i, r := range rows {
				id := src.Indices[at(sel, r)]
				putCell(bk.cells, bk.tags, bk.strs, i*nk+k, dk.tags[id], dk.cells[id], dk.strs[id])
			}
		}
	}
}

// row returns the normalized cells, tags and strings of row r.
func (bk *batchKeys) row(r int) ([]uint64, []byte, []string) {
	base := r * bk.nk
	return bk.cells[base : base+bk.nk], bk.tags[base : base+bk.nk], keyStrs(bk.strs, base, bk.nk)
}

// keyStrs is the nk strings of the row-major strs at base, or nil when strs
// is (leaseStrs leased none).
func keyStrs(strs []string, base, nk int) []string {
	if strs == nil {
		return nil
	}
	return strs[base : base+nk]
}

// nullKey reports whether any key cell of row r is NULL.
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
	bk.hashKeys(a, p, cols)
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
