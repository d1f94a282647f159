package operators

import (
	"repro/internal/block"
	"repro/internal/types"
)

// The typed row gather. A row is named by its position in a list of pages —
// row row[i] of page pg[i] — or, for a probe page, by its row alone; typed
// kernels copy the named rows into output vectors. The joins gather their
// probe and build sides through it, and Sort, TopN and Window their output.

func gatherAt[T any](dst, src []T, sel []int32) []T {
	for i, r := range sel {
		dst[i] = src[r]
	}
	return dst
}

// refill stores column v in dst if dst is a *B — a column the residual reads,
// whose header is refilled for every chunk — and else in a new B.
func refill[B any, P interface {
	*B
	block.Block
}](dst block.Block, v B) P {
	b, ok := dst.(P)
	if !ok {
		b = new(B)
	}
	*b = v
	return b
}

// gatherProbe gathers probe column col at the selected rows (into dst, see
// refill). A dictionary result shares the source dictionary under gathered
// indices, lent like a flat vector; an RLE run stays a run.
func gatherProbe(a *block.Arena, col block.Block, sel []int32, dst block.Block) block.Block {
	n := len(sel)
	nulls := func(src []bool) []bool {
		if src == nil {
			return nil
		}
		return gatherAt(block.Lease[bool](a, n), src, sel)
	}
	switch src := col.(type) {
	case *block.LongBlock:
		return refill(dst, block.LongBlock{T: src.T, Vals: gatherAt(block.Lease[int64](a, n), src.Vals, sel), Nulls: nulls(src.Nulls)})
	case *block.DoubleBlock:
		return refill(dst, block.DoubleBlock{Vals: gatherAt(block.Lease[float64](a, n), src.Vals, sel), Nulls: nulls(src.Nulls)})
	case *block.VarcharBlock:
		return refill(dst, block.VarcharBlock{Vals: gatherAt(block.Lease[string](a, n), src.Vals, sel), Nulls: nulls(src.Nulls)})
	case *block.BoolBlock:
		return refill(dst, block.BoolBlock{Vals: gatherAt(block.Lease[bool](a, n), src.Vals, sel), Nulls: nulls(src.Nulls)})
	case *block.DictionaryBlock:
		return refill(dst, block.DictionaryBlock{Dict: src.Dict, Indices: gatherAt(block.Lease[int32](a, n), src.Indices, sel)})
	case *block.RLEBlock:
		return refill(dst, block.RLEBlock{Val: src.Val, Count: n})
	default:
		vals := make([]types.Value, n)
		for i, r := range sel {
			vals[i] = col.Value(int(r))
		}
		return block.BuildBlock(col.Type(), vals)
	}
}

// gatherChan is one channel of a list of pages as the gather kernels read
// it: page pg's values are the pg-th slice of the field its type selects,
// under null mask nulls[pg] (nil: none). A channel whose pages all arrive
// under one dictionary (a stored low-cardinality column) is read as its index
// vectors instead and gathered into a dictionary block over dict: four bytes
// a row, and a group-by above resolves it by entry. Otherwise a page that
// arrives dictionary-coded — a page decoded off the wire carries a dictionary
// of its own — is read through it: its slice and null mask are its
// dictionary's, and idx[pg] maps its rows to their entries (idx nil: no page
// is read so). Array and untyped channels have no slices and are gathered
// boxed.
type gatherChan struct {
	pages   []*block.Page
	c       int
	t       types.Type
	noRow   bool // a position's page may be -1: no row, gathered as NULL
	longs   [][]int64
	doubles [][]float64
	strs    [][]string
	bools   [][]bool
	nulls   [][]bool
	anyNull bool
	dict    block.Block
	idx     [][]int32
}

// sharedDictionary returns the dictionary every page's column c is encoded
// under, or nil when they are not all dictionary blocks over one.
func sharedDictionary(pages []*block.Page, c int) block.Block {
	var dict block.Block
	for _, p := range pages {
		d, ok := p.Col(c).(*block.DictionaryBlock)
		if !ok || (dict != nil && d.Dict != dict) {
			return nil
		}
		dict = d.Dict
	}
	return dict
}

// flatPage returns col as flat block B, reading out an encoded or untyped one.
func flatPage[B block.Block](col block.Block, t types.Type) B {
	col = block.Decode(col)
	if b, ok := col.(B); ok {
		return b
	}
	vals := make([]types.Value, col.Len())
	for r := range vals {
		vals[r] = col.Value(r)
	}
	return block.BuildBlock(t, vals).(B)
}

// newGatherChan reads channel c of pages as type t. noRow: a selection can
// hold positions with no row (page -1), which a dictionary without a NULL
// entry cannot say, so the channel is not gathered into a dictionary block.
func newGatherChan(pages []*block.Page, c int, t types.Type, noRow bool) *gatherChan {
	gc := &gatherChan{pages: pages, c: c, t: t, noRow: noRow}
	if !noRow {
		if gc.dict = sharedDictionary(pages, c); gc.dict != nil {
			for _, p := range pages {
				gc.idx = append(gc.idx, p.Col(c).(*block.DictionaryBlock).Indices)
			}
			return gc
		}
	}
	for pg, p := range pages {
		col, ix := p.Col(c), []int32(nil)
		if d, ok := col.(*block.DictionaryBlock); ok {
			col, ix = d.Dict, d.Indices
		}
		var nulls []bool
		switch t {
		case types.Bigint, types.Date:
			b := flatPage[*block.LongBlock](col, t)
			gc.longs, nulls = append(gc.longs, b.Vals), b.Nulls
		case types.Double:
			b := flatPage[*block.DoubleBlock](col, t)
			gc.doubles, nulls = append(gc.doubles, b.Vals), b.Nulls
		case types.Varchar:
			b := flatPage[*block.VarcharBlock](col, t)
			gc.strs, nulls = append(gc.strs, b.Vals), b.Nulls
		case types.Boolean:
			b := flatPage[*block.BoolBlock](col, t)
			gc.bools, nulls = append(gc.bools, b.Vals), b.Nulls
		default:
			ix = nil // gathered boxed, from the pages themselves
		}
		gc.nulls = append(gc.nulls, nulls)
		gc.anyNull = gc.anyNull || nulls != nil
		if ix != nil {
			if gc.idx == nil {
				gc.idx = make([][]int32, len(pages))
			}
			gc.idx[pg] = ix
		}
	}
	return gc
}

// gatherRows copies the selected rows — row row[i] of page pg[i] — of one
// channel into dst. mask is nil when no row can be NULL; otherwise it
// receives every row's NULL flag: a NULL in the column, or page -1, no row.
// idx, when not nil, names the pages read through their dictionary
// (gatherEntries).
func gatherRows[T any](dst []T, mask []bool, pages [][]T, nulls [][]bool, idx [][]int32, pg, row []int32) []T {
	if idx != nil {
		return gatherEntries(dst, mask, pages, nulls, idx, pg, row)
	}
	if mask == nil {
		for i, p := range pg {
			dst[i] = pages[p][row[i]]
		}
		return dst
	}
	var null T
	for i, p := range pg {
		if p < 0 || (nulls[p] != nil && nulls[p][row[i]]) {
			dst[i], mask[i] = null, true
		} else {
			dst[i], mask[i] = pages[p][row[i]], false
		}
	}
	return dst
}

// gatherEntries is gatherRows where page p is read through its dictionary
// when idx[p] is not nil: row r is its entry idx[p][r], and the page's values
// and null mask are its dictionary's.
func gatherEntries[T any](dst []T, mask []bool, pages [][]T, nulls [][]bool, idx [][]int32, pg, row []int32) []T {
	var null T
	for i, p := range pg {
		if p < 0 {
			dst[i], mask[i] = null, true
			continue
		}
		r := row[i]
		if ix := idx[p]; ix != nil {
			r = ix[r]
		}
		switch {
		case mask == nil:
			dst[i] = pages[p][r]
		case nulls[p] != nil && nulls[p][r]:
			dst[i], mask[i] = null, true
		default:
			dst[i], mask[i] = pages[p][r], false
		}
	}
	return dst
}

// gather gathers the channel at the selected positions (into dst, see
// refill), its vectors leased from a, or made when a is nil; with a null mask
// only when the channel holds NULLs or a position can have no row: a
// NULL-free column stays on no-null-check kernels.
func (gc *gatherChan) gather(a *block.Arena, pg, row []int32, dst block.Block) block.Block {
	n := len(pg)
	if gc.dict != nil {
		return refill(dst, block.DictionaryBlock{Dict: gc.dict, Indices: gatherRows(block.Lease[int32](a, n), nil, gc.idx, nil, nil, pg, row)})
	}
	var mask []bool
	if gc.anyNull || gc.noRow {
		mask = block.Lease[bool](a, n)
	}
	switch gc.t {
	case types.Bigint, types.Date:
		return refill(dst, block.LongBlock{T: gc.t, Vals: gatherRows(block.Lease[int64](a, n), mask, gc.longs, gc.nulls, gc.idx, pg, row), Nulls: mask})
	case types.Double:
		return refill(dst, block.DoubleBlock{Vals: gatherRows(block.Lease[float64](a, n), mask, gc.doubles, gc.nulls, gc.idx, pg, row), Nulls: mask})
	case types.Varchar:
		return refill(dst, block.VarcharBlock{Vals: gatherRows(block.Lease[string](a, n), mask, gc.strs, gc.nulls, gc.idx, pg, row), Nulls: mask})
	case types.Boolean:
		return refill(dst, block.BoolBlock{Vals: gatherRows(block.Lease[bool](a, n), mask, gc.bools, gc.nulls, gc.idx, pg, row), Nulls: mask})
	}
	vals := make([]types.Value, n)
	for i, p := range pg {
		if p < 0 {
			vals[i] = types.NullValue(gc.t)
		} else {
			vals[i] = gc.pages[p].Col(gc.c).Value(int(row[i]))
		}
	}
	return block.BuildBlock(gc.t, vals)
}

// pageChans reads every channel of pages, which hold the same columns, for
// gatherPage. A channel's type is its first typed page's: a column of NULLs
// with no type takes the type the others have.
func pageChans(pages []*block.Page) []*gatherChan {
	if len(pages) == 0 {
		return nil
	}
	chans := make([]*gatherChan, pages[0].ColCount())
	for c := range chans {
		t := types.Unknown
		for _, p := range pages {
			if t = p.Col(c).Type(); t != types.Unknown {
				break
			}
		}
		chans[c] = newGatherChan(pages, c, t, false)
	}
	return chans
}

// gatherPage gathers every channel at the selected positions into a new
// page, whose vectors are its own.
func gatherPage(chans []*gatherChan, pg, row []int32) *block.Page {
	out := block.NewEmptyPage(len(pg))
	out.Cols = make([]block.Block, len(chans))
	for c, gc := range chans {
		out.Cols[c] = gc.gather(nil, pg, row, nil)
	}
	return out
}
