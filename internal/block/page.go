package block

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Page is a columnar batch of rows: the unit of data moved by the driver loop
// between operators and shipped through shuffles.
type Page struct {
	Cols []Block
	rows int
}

// NewPage builds a page from equal-length column blocks.
func NewPage(cols ...Block) *Page {
	p := &Page{Cols: cols}
	if len(cols) > 0 {
		p.rows = cols[0].Len()
		for i, c := range cols {
			if c.Len() != p.rows {
				panic(fmt.Sprintf("page column %d has %d rows, want %d", i, c.Len(), p.rows))
			}
		}
	}
	return p
}

// NewEmptyPage builds a page with no columns but a row count, used by
// COUNT(*)-style scans that read no columns.
func NewEmptyPage(rows int) *Page { return &Page{rows: rows} }

// RowCount returns the number of rows in the page.
func (p *Page) RowCount() int { return p.rows }

// ColCount returns the number of columns in the page.
func (p *Page) ColCount() int { return len(p.Cols) }

// Col returns column i.
func (p *Page) Col(i int) Block { return p.Cols[i] }

// SizeBytes estimates retained memory of all columns.
func (p *Page) SizeBytes() int64 {
	var n int64 = 16
	for _, c := range p.Cols {
		n += c.SizeBytes()
	}
	return n
}

// Row returns the boxed values of one row, for result delivery and tests.
func (p *Page) Row(row int) []types.Value {
	out := make([]types.Value, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.Value(row)
	}
	return out
}

// FilterPositions gathers the given rows from every column into a new page.
func (p *Page) FilterPositions(rows []int) *Page {
	cols := make([]Block, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = CopyPositions(c, rows)
	}
	return &Page{Cols: cols, rows: len(rows)}
}

// SlicePage returns rows [from, to) as a new page.
func (p *Page) SlicePage(from, to int) *Page {
	if from == 0 && to == p.rows {
		return p
	}
	cols := make([]Block, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = Slice(c, from, to)
	}
	return &Page{Cols: cols, rows: to - from}
}

// DecodeAll returns a page whose columns are all plain (no lazy, RLE, or
// dictionary encodings).
func (p *Page) DecodeAll() *Page {
	cols := make([]Block, len(p.Cols))
	changed := false
	for i, c := range p.Cols {
		d := Decode(c)
		cols[i] = d
		if d != c {
			changed = true
		}
	}
	if !changed {
		return p
	}
	return &Page{Cols: cols, rows: p.rows}
}

// LoadLazy returns a page whose lazy columns are materialized while
// dictionary/RLE encodings are preserved. Pages are de-lazied at task output
// boundaries: lazy blocks reference reader state that does not survive the
// shuffle, but compressed encodings do (§V-E).
func (p *Page) LoadLazy() *Page {
	changed := false
	cols := make([]Block, len(p.Cols))
	for i, c := range p.Cols {
		if lz, ok := c.(*LazyBlock); ok {
			cols[i] = lz.Load()
			changed = true
		} else {
			cols[i] = c
		}
	}
	if !changed {
		return p
	}
	return &Page{Cols: cols, rows: p.rows}
}

// LeaseLazy points p's unloaded lazy columns at arena a, or back at the heap
// when a is nil, and reports whether p has any. Only the page's one owner
// calls it: before it hands the page on, and once the operator it handed it
// to has released it (DESIGN.md "Who owns a page"). A page whose columns
// other drivers may load — a slice of a larger page, a cached or shared page
// — is never given an arena.
func (p *Page) LeaseLazy(a *Arena) bool {
	leases := false
	for _, c := range p.Cols {
		if lz, ok := c.(*LazyBlock); ok {
			lz.mu.Lock()
			if lz.loaded.Load() == nil {
				lz.arena, leases = a, true
			}
			lz.mu.Unlock()
		}
	}
	return leases
}

// String renders a small page for debugging.
func (p *Page) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Page[%d rows x %d cols]", p.rows, len(p.Cols))
	limit := p.rows
	if limit > 10 {
		limit = 10
	}
	for r := 0; r < limit; r++ {
		sb.WriteString("\n  ")
		for i, v := range p.Row(r) {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// PageBuilder accumulates rows of boxed values into a page. It is the
// convenience path used by connectors and operators that produce output
// row-at-a-time; hot operators build blocks directly. Each value is unboxed
// as it arrives into the slice its column's block will own, so a buffered
// cell costs its own width and not a types.Value.
type PageBuilder struct {
	ts   []types.Type
	cols []colBuilder
	rows int
}

// colBuilder is one column under construction: the slice its declared type
// selects, plus a null mask created at the first NULL. Array and untyped
// columns stay boxed and go through BuildBlock.
type colBuilder struct {
	longs   []int64
	doubles []float64
	strs    []string
	bools   []bool
	boxed   []types.Value
	nulls   []bool // nil until the column sees a NULL, then one entry per row
}

// NewPageBuilder creates a builder for the given column types.
func NewPageBuilder(ts []types.Type) *PageBuilder {
	return &PageBuilder{ts: append([]types.Type(nil), ts...), cols: make([]colBuilder, len(ts))}
}

// AppendRow adds one row; len(vals) must equal the column count. A value
// lands in its column by the column's declared type, read from the raw field
// of that type exactly as BuildBlock reads it (no coercion).
func (b *PageBuilder) AppendRow(vals []types.Value) {
	if len(vals) != len(b.cols) {
		panic(fmt.Sprintf("row has %d values, want %d", len(vals), len(b.cols)))
	}
	for i := range vals {
		v, c := &vals[i], &b.cols[i]
		switch b.ts[i] {
		case types.Bigint, types.Date:
			c.longs = append(c.longs, v.I)
		case types.Double:
			c.doubles = append(c.doubles, v.F)
		case types.Varchar:
			c.strs = append(c.strs, v.S)
		case types.Boolean:
			c.bools = append(c.bools, v.B)
		default:
			c.boxed = append(c.boxed, *v)
			continue
		}
		if v.Null && c.nulls == nil {
			c.nulls = make([]bool, b.rows)
		}
		if c.nulls != nil {
			c.nulls = append(c.nulls, v.Null)
		}
	}
	b.rows++
}

// RowCount returns the number of buffered rows.
func (b *PageBuilder) RowCount() int { return b.rows }

// Build hands the buffered columns over as a page and resets the builder.
func (b *PageBuilder) Build() *Page {
	cols := make([]Block, len(b.cols))
	for i := range b.cols {
		c := &b.cols[i]
		switch t := b.ts[i]; t {
		case types.Bigint, types.Date:
			cols[i] = &LongBlock{T: t, Vals: c.longs, Nulls: c.nulls}
		case types.Double:
			cols[i] = &DoubleBlock{Vals: c.doubles, Nulls: c.nulls}
		case types.Varchar:
			cols[i] = &VarcharBlock{Vals: c.strs, Nulls: c.nulls}
		case types.Boolean:
			cols[i] = &BoolBlock{Vals: c.bools, Nulls: c.nulls}
		default:
			cols[i] = BuildBlock(t, c.boxed)
		}
		*c = colBuilder{}
	}
	rows := b.rows
	b.rows = 0
	return &Page{Cols: cols, rows: rows}
}

// ConcatPages concatenates pages with identical schemas into one page of flat
// columns. Each column is appended slice to slice in its own type, so what a
// cell held it still holds: a double keeps its bits (-0.0, NaN payloads), an
// empty string stays empty and not NULL, a NULL keeps the raw value under its
// mask. An all-NULL column that does not share the others' type (the untyped
// column a NULL literal builds) adopts it.
func ConcatPages(pages []*Page) *Page {
	if len(pages) == 1 {
		return pages[0]
	}
	if len(pages) == 0 {
		return NewEmptyPage(0)
	}
	totalRows := 0
	for _, p := range pages {
		totalRows += p.RowCount()
	}
	cols := make([]Block, pages[0].ColCount())
	parts := make([]Block, len(pages))
	for c := range cols {
		for i, p := range pages {
			parts[i] = Decode(p.Col(c))
		}
		cols[c] = concatColumn(parts, totalRows)
	}
	return &Page{Cols: cols, rows: totalRows}
}

// concatColumn appends flat blocks end to end. The first block that holds a
// value decides the column's type.
func concatColumn(parts []Block, total int) Block {
	proto := parts[0]
	for _, b := range parts {
		if !allNull(b) {
			proto = b
			break
		}
	}
	switch p := proto.(type) {
	case *LongBlock:
		vals, nulls := concatVals(parts, total, func(b *LongBlock) ([]int64, []bool) { return b.Vals, b.Nulls })
		return &LongBlock{T: p.T, Vals: vals, Nulls: nulls}
	case *DoubleBlock:
		vals, nulls := concatVals(parts, total, func(b *DoubleBlock) ([]float64, []bool) { return b.Vals, b.Nulls })
		return &DoubleBlock{Vals: vals, Nulls: nulls}
	case *VarcharBlock:
		vals, nulls := concatVals(parts, total, func(b *VarcharBlock) ([]string, []bool) { return b.Vals, b.Nulls })
		return &VarcharBlock{Vals: vals, Nulls: nulls}
	case *BoolBlock:
		vals, nulls := concatVals(parts, total, func(b *BoolBlock) ([]bool, []bool) { return b.Vals, b.Nulls })
		return &BoolBlock{Vals: vals, Nulls: nulls}
	case *ArrayBlock:
		vals, nulls := concatVals(parts, total, func(b *ArrayBlock) ([][]types.Value, []bool) { return b.Vals, b.Nulls })
		return &ArrayBlock{Vals: vals, Nulls: nulls}
	}
	panic("ConcatPages: " + typeName(proto) + " is not a flat block")
}

// concatVals appends the values and null masks (created at the first part that
// has one) of the parts that are a B. A part of another type must be all NULL:
// it contributes zero values, all masked.
func concatVals[T any, B Block](parts []Block, total int, of func(B) ([]T, []bool)) ([]T, []bool) {
	vals := make([]T, 0, total)
	var nulls []bool
	for _, b := range parts {
		var v []T
		var mask []bool
		if tb, ok := b.(B); ok {
			v, mask = of(tb)
		} else if allNull(b) {
			v, mask = make([]T, b.Len()), make([]bool, b.Len())
			for i := range mask {
				mask[i] = true
			}
		} else {
			panic(fmt.Sprintf("ConcatPages: %s in a column of %T", typeName(b), vals))
		}
		if mask != nil && nulls == nil {
			nulls = make([]bool, len(vals), total)
		}
		vals = append(vals, v...)
		if mask != nil {
			nulls = append(nulls, mask...)
		} else if nulls != nil {
			nulls = nulls[:len(vals)]
		}
	}
	return vals, nulls
}

// allNull reports whether every row of b is NULL. An empty block is: it holds
// no value that could decide a type.
func allNull(b Block) bool {
	for r, n := 0, b.Len(); r < n; r++ {
		if !b.IsNull(r) {
			return false
		}
	}
	return true
}
