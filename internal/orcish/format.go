// Package orcish implements a from-scratch columnar file format standing in
// for ORC in the paper's Hive warehouse (§V-C): files are divided into
// stripes; each stripe stores every column in a contiguous, independently
// decodable section with min/max statistics and row counts in the footer;
// low-cardinality columns are dictionary-encoded and constant runs
// run-length-encoded. Readers skip whole stripes using footer statistics and
// materialize columns lazily (§V-D).
//
// Sections and footer are frames of the engine's page codec (internal/block),
// the serialized form shuffle and spill use too: CRC-32C
// checked, bounded on decode, encodings preserved.
//
//	file    := stripe* schema stripes footerLen(u64le) "ORCISH02"
//	stripe  := section*  -- one per column, back to back
//	section := frame: a one-column page of the stripe's rows, flat, RLE or
//	           dictionary encoded
//	schema  := frame: one row per column (name VARCHAR, type BIGINT)
//	stripes := frame: one row per stripe (offset, length, rows BIGINT; per
//	           column: section offset and length, null count BIGINT, min and
//	           max of the column's type, NULL when the stripe has no value)
//
// footerLen covers schema and stripes. A lazy reader fetches only the
// sections a query touches.
package orcish

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/block"
	"repro/internal/types"
)

const (
	// Magic trails every orcish file.
	Magic = "ORCISH02"
	// DefaultStripeRows is the row count per stripe.
	DefaultStripeRows = 8192

	tailLen = 16 // footerLen + Magic
	// stripeCols and statCols are the stripe table's columns per stripe and
	// per file column.
	stripeCols, statCols = 3, 5
)

// ColumnMeta describes one column of the file.
type ColumnMeta struct {
	Name string
	T    types.Type
}

// ColumnStats summarizes one column of one stripe for skipping (§V-C).
type ColumnStats struct {
	Min, Max  types.Value
	NullCount int64
	HasValues bool
}

// StripeInfo locates one stripe and carries its statistics.
type StripeInfo struct {
	Offset     int64
	Length     int64
	Rows       int64
	ColOffsets []int64 // section offset within the stripe
	ColLengths []int64
	Stats      []ColumnStats
}

// Footer is the file's table of contents.
type Footer struct {
	Columns []ColumnMeta
	Stripes []StripeInfo
	Rows    int64
}

// Writer streams pages into an orcish file. It holds the pages it has not yet
// written as they came, and copies each row once, into the stripe's column
// vectors; those and the stripe's bytes are leased from the scratch pool for
// the length of one stripe (block.Arena).
type Writer struct {
	w      io.Writer
	footer Footer
	// pending are the pages not yet written, the first one's first skip rows
	// excepted; pendRows counts the rows left.
	pending    []*block.Page
	skip       int
	pendRows   int
	stripeRows int
	offset     int64
}

// NewWriter creates a writer over ws for the given schema.
func NewWriter(ws io.WriteSeeker, columns []ColumnMeta, stripeRows int) *Writer {
	if stripeRows <= 0 {
		stripeRows = DefaultStripeRows
	}
	return &Writer{w: ws, footer: Footer{Columns: columns}, stripeRows: stripeRows}
}

// Append buffers a page, flushing complete stripes. Lazy columns load here,
// so a pending page holds nothing of the reader it came from.
func (w *Writer) Append(p *block.Page) error {
	if p.RowCount() == 0 {
		return nil
	}
	w.pending = append(w.pending, p.LoadLazy())
	w.pendRows += p.RowCount()
	for w.pendRows >= w.stripeRows {
		if err := w.flushStripe(w.stripeRows); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes remaining rows and writes the footer.
func (w *Writer) Close() error {
	if w.pendRows > 0 {
		if err := w.flushStripe(w.pendRows); err != nil {
			return err
		}
	}
	buf, err := appendFooter(nil, &w.footer)
	if err == nil {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(buf)))
		_, err = w.w.Write(append(buf, Magic...))
	}
	return err
}

// Footer returns the table of contents Close wrote: what ReadFooter decodes
// from the file, without reading it back.
func (w *Writer) Footer() *Footer { return &w.footer }

// flushStripe writes the first n pending rows as one stripe.
func (w *Writer) flushStripe(n int) error {
	var a block.Arena
	defer a.Release()
	nc := len(w.footer.Columns)
	info := StripeInfo{Offset: w.offset, Rows: int64(n),
		ColOffsets: make([]int64, nc), ColLengths: make([]int64, nc), Stats: make([]ColumnStats, nc)}
	cols := make([]block.Block, nc)
	size := 0
	for ci, cm := range w.footer.Columns {
		col, err := w.gather(&a, ci, cm.T, n)
		if err != nil {
			return fmt.Errorf("column %q: %w", cm.Name, err)
		}
		cols[ci] = encodeColumn(col)
		size += int(cols[ci].SizeBytes()) + frameSlack
	}
	buf := block.Lease[byte](&a, size)[:0]
	for ci, col := range cols {
		start := len(buf)
		var err error
		if buf, err = block.AppendPage(buf, block.NewPage(col), false); err != nil {
			return fmt.Errorf("column %q: %w", w.footer.Columns[ci].Name, err)
		}
		info.ColOffsets[ci], info.ColLengths[ci] = int64(start), int64(len(buf)-start)
		lo, hi, nulls, ok := block.Bounds(col)
		// A bound outlives the stripe in a cached footer: it must not pin the
		// stripe's string memory.
		lo.S, hi.S = strings.Clone(lo.S), strings.Clone(hi.S)
		info.Stats[ci] = ColumnStats{Min: lo, Max: hi, NullCount: nulls, HasValues: ok}
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.consume(n)
	info.Length = int64(len(buf))
	w.offset += info.Length
	w.footer.Stripes = append(w.footer.Stripes, info)
	w.footer.Rows += int64(n)
	return nil
}

// frameSlack is what a section's frame may take beyond its block's
// SizeBytes (header, lengths, checksum): the stripe's buffer is leased at the
// sum, and grows only if a frame takes more.
const frameSlack = 64

// consume drops the first n pending rows.
func (w *Writer) consume(n int) {
	w.pendRows -= n
	k := 0
	for ; k < len(w.pending); k++ {
		left := w.pending[k].RowCount() - w.skip
		if n < left {
			w.skip += n
			break
		}
		n -= left
		w.skip = 0
	}
	rest := copy(w.pending, w.pending[k:])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
}

// each calls f on the pending blocks of column ci that hold its first n rows,
// with the range [from, to) of each that does.
func (w *Writer) each(ci, n int, f func(b block.Block, from, to int)) {
	from := w.skip
	for _, p := range w.pending {
		to := min(p.RowCount(), from+n)
		f(p.Col(ci), from, to)
		if n -= to - from; n == 0 {
			return
		}
		from = 0
	}
}

// gather returns the first n pending rows of column ci as one flat block of
// type t, its vectors leased from a: each row is copied once, from whatever
// encoding it came in, and a flat block of t that holds the whole stripe is
// not copied at all. A section holds its column's type: a block of another
// type (an untyped NULL literal's, or an INSERT's BIGINT into a DOUBLE
// column) is coerced row by row.
func (w *Writer) gather(a *block.Arena, ci int, t types.Type, n int) (block.Block, error) {
	if b := w.pending[0].Col(ci); w.skip+n <= b.Len() && flatOf(b, t) {
		return block.Slice(b, w.skip, w.skip+n), nil
	}
	switch t {
	case types.Bigint, types.Date:
		vals, nulls, err := gatherVals(w, a, ci, n, t, func(b *block.LongBlock) ([]int64, []bool) { return b.Vals, b.Nulls },
			block.Block.Long, func(v types.Value) int64 { return v.I })
		return &block.LongBlock{T: t, Vals: vals, Nulls: nulls}, err
	case types.Double:
		vals, nulls, err := gatherVals(w, a, ci, n, t, func(b *block.DoubleBlock) ([]float64, []bool) { return b.Vals, b.Nulls },
			block.Block.Double, func(v types.Value) float64 { return v.F })
		return block.NewDoubleBlock(vals, nulls), err
	case types.Varchar:
		vals, nulls, err := gatherVals(w, a, ci, n, t, func(b *block.VarcharBlock) ([]string, []bool) { return b.Vals, b.Nulls },
			block.Block.Str, func(v types.Value) string { return v.S })
		return block.NewVarcharBlock(vals, nulls), err
	case types.Boolean:
		vals, nulls, err := gatherVals(w, a, ci, n, t, func(b *block.BoolBlock) ([]bool, []bool) { return b.Vals, b.Nulls },
			block.Block.Bool, func(v types.Value) bool { return v.B })
		return block.NewBoolBlock(vals, nulls), err
	}
	// An array or untyped column: the rows' own blocks end to end, coerced as
	// a whole.
	var parts []*block.Page
	w.each(ci, n, func(b block.Block, from, to int) {
		parts = append(parts, block.NewPage(block.Slice(b, from, to)))
	})
	return coerce(t, block.ConcatPages(parts).Col(0))
}

// flatOf reports whether b is a flat block of type t.
func flatOf(b block.Block, t types.Type) bool {
	switch b.(type) {
	case *block.LongBlock, *block.DoubleBlock, *block.VarcharBlock, *block.BoolBlock:
		return b.Type() == t
	}
	return false
}

// gatherVals copies the first n pending rows of column ci, of type t, into
// vectors leased from a: a flat block B of t by copy, another block of t by
// its accessor, a block of another type by coercing each value. A NULL row's
// value is the zero value, and the mask is nil when no row is NULL.
func gatherVals[T block.Elem, B block.Block](w *Writer, a *block.Arena, ci, n int, t types.Type,
	flat func(B) ([]T, []bool), get func(block.Block, int) T, of func(types.Value) T) ([]T, []bool, error) {
	vals, nulls := block.Lease[T](a, n), block.Lease[bool](a, n)
	var err error
	anyNull, k := false, 0
	w.each(ci, n, func(b block.Block, from, to int) {
		if fb, ok := b.(B); ok && b.Type() == t {
			v, m := flat(fb)
			copy(vals[k:], v[from:to])
			if m != nil {
				copy(nulls[k:], m[from:to])
				anyNull = anyNull || slices.Contains(m[from:to], true)
			} else {
				clear(nulls[k : k+to-from])
			}
			k += to - from
			return
		}
		var zero T
		for r := from; r < to && err == nil; r, k = r+1, k+1 {
			v := zero
			if b.Type() == t {
				if nulls[k] = b.IsNull(r); !nulls[k] {
					v = get(b, r)
				}
			} else {
				var x types.Value
				if x, err = b.Value(r).Coerce(t); !x.Null {
					v = of(x)
				}
				nulls[k] = x.Null
			}
			vals[k] = v
			anyNull = anyNull || nulls[k]
		}
	})
	if !anyNull {
		nulls = nil
	}
	return vals, nulls, err
}

// encodeColumn picks a stripe column's encoding: RLE for a constant run, a
// dictionary for low cardinality, flat otherwise.
func encodeColumn(col block.Block) block.Block {
	if rle, ok := block.RLEEncode(col).(*block.RLEBlock); ok {
		return rle
	}
	return block.DictEncode(col, 0.5)
}

// coerce returns col as a block of type t, value by value.
func coerce(t types.Type, col block.Block) (block.Block, error) {
	if col.Type() == t {
		return col, nil
	}
	vals := make([]types.Value, col.Len())
	for r := range vals {
		v, err := col.Value(r).Coerce(t)
		if err != nil {
			return nil, err
		}
		vals[r] = v
	}
	return block.BuildBlock(t, vals), nil
}

// appendFooter appends f's schema frame and stripe-table frame to dst.
func appendFooter(dst []byte, f *Footer) ([]byte, error) {
	names := make([]string, len(f.Columns))
	kinds := make([]int64, len(f.Columns))
	for i, c := range f.Columns {
		names[i], kinds[i] = c.Name, int64(c.T)
	}
	dst, err := block.AppendPage(dst, block.NewPage(block.NewVarcharBlock(names, nil), block.NewLongBlock(kinds, nil)), false)
	if err != nil {
		return dst, err
	}
	long := func(get func(s *StripeInfo) int64) block.Block {
		vals := make([]int64, len(f.Stripes))
		for i := range f.Stripes {
			vals[i] = get(&f.Stripes[i])
		}
		return block.NewLongBlock(vals, nil)
	}
	cols := []block.Block{
		long(func(s *StripeInfo) int64 { return s.Offset }),
		long(func(s *StripeInfo) int64 { return s.Length }),
		long(func(s *StripeInfo) int64 { return s.Rows }),
	}
	for ci, c := range f.Columns {
		mins, maxs := make([]types.Value, len(f.Stripes)), make([]types.Value, len(f.Stripes))
		for i := range f.Stripes {
			mins[i], maxs[i] = types.NullValue(c.T), types.NullValue(c.T)
			if st := f.Stripes[i].Stats[ci]; st.HasValues {
				mins[i], maxs[i] = st.Min, st.Max
			}
		}
		cols = append(cols,
			long(func(s *StripeInfo) int64 { return s.ColOffsets[ci] }),
			long(func(s *StripeInfo) int64 { return s.ColLengths[ci] }),
			long(func(s *StripeInfo) int64 { return s.Stats[ci].NullCount }),
			block.BuildBlock(c.T, mins), block.BuildBlock(c.T, maxs))
	}
	return block.AppendPage(dst, block.NewPage(cols...), false)
}

// WriteFile writes pages to path with the given schema.
func WriteFile(path string, columns []ColumnMeta, pages []*block.Page, stripeRows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f, columns, stripeRows)
	for _, p := range pages {
		if err = w.Append(p); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFooter loads a file's footer.
func ReadFooter(path string) (*Footer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	var footer *Footer
	if err == nil {
		footer, err = readFooter(f, st.Size())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return footer, nil
}

// readFooter decodes the footer of the size-byte file in ra. What it
// allocates is bounded by size: the footer's length is checked against the
// file, the codec bounds its frames, the stripe table must be flat (a stripe
// costs its row's bytes), and every section must lie inside the stripe data.
func readFooter(ra io.ReaderAt, size int64) (*Footer, error) {
	if size < tailLen {
		return nil, errors.New("not an orcish file (too small)")
	}
	var tail [tailLen]byte
	if _, err := ra.ReadAt(tail[:], size-tailLen); err != nil {
		return nil, err
	}
	switch magic := string(tail[8:]); {
	case magic == "ORCISH01":
		return nil, errors.New("ORCISH01 is the retired gob format and is not read; rewrite the file")
	case magic != Magic:
		return nil, fmt.Errorf("not an orcish file (magic %q)", magic)
	}
	flen := binary.LittleEndian.Uint64(tail[:8])
	if flen > uint64(size-tailLen) {
		return nil, fmt.Errorf("footer length %d exceeds the %d-byte file", flen, size)
	}
	data := size - tailLen - int64(flen)
	buf := make([]byte, flen)
	if _, err := ra.ReadAt(buf, data); err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error { return fmt.Errorf("corrupt footer: "+format, args...) }
	schema, n, err := block.DecodePage(buf)
	if err != nil {
		return nil, corrupt("%w", err)
	}
	table, m, err := block.DecodePage(buf[n:])
	if err != nil {
		return nil, corrupt("%w", err)
	}
	if n+m != len(buf) {
		return nil, corrupt("%d trailing bytes", len(buf)-n-m)
	}
	if !shaped(schema, []types.Type{types.Varchar, types.Bigint}) {
		return nil, corrupt("bad schema frame")
	}
	f := &Footer{Columns: make([]ColumnMeta, schema.RowCount())}
	want := []types.Type{types.Bigint, types.Bigint, types.Bigint}
	for i := range f.Columns {
		t := types.Type(schema.Col(1).Long(i))
		f.Columns[i] = ColumnMeta{Name: schema.Col(0).Str(i), T: t}
		want = append(want, types.Bigint, types.Bigint, types.Bigint, t, t)
	}
	// A type code no block has fails here too: its min and max columns are
	// blocks of some type.
	if !shaped(table, want) {
		return nil, corrupt("bad stripe table frame")
	}
	long := func(c, i int) int64 { return table.Col(c).Long(i) }
	nc := len(f.Columns)
	f.Stripes = make([]StripeInfo, table.RowCount())
	for i := range f.Stripes {
		s := StripeInfo{Offset: long(0, i), Length: long(1, i), Rows: long(2, i),
			ColOffsets: make([]int64, nc), ColLengths: make([]int64, nc), Stats: make([]ColumnStats, nc)}
		if s.Offset < 0 || s.Length < 0 || s.Length > data-s.Offset || s.Rows < 1 {
			return nil, corrupt("stripe %d (offset %d, length %d, %d rows) is out of place", i, s.Offset, s.Length, s.Rows)
		}
		for ci := range f.Columns {
			c := stripeCols + statCols*ci
			off, n := long(c, i), long(c+1, i)
			if off < 0 || n < 0 || n > s.Length-off {
				return nil, corrupt("stripe %d column %q section is out of place", i, f.Columns[ci].Name)
			}
			s.ColOffsets[ci], s.ColLengths[ci] = off, n
			st := &s.Stats[ci]
			st.NullCount = long(c+2, i)
			if lo, hi := table.Col(c+3), table.Col(c+4); !lo.IsNull(i) && !hi.IsNull(i) {
				st.Min, st.Max, st.HasValues = lo.Value(i), hi.Value(i), true
			}
		}
		f.Rows += s.Rows
		f.Stripes[i] = s
	}
	return f, nil
}

// shaped reports whether p's columns are flat blocks of the given types (an
// UNKNOWN column's NULLs may be stored as any). The writer writes the footer
// flat: an encoded block would let a row cost no bytes, and the footer's size
// would then bound nothing.
func shaped(p *block.Page, want []types.Type) bool {
	if p.ColCount() != len(want) {
		return false
	}
	for i, b := range p.Cols {
		switch b.(type) {
		case *block.RLEBlock, *block.DictionaryBlock:
			return false
		}
		if b.Type() != want[i] && want[i] != types.Unknown {
			return false
		}
	}
	return true
}
