package orcish

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// TestWriterGathersEveryEncoding: pages of 7, 13, 1, 40 and 39 rows, each
// column in turn flat, dictionary, run, lazy or (DOUBLE) a BIGINT block to
// coerce, with NULLs, written in stripes of 16 — so most stripes gather rows
// from several pages and most pages end inside a stripe — read back as the
// rows they hold and make the very bytes their flat copies make. The writer's
// leased vectors are poisoned as they go back, so a stripe written from a
// vector already returned would show.
func TestWriterGathersEveryEncoding(t *testing.T) {
	defer block.PoisonScratch(block.PoisonScratch(true))
	cols := []ColumnMeta{
		{Name: "k", T: types.Bigint}, {Name: "x", T: types.Double}, {Name: "s", T: types.Varchar},
		{Name: "b", T: types.Boolean}, {Name: "d", T: types.Date},
	}
	// value is row r of column c; every fifth row of every column is NULL.
	value := func(c, r int) types.Value {
		if r%5 == 3 {
			return types.NullValue(cols[c].T)
		}
		switch cols[c].T {
		case types.Bigint:
			return types.BigintValue(int64(r % 9))
		case types.Double:
			return types.DoubleValue(float64(r) / 4)
		case types.Varchar:
			return types.VarcharValue(fmt.Sprint("v", r%4))
		case types.Boolean:
			return types.BooleanValue(r%2 == 0)
		}
		return types.DateValue(int64(9000 + r))
	}
	var pages, flats []*block.Page
	from := 0
	for pi, n := range []int{7, 13, 1, 40, 39} {
		var enc, flat []block.Block
		for c, cm := range cols {
			vals := make([]types.Value, n)
			for r := range vals {
				vals[r] = value(c, from+r)
			}
			b := block.BuildBlock(cm.T, vals)
			flat = append(flat, b)
			switch (pi + c) % 4 {
			case 1:
				if d := block.DictEncode(b, 1); d != b {
					b = d
				} else {
					b = block.NewDictionaryBlock(b, identity(n))
				}
			case 2:
				b = block.NewLazyBlock(cm.T, n, func(*block.Arena) block.Block { return block.BuildBlock(cm.T, vals) })
			case 3:
				if cm.T == types.Double {
					longs := make([]types.Value, n)
					for r, v := range vals {
						longs[r] = types.NullValue(types.Bigint)
						if !v.Null {
							longs[r] = types.BigintValue(int64(v.F * 4))
						}
					}
					b = block.BuildBlock(types.Bigint, longs)
					// Coerced, a row is r/4·4 = r: the flat copy holds r.
					for r := range vals {
						if !vals[r].Null {
							vals[r] = types.DoubleValue(float64(from + r))
						}
					}
					flat[c] = block.BuildBlock(cm.T, vals)
				}
			}
			enc = append(enc, b)
		}
		// A one-row page is a run in every column.
		if n == 1 {
			for c := range enc {
				enc[c] = block.NewRLEBlock(value(c, from), 1)
				flat[c] = block.BuildBlock(cols[c].T, []types.Value{value(c, from)})
			}
		}
		pages, flats = append(pages, block.NewPage(enc...)), append(flats, block.NewPage(flat...))
		from += n
	}
	dir := t.TempDir()
	encPath, flatPath := filepath.Join(dir, "enc.orcish"), filepath.Join(dir, "flat.orcish")
	if err := WriteFile(encPath, cols, pages, 16); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(flatPath, cols, flats, 16); err != nil {
		t.Fatal(err)
	}
	encBytes, _ := os.ReadFile(encPath)
	flatBytes, _ := os.ReadFile(flatPath)
	if !bytes.Equal(encBytes, flatBytes) {
		t.Errorf("encoded pages wrote %d bytes, their flat copies %d, and they differ", len(encBytes), len(flatBytes))
	}

	want := block.ConcatPages(flats)
	r, err := OpenReader(encPath, []string{"k", "x", "s", "b", "d"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	row := 0
	for {
		p, err := r.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		if p.RowCount() != 16 && row+p.RowCount() != want.RowCount() {
			t.Errorf("a stripe of %d rows at row %d", p.RowCount(), row)
		}
		for i := range p.RowCount() {
			for c := range cols {
				got, exp := p.Col(c).Value(i), want.Col(c).Value(row)
				if got.Null != exp.Null || !got.Null && !got.Equal(exp) || got.T != exp.T {
					t.Errorf("row %d column %s: read %v (%s), wrote %v (%s)", row, cols[c].Name, got, got.T, exp, exp.T)
				}
			}
			row++
		}
	}
	if row != want.RowCount() {
		t.Errorf("read %d rows, wrote %d", row, want.RowCount())
	}
}

func identity(n int) []int32 {
	ix := make([]int32, n)
	for i := range ix {
		ix[i] = int32(i)
	}
	return ix
}
