package operators

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// gatherPages builds four pages of seven rows: a BIGINT key with ties and
// NULLs, a DOUBLE, a VARCHAR encoded as enc says, an ARRAY (the gather's
// boxed path), an all-NULL column of no type, a BOOLEAN and a DATE. enc is
// "flat", "shared" (every page under one dictionary), "distinct" (a
// dictionary a page), "rle" (a run a page) or "mixed" (the four, page by
// page).
func gatherPages(enc string) []*block.Page {
	words := []string{"pear", "", "apple", "fig", "kiwi"}
	shared := block.NewVarcharBlock(words, []bool{false, false, false, true, false})
	var pages []*block.Page
	for pi := range 4 {
		const n = 7
		keys, kn := make([]int64, n), make([]bool, n)
		ds, dn := make([]float64, n), make([]bool, n)
		strs, sn := make([]string, n), make([]bool, n)
		arrs, an := make([][]types.Value, n), make([]bool, n)
		bools, dates := make([]bool, n), make([]int64, n)
		idx := make([]int32, n)
		for r := range n {
			i := pi*n + r
			keys[r], kn[r] = int64(i%5), i%6 == 0
			ds[r], dn[r] = float64(i)/4-2, i%4 == 3
			strs[r], sn[r] = words[i%len(words)], i%7 == 2
			arrs[r], an[r] = []types.Value{types.BigintValue(int64(i)), types.VarcharValue(words[i%3])}, i%5 == 4
			bools[r], dates[r] = i%3 == 0, int64(18000+i)
			idx[r] = int32(i % len(words))
		}
		var s block.Block = block.NewVarcharBlock(strs, sn)
		e := enc
		if e == "mixed" {
			e = []string{"flat", "shared", "distinct", "rle"}[pi]
		}
		switch e {
		case "shared":
			s = &block.DictionaryBlock{Dict: shared, Indices: idx}
		case "distinct":
			s = &block.DictionaryBlock{Dict: block.NewVarcharBlock(append([]string(nil), words...), []bool{false, false, false, true, false}), Indices: idx}
		case "rle":
			s = block.NewRLEBlock(types.VarcharValue(words[pi]), n)
		}
		untyped := &block.LongBlock{T: types.Unknown, Vals: make([]int64, n), Nulls: make([]bool, n)}
		for r := range untyped.Nulls {
			untyped.Nulls[r] = true
		}
		pages = append(pages, block.NewPage(
			block.NewLongBlock(keys, kn), block.NewDoubleBlock(ds, dn), s, block.NewArrayBlock(arrs, an),
			untyped, block.NewBoolBlock(bools, nil), block.NewDateBlock(dates, nil)))
	}
	return pages
}

// assertSameRows holds the first cols columns of got, row for row, against
// the reference page: each cell's type, NULL and value.
func assertSameRows(t *testing.T, name string, got []*block.Page, want *block.Page, cols int) {
	t.Helper()
	r := 0
	for _, p := range got {
		for i := range p.RowCount() {
			if r >= want.RowCount() {
				t.Fatalf("%s: more than the reference's %d rows", name, want.RowCount())
			}
			for c := range cols {
				g, w := p.Col(c).Value(i), want.Col(c).Value(r)
				if g.T != w.T || g.Null != w.Null || g.String() != w.String() {
					t.Fatalf("%s: row %d column %d = %v (%v), want %v (%v)", name, r, c, g, g.T, w, w.T)
				}
			}
			r++
		}
	}
	if r != want.RowCount() {
		t.Fatalf("%s: %d rows, want %d", name, r, want.RowCount())
	}
}

// TestRowGatherMatchesReference: Sort, TopN and Window emit the rows the
// boxed reference gather (buildFromRefs) builds from a stable sort of the
// same positions, row for row — over flat pages, pages under one dictionary,
// a dictionary a page, RLE runs and a mix of them, with NULLs, an ARRAY
// column and an all-NULL column of no type.
func TestRowGatherMatchesReference(t *testing.T) {
	keyCols, desc := []int{0, 2}, []bool{false, true}
	keys := sortKeys(keyCols, desc)
	for _, enc := range []string{"flat", "shared", "distinct", "rle", "mixed"} {
		pages := gatherPages(enc)
		pg, row := refSorted(pages, keys)
		want := buildFromRefs(pages, pg, row)
		width := pages[0].ColCount()

		assertSameRows(t, enc+": sort", drain(t, NewSort(NopContext(), keyCols, desc, 5), pages...), want, width)
		for _, n := range []int64{1, 6, 100} {
			top := buildFromRefs(pages, pg[:min(int(n), len(pg))], row[:min(int(n), len(pg))])
			assertSameRows(t, fmt.Sprintf("%s: top %d", enc, n), drain(t, NewTopN(NopContext(), keyCols, desc, n), pages...), top, width)
		}

		// The window orders by its partition key, then its order keys.
		funcs := []plan.WindowExpr{{Func: plan.WinRowNumber, Out: types.Bigint}}
		win := drain(t, NewWindow(NopContext(), keyCols[:1], keyCols[1:], desc[1:], funcs, 5), pages...)
		assertSameRows(t, enc+": window", win, want, width)
	}
}
