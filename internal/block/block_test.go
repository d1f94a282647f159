package block

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestLongBlockBasics(t *testing.T) {
	b := NewLongBlock([]int64{1, 2, 3}, []bool{false, true, false})
	if b.Len() != 3 || b.Type() != types.Bigint {
		t.Fatalf("len/type: %d %s", b.Len(), b.Type())
	}
	if b.Long(0) != 1 || !b.IsNull(1) || b.Value(2).I != 3 {
		t.Error("accessors wrong")
	}
	if !b.Value(1).Null {
		t.Error("null row should box as NULL")
	}
}

func TestBuildBlockAllTypes(t *testing.T) {
	cases := []struct {
		t    types.Type
		vals []types.Value
	}{
		{types.Bigint, []types.Value{types.BigintValue(5), types.NullValue(types.Bigint)}},
		{types.Double, []types.Value{types.DoubleValue(1.5)}},
		{types.Varchar, []types.Value{types.VarcharValue("x"), types.VarcharValue("")}},
		{types.Boolean, []types.Value{types.BooleanValue(true), types.BooleanValue(false)}},
		{types.Date, []types.Value{types.DateValue(100)}},
	}
	for _, c := range cases {
		b := BuildBlock(c.t, c.vals)
		if b.Len() != len(c.vals) {
			t.Fatalf("%s: len %d", c.t, b.Len())
		}
		for i, v := range c.vals {
			got := b.Value(i)
			if got.Null != v.Null {
				t.Errorf("%s row %d null mismatch", c.t, i)
			}
			if !v.Null && !got.Equal(v) {
				t.Errorf("%s row %d: got %v want %v", c.t, i, got, v)
			}
		}
	}
}

func TestCopyPositions(t *testing.T) {
	b := NewVarcharBlock([]string{"a", "b", "c", "d"}, []bool{false, false, true, false})
	out := CopyPositions(b, []int{3, 1, 2})
	if out.Len() != 3 || out.Str(0) != "d" || out.Str(1) != "b" || !out.IsNull(2) {
		t.Errorf("gather wrong: %v", out)
	}
}

func TestRLEBlock(t *testing.T) {
	r := NewRLEBlock(types.VarcharValue("F"), 6)
	if r.Len() != 6 || r.Str(5) != "F" {
		t.Error("rle accessors")
	}
	d := Decode(r)
	if d.Len() != 6 || d.Str(0) != "F" || d.Str(5) != "F" {
		t.Error("rle decode")
	}
}

func TestDictionaryBlock(t *testing.T) {
	dict := NewVarcharBlock([]string{"IN PERSON", "COD", "NONE"}, nil)
	d := NewDictionaryBlock(dict, []int32{1, 0, 2, 1})
	if d.Len() != 4 || d.Str(0) != "COD" || d.Str(2) != "NONE" {
		t.Error("dictionary accessors")
	}
	plain := Decode(d)
	if plain.Str(3) != "COD" {
		t.Error("dictionary decode")
	}
}

func TestDictEncodeRoundTrip(t *testing.T) {
	vals := []string{"a", "b", "a", "a", "c", "b", "a", "b"}
	b := NewVarcharBlock(vals, nil)
	enc := DictEncode(b, 0.5)
	dict, ok := enc.(*DictionaryBlock)
	if !ok {
		t.Fatal("expected dictionary encoding for low-cardinality column")
	}
	if dict.Dict.Len() != 3 {
		t.Errorf("dict size %d, want 3", dict.Dict.Len())
	}
	for i, v := range vals {
		if enc.Str(i) != v {
			t.Errorf("row %d: got %q want %q", i, enc.Str(i), v)
		}
	}
}

func TestDictEncodeHighCardinalityBailsOut(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = string(rune('a' + i%26))
		vals[i] += string(rune('a' + i/26))
	}
	b := NewVarcharBlock(vals, nil)
	if _, isDict := DictEncode(b, 0.1).(*DictionaryBlock); isDict {
		t.Error("high-cardinality column should not dictionary-encode at ratio 0.1")
	}
}

// Property: DictEncode and RLEEncode preserve every value.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 5) // low cardinality
		}
		b := NewLongBlock(vals, nil)
		enc := DictEncode(b, 1.0)
		for i := range vals {
			if enc.Long(i) != vals[i] {
				return false
			}
		}
		dec := Decode(RLEEncode(b))
		for i := range vals {
			if dec.Long(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRLEEncodeDetectsConstant(t *testing.T) {
	if _, ok := RLEEncode(NewLongBlock([]int64{7, 7, 7}, nil)).(*RLEBlock); !ok {
		t.Error("constant column should RLE encode")
	}
	if _, ok := RLEEncode(NewLongBlock([]int64{7, 8}, nil)).(*RLEBlock); ok {
		t.Error("varying column should not RLE encode")
	}
}

func TestLazyBlock(t *testing.T) {
	loads := 0
	lz := NewLazyBlock(types.Bigint, 3, func() Block {
		loads++
		return NewLongBlock([]int64{10, 20, 30}, nil)
	})
	if lz.Loaded() {
		t.Error("should not be loaded before access")
	}
	if lz.Long(1) != 20 || lz.Long(2) != 30 {
		t.Error("lazy values wrong")
	}
	if loads != 1 {
		t.Errorf("loader ran %d times, want 1", loads)
	}
}

func TestPageBasics(t *testing.T) {
	p := NewPage(NewLongBlock([]int64{1, 2}, nil), NewVarcharBlock([]string{"a", "b"}, nil))
	if p.RowCount() != 2 || p.ColCount() != 2 {
		t.Fatal("page dims")
	}
	row := p.Row(1)
	if row[0].I != 2 || row[1].S != "b" {
		t.Error("row values")
	}
	sl := p.SlicePage(1, 2)
	if sl.RowCount() != 1 || sl.Col(0).Long(0) != 2 {
		t.Error("slice")
	}
}

func TestPageMismatchedColumnsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched column lengths")
		}
	}()
	NewPage(NewLongBlock([]int64{1}, nil), NewLongBlock([]int64{1, 2}, nil))
}

func TestEmptyPageKeepsRows(t *testing.T) {
	p := NewEmptyPage(42)
	if p.RowCount() != 42 || p.ColCount() != 0 {
		t.Error("empty page must carry its row count")
	}
	if p.SlicePage(0, 10).RowCount() != 10 {
		t.Error("slicing an empty page must keep rows")
	}
}

func TestPageBuilderZeroColumns(t *testing.T) {
	b := NewPageBuilder(nil)
	b.AppendRow(nil)
	b.AppendRow(nil)
	if p := b.Build(); p.RowCount() != 2 {
		t.Errorf("zero-column builder lost rows: %d", p.RowCount())
	}
}

func TestConcatPages(t *testing.T) {
	p1 := NewPage(NewLongBlock([]int64{1, 2}, nil))
	p2 := NewPage(NewLongBlock([]int64{3}, nil))
	out := ConcatPages([]*Page{p1, p2})
	if out.RowCount() != 3 || out.Col(0).Long(2) != 3 {
		t.Error("concat")
	}
}

// TestConcatPagesBitExact: concatenation is typed, so over the codec's edge
// corpus every cell of the result is the cell it was — NULL masks, -0.0, NaN
// payloads, empty strings next to NULL strings, arrays, decoded encodings.
func TestConcatPagesBitExact(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8000000000123)
	corpus := append(codecEdgePages(), namedPage{"nan_payload", NewPage(
		&DoubleBlock{Vals: []float64{payloadNaN, math.Copysign(0, -1), 0}, Nulls: []bool{false, false, true}})})
	for _, np := range corpus {
		t.Run(np.name, func(t *testing.T) {
			n, want := np.page.RowCount(), np.page.DecodeAll()
			// Three parts, so a null mask can start at any of them.
			got := ConcatPages([]*Page{np.page, np.page.SlicePage(0, n/2), np.page})
			if got.RowCount() != 2*n+n/2 {
				t.Fatalf("%d rows, want %d", got.RowCount(), 2*n+n/2)
			}
			for _, part := range []struct {
				from, to int
				want     *Page
			}{{0, n, want}, {n, n + n/2, want.SlicePage(0, n/2)}, {n + n/2, 2*n + n/2, want}} {
				if err := pagesEqual(part.want, got.SlicePage(part.from, part.to)); err != nil {
					t.Errorf("rows [%d,%d): %v", part.from, part.to, err)
				}
			}
		})
	}
}

// TestConcatPagesUntypedNulls: the all-NULL column a NULL literal builds has
// no type of its own and adopts the column's, whichever side it is on.
func TestConcatPagesUntypedNulls(t *testing.T) {
	untyped := BuildBlock(types.Unknown, []types.Value{types.NullValue(types.Unknown), types.NullValue(types.Unknown)})
	for name, typed := range map[string]Block{
		"bigint":  NewLongBlock([]int64{7, 8, 9}, nil),
		"date":    NewDateBlock([]int64{7, 8, 9}, []bool{false, true, false}),
		"double":  NewDoubleBlock([]float64{7, 8, 9}, nil),
		"varchar": NewVarcharBlock([]string{"", "b", "c"}, nil),
	} {
		for _, order := range [][]Block{{typed, untyped}, {untyped, typed}, {untyped, untyped, typed}} {
			var pages []*Page
			for _, b := range order {
				pages = append(pages, NewPage(b))
			}
			col := ConcatPages(pages).Col(0)
			if col.Type() != typed.Type() {
				t.Fatalf("%s: column type %v, want %v", name, col.Type(), typed.Type())
			}
			at := 0
			for _, b := range order {
				for r := 0; r < b.Len(); r, at = r+1, at+1 {
					if col.IsNull(at) != b.IsNull(r) || (!b.IsNull(r) && col.Value(at).String() != b.Value(r).String()) {
						t.Errorf("%s: row %d is %v, want %v", name, at, col.Value(at), b.Value(r))
					}
				}
			}
		}
	}
	if col := ConcatPages([]*Page{NewPage(untyped), NewPage(untyped)}).Col(0); col.Len() != 4 || !allNull(col) {
		t.Errorf("two untyped columns: %v", col)
	}
}

func TestLoadLazyKeepsEncodings(t *testing.T) {
	dict := NewVarcharBlock([]string{"x", "y"}, nil)
	lazy := NewLazyBlock(types.Varchar, 2, func() Block {
		return NewDictionaryBlock(dict, []int32{0, 1})
	})
	p := NewPage(lazy, NewRLEBlock(types.BigintValue(9), 2))
	out := p.LoadLazy()
	if _, isLazy := out.Col(0).(*LazyBlock); isLazy {
		t.Error("lazy column should be materialized")
	}
	if _, isDict := out.Col(0).(*DictionaryBlock); !isDict {
		t.Error("dictionary encoding should survive LoadLazy")
	}
	if _, isRLE := out.Col(1).(*RLEBlock); !isRLE {
		t.Error("RLE encoding should survive LoadLazy")
	}
}

func TestDecodeAll(t *testing.T) {
	dict := NewVarcharBlock([]string{"x", "y"}, nil)
	p := NewPage(NewDictionaryBlock(dict, []int32{1, 0}), NewRLEBlock(types.BigintValue(5), 2))
	d := p.DecodeAll()
	if _, ok := d.Col(0).(*VarcharBlock); !ok {
		t.Error("dictionary should decode to plain varchar")
	}
	if d.Col(1).Long(1) != 5 {
		t.Error("RLE decode value")
	}
}

func TestNullDictionaryEntries(t *testing.T) {
	b := NewVarcharBlock([]string{"a", "", "a"}, []bool{false, true, false})
	enc := DictEncode(b, 1.0)
	if !enc.IsNull(1) || enc.IsNull(0) {
		t.Error("null tracking through dictionary encode")
	}
}

// TestDictEncoderCarriesDictionaryAcrossPages: one encoder over the pages of
// a column numbers values in order of first appearance, NULL and the empty
// string apart, through the point where it stops scanning its entries and
// starts hashing them; every page's indices read back its values against the
// dictionary as it stands after the last page; and it gives up, for good, at
// the entry that would pass the bound.
func TestDictEncoderCarriesDictionaryAcrossPages(t *testing.T) {
	var pages []*VarcharBlock
	for pg := 0; pg < 4; pg++ {
		vals, nulls := make([]string, 50), make([]bool, 50)
		for i := range vals {
			switch k := (pg*50 + i) % (5 + 4*pg); { // more distinct values page by page: 5, 9, 13, 17
			case k == 3:
				nulls[i] = true
			case k == 4:
				vals[i] = ""
			default:
				vals[i] = fmt.Sprint("v", k)
			}
		}
		pages = append(pages, NewVarcharBlock(vals, nulls))
	}
	var enc DictEncoder
	indices := make([][]int32, len(pages))
	for pg, p := range pages {
		var ok bool
		if indices[pg], ok = enc.Encode(p, 64); !ok {
			t.Fatalf("page %d: the encoder gave up at %d entries under a bound of 64", pg, enc.Len())
		}
	}
	dict := enc.Dict()
	if dict.Len() != 17 || enc.Len() != 17 {
		t.Fatalf("dictionary has %d entries, want 17 (15 strings, the empty string, NULL)", dict.Len())
	}
	for pg, p := range pages {
		enc := NewDictionaryBlock(dict, indices[pg])
		for r := 0; r < p.Len(); r++ {
			if enc.IsNull(r) != p.IsNull(r) || (!p.IsNull(r) && enc.Str(r) != p.Str(r)) {
				t.Fatalf("page %d row %d reads %v through the dictionary, want %v", pg, r, enc.Value(r), p.Value(r))
			}
		}
	}
	seen := map[string]bool{}
	for j := 0; j < dict.Len(); j++ {
		if key := dict.Value(j).String(); seen[key] {
			t.Errorf("entry %d repeats %s", j, key)
		} else {
			seen[key] = true
		}
	}

	var small DictEncoder
	if _, ok := small.Encode(pages[0], 5); !ok {
		t.Error("five distinct values (NULL is one) do not fit a bound of 5")
	}
	if _, ok := small.Encode(pages[1], 5); ok {
		t.Error("nine distinct values fit a bound of 5")
	}
	if _, ok := small.Encode(NewLongBlock([]int64{1}, nil), 5); ok {
		t.Error("a bigint page was encoded under a varchar dictionary")
	}
}
