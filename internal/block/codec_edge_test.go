package block

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
)

type namedPage struct {
	name string
	page *Page
}

// widePage is the shuffle-sized page the allocation ceilings and benchmarks
// use: BIGINT, DOUBLE and VARCHAR columns, compressible but not trivially.
func widePage(rows int) *Page {
	longs := make([]int64, rows)
	doubles := make([]float64, rows)
	strs := make([]string, rows)
	modes := []string{"AIR", "MAIL", "SHIP", "TRUCK", "REG AIR", "FOB", "RAIL"}
	for i := range longs {
		longs[i] = int64(i)*7919 + 3
		doubles[i] = float64(i%1000) * 1.25
		strs[i] = "order-" + modes[i%len(modes)]
	}
	return NewPage(
		&LongBlock{T: types.Bigint, Vals: longs},
		&DoubleBlock{Vals: doubles},
		&VarcharBlock{Vals: strs},
	)
}

// codecEdgePages is the edge corpus of the round-trip differential. The
// frames under testdata/parentframes were written from exactly these pages
// by the encoder this one replaced, so the pages must not change.
func codecEdgePages() []namedPage {
	negZero := math.Copysign(0, -1)
	multiKB := strings.Repeat("0123456789abcdef", 320) // 5 KiB
	return []namedPage{
		{"nulls", NewPage(
			&LongBlock{T: types.Bigint, Vals: []int64{1, 0, -3, 0}, Nulls: []bool{false, true, false, true}},
			&LongBlock{T: types.Date, Vals: []int64{0, 0, 0, 0}, Nulls: []bool{true, true, true, true}},
			&DoubleBlock{Vals: []float64{0, 2.5, 0, -1}, Nulls: []bool{true, false, false, false}},
			&VarcharBlock{Vals: []string{"", "", "x", ""}, Nulls: []bool{false, true, false, false}},
			&BoolBlock{Vals: []bool{true, false, false, true}, Nulls: []bool{false, false, true, false}},
		)},
		{"negzero_nan", NewPage(&DoubleBlock{
			Vals: []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		})},
		{"empty_page", NewPage(&LongBlock{T: types.Bigint}, &VarcharBlock{}, &DoubleBlock{})},
		{"zero_columns", NewEmptyPage(7)},
		{"dict_unreferenced", NewPage(&DictionaryBlock{
			Dict:    &VarcharBlock{Vals: []string{"used", "never", "also used", "never either"}},
			Indices: []int32{0, 2, 2, 0, 0},
		})},
		{"nested", NewPage(
			&RLEBlock{Val: &DictionaryBlock{Dict: &VarcharBlock{Vals: []string{"a", "b"}}, Indices: []int32{1}}, Count: 3},
			&DictionaryBlock{Dict: &RLEBlock{Val: &LongBlock{T: types.Bigint, Vals: []int64{42}}, Count: 4}, Indices: []int32{3, 0, 1}},
			&RLEBlock{Val: &RLEBlock{Val: &DoubleBlock{Vals: []float64{negZero}}, Count: 1}, Count: 3},
		)},
		{"array", NewPage(&ArrayBlock{Vals: [][]types.Value{
			nil,
			{},
			{types.BigintValue(1), types.NullValue(types.Bigint), types.DoubleValue(negZero)},
			{types.ArrayValue([]types.Value{types.VarcharValue(""), types.ArrayValue(nil)}), types.BooleanValue(true)},
			{types.VarcharValue(multiKB)},
		}, Nulls: []bool{true, false, false, false, false}})},
		{"strings", NewPage(&VarcharBlock{
			Vals: []string{"", multiKB, "", "héllo wörld ✓", "\x00\xff", multiKB + "tail", ""},
		})},
		{"wide", widePage(562)},
	}
}

const parentFramesDir = "testdata/parentframes"

// TestCodecMatchesParentEncoder is the round-trip differential over the edge
// corpus. For each page it holds three frames — raw, compressed, and the two
// the parent commit's encoder produced for the same page (stored under
// testdata/parentframes; regenerate only by running the old encoder) — and
// requires that all decode to the same page, and that the raw frame is
// byte-identical to the parent's, which is what "the wire format did not
// change" means. The one page the encoder now writes differently (a
// dictionary with fewer rows than entries goes flat) must still read the same
// from both encoders' frames.
func TestCodecMatchesParentEncoder(t *testing.T) {
	for _, np := range codecEdgePages() {
		t.Run(np.name, func(t *testing.T) {
			raw, err := EncodePage(np.page, false)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := EncodePage(np.page, true)
			if err != nil {
				t.Fatal(err)
			}
			parentRaw, err := os.ReadFile(filepath.Join(parentFramesDir, np.name+".raw"))
			if err != nil {
				t.Fatal(err)
			}
			parentPacked, err := os.ReadFile(filepath.Join(parentFramesDir, np.name+".flate"))
			if err != nil {
				t.Fatal(err)
			}
			rewritten := false
			for _, col := range np.page.Cols {
				rewritten = rewritten || writtenFlat(col)
			}
			if !rewritten && !bytes.Equal(raw, parentRaw) {
				t.Errorf("raw frame differs from the parent encoder's (%d vs %d bytes)", len(raw), len(parentRaw))
			}
			if (packed[4] == flagCompressed) != (parentPacked[4] == flagCompressed) {
				t.Errorf("compression decision differs from the parent's: flags %d vs %d", packed[4], parentPacked[4])
			}
			for name, frame := range map[string][]byte{
				"raw": raw, "compressed": packed, "parent raw": parentRaw, "parent compressed": parentPacked,
			} {
				got, n, err := DecodePage(frame)
				if err != nil {
					t.Fatalf("%s frame: %v", name, err)
				}
				if n != len(frame) {
					t.Errorf("%s frame: consumed %d of %d bytes", name, n, len(frame))
				}
				if err := pagesEqual(np.page, got); err != nil {
					t.Errorf("%s frame: %v", name, err)
				}
			}
		})
	}
}

// TestCodecSmallPageWritesDictionaryFlat: a dictionary column is written with
// its dictionary only when the page has at least as many rows as the
// dictionary has entries. A slice of a page under a column-wide dictionary —
// a hash partition's 3 rows of a 150-entry one — goes flat, costs what its
// rows cost, and reads back the same values.
func TestCodecSmallPageWritesDictionaryFlat(t *testing.T) {
	entries := make([]string, 150)
	for i := range entries {
		entries[i] = fmt.Sprintf("type-%03d", i)
	}
	dict := NewVarcharBlock(entries, nil)
	small := NewPage(NewDictionaryBlock(dict, []int32{7, 149, 7}))
	idx := make([]int32, 150)
	for i := range idx {
		idx[i] = int32(i * 7 % 150)
	}
	full := NewPage(NewDictionaryBlock(dict, idx))

	smallFrame, err := EncodePage(small, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodePage(smallFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, flat := got.Col(0).(*VarcharBlock); !flat {
		t.Errorf("3 rows under a 150-entry dictionary decoded as %T, want a flat block", got.Col(0))
	}
	if err := pagesEqual(small, got); err != nil {
		t.Error(err)
	}
	if len(smallFrame) > 64 {
		t.Errorf("the 3-row page's frame is %d bytes: it carries the dictionary", len(smallFrame))
	}
	fullFrame, err := EncodePage(full, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err = DecodePage(fullFrame); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Col(0).(*DictionaryBlock); !ok {
		t.Errorf("150 rows under a 150-entry dictionary decoded as %T, want a dictionary block", got.Col(0))
	}
	if err := pagesEqual(full, got); err != nil {
		t.Error(err)
	}
}
