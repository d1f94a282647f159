package block

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// blocksEqual compares two blocks structurally: same encoding shape (flat,
// RLE, dictionary), same type, and identical row values/nulls. An all-false
// null slice is treated as equal to a nil one (the wire form is canonical),
// and a dictionary block with fewer rows than entries may come back flat (the
// encoder does not send a dictionary bigger than its page).
// writtenFlat reports whether the encoder writes b, or a block nested in it,
// flat though it is a dictionary block: one with fewer rows than entries.
func writtenFlat(b Block) bool {
	switch x := b.(type) {
	case *DictionaryBlock:
		return len(x.Indices) < x.Dict.Len() || writtenFlat(x.Dict)
	case *RLEBlock:
		return writtenFlat(x.Val)
	}
	return false
}

func blocksEqual(a, b Block) error {
	switch x := a.(type) {
	case *RLEBlock:
		y, ok := b.(*RLEBlock)
		if !ok {
			return fmt.Errorf("RLE block decoded as %T", b)
		}
		if x.Count != y.Count {
			return fmt.Errorf("RLE count %d != %d", x.Count, y.Count)
		}
		return blocksEqual(x.Val, y.Val)
	case *DictionaryBlock:
		y, ok := b.(*DictionaryBlock)
		if !ok && writtenFlat(x) {
			break // compared by value below
		}
		if !ok {
			return fmt.Errorf("dictionary block decoded as %T", b)
		}
		if len(x.Indices) != len(y.Indices) {
			return fmt.Errorf("dictionary sizes %d != %d", len(x.Indices), len(y.Indices))
		}
		for i := range x.Indices {
			if x.Indices[i] != y.Indices[i] {
				return fmt.Errorf("dictionary index %d: %d != %d", i, x.Indices[i], y.Indices[i])
			}
		}
		return blocksEqual(x.Dict, y.Dict)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("lengths %d != %d", a.Len(), b.Len())
	}
	if a.Type() != b.Type() {
		return fmt.Errorf("types %v != %v", a.Type(), b.Type())
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Value(i), b.Value(i)
		if av.String() != bv.String() || av.Null != bv.Null {
			return fmt.Errorf("row %d: %v != %v", i, av, bv)
		}
		// -0.0 and NaN payloads must survive bit for bit.
		if math.Float64bits(av.F) != math.Float64bits(bv.F) {
			return fmt.Errorf("row %d: double bits %x != %x", i, math.Float64bits(av.F), math.Float64bits(bv.F))
		}
	}
	return nil
}

func pagesEqual(a, b *Page) error {
	if a.RowCount() != b.RowCount() {
		return fmt.Errorf("row counts %d != %d", a.RowCount(), b.RowCount())
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("column counts %d != %d", len(a.Cols), len(b.Cols))
	}
	for i := range a.Cols {
		if err := blocksEqual(a.Cols[i], b.Cols[i]); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
	}
	return nil
}

func roundTrip(t *testing.T, p *Page, compress bool) *Page {
	t.Helper()
	frame, err := EncodePage(p, compress)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, n, err := DecodePage(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	if err := pagesEqual(p, got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return got
}

func TestCodecRoundTripKinds(t *testing.T) {
	longs := &LongBlock{T: types.Bigint, Vals: []int64{1, -2, 3, 0, 1 << 60}, Nulls: []bool{false, true, false, false, false}}
	dates := &LongBlock{T: types.Date, Vals: []int64{0, 19000, -1, 7, 12}}
	doubles := &DoubleBlock{Vals: []float64{1.5, -0.25, 0, 3e300, 0.1}, Nulls: []bool{false, false, true, false, false}}
	strs := &VarcharBlock{Vals: []string{"", "a", "hello world", "héllo", strings.Repeat("x", 300)}}
	bools := &BoolBlock{Vals: []bool{true, false, true, true, false}, Nulls: []bool{false, false, false, true, false}}
	arrays := &ArrayBlock{Vals: [][]types.Value{
		nil,
		{types.BigintValue(1), types.NullValue(types.Bigint)},
		{types.VarcharValue("x"), types.VarcharValue("y")},
		{types.ArrayValue([]types.Value{types.DoubleValue(2.5)})},
		{types.BooleanValue(true)},
	}, Nulls: []bool{true, false, false, false, false}}
	allNull := &LongBlock{T: types.Bigint, Vals: make([]int64, 5), Nulls: []bool{true, true, true, true, true}}
	rle := &RLEBlock{Val: &VarcharBlock{Vals: []string{"rle"}}, Count: 5}
	rleNull := &RLEBlock{Val: &LongBlock{T: types.Bigint, Vals: []int64{0}, Nulls: []bool{true}}, Count: 5}
	dict := &DictionaryBlock{
		Dict:    &VarcharBlock{Vals: []string{"aa", "bb", "cc"}},
		Indices: []int32{0, 2, 1, 0, 2},
	}

	p := NewPage(longs, dates, doubles, strs, bools, arrays, allNull, rle, rleNull, dict)
	for _, compress := range []bool{false, true} {
		roundTrip(t, p, compress)
	}

	// Zero-column page (COUNT(*) shape) and zero-row page.
	roundTrip(t, NewEmptyPage(7), false)
	roundTrip(t, NewPage(&LongBlock{T: types.Bigint}), false)
}

func TestCodecPreservesSizeBytes(t *testing.T) {
	p := NewPage(
		&LongBlock{T: types.Bigint, Vals: []int64{1, 2, 3}, Nulls: []bool{false, true, false}},
		&VarcharBlock{Vals: []string{"ab", "cde", ""}},
	)
	got := roundTrip(t, p, false)
	if got.SizeBytes() != p.SizeBytes() {
		t.Fatalf("SizeBytes changed: %d -> %d", p.SizeBytes(), got.SizeBytes())
	}
}

// TestCodecChecksumRejectsCorruption flips every byte of an encoded frame in
// turn; each corrupted frame must be rejected.
func TestCodecChecksumRejectsCorruption(t *testing.T) {
	p := NewPage(
		&LongBlock{T: types.Bigint, Vals: []int64{10, 20, 30, 40}, Nulls: []bool{false, true, false, false}},
		&VarcharBlock{Vals: []string{"alpha", "beta", "gamma", "delta"}},
	)
	frame, err := EncodePage(p, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := DecodePage(bad); err == nil {
			t.Errorf("flip at byte %d accepted", i)
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{0, 3, frameHeaderLen - 1, frameHeaderLen, len(frame) - 1} {
		if _, _, err := DecodePage(frame[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestCodecCompressionShrinksRepetitiveData(t *testing.T) {
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = "the same repeated string value"
	}
	p := NewPage(&VarcharBlock{Vals: vals})
	plain, err := EncodePage(p, false)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodePage(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compression did not shrink: %d >= %d", len(packed), len(plain))
	}
	got, _, err := DecodePage(packed)
	if err != nil {
		t.Fatal(err)
	}
	if err := pagesEqual(p, got); err != nil {
		t.Fatal(err)
	}
}

func TestPageReaderStream(t *testing.T) {
	pages := []*Page{
		NewPage(&LongBlock{T: types.Bigint, Vals: []int64{1, 2}}),
		NewEmptyPage(9),
		NewPage(&VarcharBlock{Vals: []string{"x"}}, &BoolBlock{Vals: []bool{true}}),
	}
	var buf bytes.Buffer
	for _, p := range pages {
		if err := WritePage(&buf, p, true); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()

	pr := NewPageReader(bytes.NewReader(stream))
	for i, want := range pages {
		got, err := pr.Next()
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if err := pagesEqual(want, got); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if _, err := pr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}

	// A stream cut mid-frame reports unexpected EOF, not silent completion.
	pr = NewPageReader(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = pr.Next()
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF on truncated stream, got %v", err)
	}
}

// randomPage builds a page mixing every block kind, driven by rng. Shared by
// the quick.Check property below and FuzzPageCodecRoundTrip.
func randomPage(r *rand.Rand) *Page {
	rows := r.Intn(50)
	ncols := 1 + r.Intn(4)
	cols := make([]Block, ncols)
	for c := range cols {
		cols[c] = randomBlock(r, rows)
	}
	if r.Intn(8) == 0 {
		return NewEmptyPage(rows)
	}
	return NewPage(cols...)
}

func randomBlock(r *rand.Rand, rows int) Block {
	mkNulls := func(n int) []bool {
		switch r.Intn(3) {
		case 0:
			return nil
		case 1:
			// Possibly all-false: exercises null-slice canonicalization.
			return make([]bool, n)
		default:
			nulls := make([]bool, n)
			for i := range nulls {
				nulls[i] = r.Intn(4) == 0
			}
			return nulls
		}
	}
	flat := func(rows int) Block {
		switch r.Intn(5) {
		case 0:
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = r.Int63() - (1 << 62)
			}
			t := types.Bigint
			if r.Intn(4) == 0 {
				t = types.Date
			}
			return &LongBlock{T: t, Vals: vals, Nulls: mkNulls(rows)}
		case 1:
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = r.NormFloat64() * 1000
			}
			return &DoubleBlock{Vals: vals, Nulls: mkNulls(rows)}
		case 2:
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = strings.Repeat("ab", r.Intn(8))
			}
			return &VarcharBlock{Vals: vals, Nulls: mkNulls(rows)}
		case 3:
			vals := make([]bool, rows)
			for i := range vals {
				vals[i] = r.Intn(2) == 0
			}
			return &BoolBlock{Vals: vals, Nulls: mkNulls(rows)}
		default:
			vals := make([][]types.Value, rows)
			for i := range vals {
				arr := make([]types.Value, r.Intn(3))
				for j := range arr {
					arr[j] = types.BigintValue(int64(j))
				}
				vals[i] = arr
			}
			return &ArrayBlock{Vals: vals, Nulls: mkNulls(rows)}
		}
	}
	switch r.Intn(4) {
	case 0: // run-length
		return &RLEBlock{Val: flat(1), Count: rows}
	case 1: // dictionary
		k := 1 + r.Intn(5)
		indices := make([]int32, rows)
		for i := range indices {
			indices[i] = int32(r.Intn(k))
		}
		return &DictionaryBlock{Dict: flat(k), Indices: indices}
	default:
		return flat(rows)
	}
}

// TestQuickCodecRoundTrip is the quick.Check property: any page built from
// any mix of block kinds round-trips structurally intact, and SizeBytes is
// that of the form the reader rebuilds (a dictionary with fewer rows than
// entries comes back flat) within the wire-overhead bound (the codec may drop
// an all-false null slice, worth at most one byte per row per block).
func TestQuickCodecRoundTrip(t *testing.T) {
	property := func(seed int64, compress bool) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPage(r)
		frame, err := EncodePage(p, compress)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		got, n, err := DecodePage(frame)
		if err != nil || n != len(frame) {
			t.Logf("seed %d: decode: n=%d err=%v", seed, n, err)
			return false
		}
		if err := pagesEqual(p, got); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// A dictionary block that goes flat is accounted as its rows, which
		// sheds the entries no row has and repeats the entries several rows
		// share. Beyond that, null canonicalization may only shrink
		// accounting, by ≤ one byte per value per column. The value block's
		// length is the page row count for flat blocks and flattened
		// dictionaries, one for RLE values, and the dictionary size (which
		// may exceed the row count) for dictionary blocks sent as such.
		want := p.SizeBytes()
		var bound int64
		for _, c := range p.Cols {
			n := p.RowCount()
			switch b := c.(type) {
			case *RLEBlock:
				n = 1
			case *DictionaryBlock:
				if !writtenFlat(b) {
					n = b.Dict.Len()
				}
			}
			if writtenFlat(c) {
				want += Decode(c).SizeBytes() - c.SizeBytes()
			}
			bound += int64(n) + 1
		}
		diff := want - got.SizeBytes()
		if diff < 0 || diff > bound {
			t.Logf("seed %d: SizeBytes %d -> %d, want %d (bound %d)", seed, p.SizeBytes(), got.SizeBytes(), want, bound)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
