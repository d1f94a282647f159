package block

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// TestDecodePageAt reads frames laid back to back, as a lake file's sections
// are, by offset and length: each decodes to its page, a length that is not
// the frame's or a read past the end is an error, and beyond the page itself
// a decode allocates nothing — the bytes go into pooled scratch.
func TestDecodePageAt(t *testing.T) {
	pages := codecSeedPages()
	var file []byte
	var offs []int
	for _, p := range pages {
		offs = append(offs, len(file))
		var err error
		if file, err = AppendPage(file, p, false); err != nil {
			t.Fatal(err)
		}
	}
	offs = append(offs, len(file))
	ra := bytes.NewReader(file)
	for i, want := range pages {
		got, err := DecodePageAt(ra, int64(offs[i]), offs[i+1]-offs[i], nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := pagesEqual(want, got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := DecodePageAt(ra, 0, offs[1]-offs[0]+1, nil); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("a length past the frame: %v", err)
	}
	last := len(offs) - 2
	if _, err := DecodePageAt(ra, int64(offs[last])+1, offs[last+1]-offs[last], nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a read past the end: %v", err)
	}
	if _, err := DecodePageAt(ra, 0, math.MaxInt32, nil); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("a length over the frame limit: %v", err)
	}

	if raceEnabled {
		return // the race detector changes what allocates
	}
	frame, err := EncodePage(widePage(562), false)
	if err != nil {
		t.Fatal(err)
	}
	ra = bytes.NewReader(frame)
	at := testing.AllocsPerRun(100, func() { DecodePageAt(ra, 0, len(frame), nil) })
	in := testing.AllocsPerRun(100, func() { DecodePage(frame) })
	if at > in {
		t.Errorf("DecodePageAt makes %.0f allocations, DecodePage of the same frame %.0f", at, in)
	}
}

// TestDecodePageAtLeases decodes one frame into an arena and fresh: the pages
// are equal; the flat columns' values and null vectors and the dictionary
// column's indices are leases (the poison of a rewind reaches them), the
// dictionary's entries, the run's value and a VARCHAR column's values are not;
// and a frame that fails to decode leaves the arena holding what it held.
func TestDecodePageAtLeases(t *testing.T) {
	was := PoisonScratch(true)
	t.Cleanup(func() { PoisonScratch(was) })
	want := NewPage(
		NewLongBlock([]int64{1, 2, 3, 4}, []bool{false, true, false, false}),
		NewDoubleBlock([]float64{0.5, -1, math.NaN(), 2}, nil),
		NewBoolBlock([]bool{true, false, false, true}, nil),
		&DictionaryBlock{Dict: NewVarcharBlock([]string{"x", "y"}, nil), Indices: []int32{0, 1, 1, 0}},
		&RLEBlock{Val: NewLongBlock([]int64{7}, nil), Count: 4},
		NewVarcharBlock([]string{"a", "b", "c", "d"}, nil),
	)
	frame, err := EncodePage(want, false)
	if err != nil {
		t.Fatal(err)
	}
	ra := bytes.NewReader(frame)
	var a Arena
	got, err := DecodePageAt(ra, 0, len(frame), &a)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := DecodePageAt(ra, 0, len(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pagesEqual(fresh, got); err != nil {
		t.Fatalf("leased decode: %v", err)
	}
	if err := pagesEqual(want, got); err != nil {
		t.Fatalf("leased decode: %v", err)
	}
	a.Rewind()
	long, dbl, bl := got.Col(0).(*LongBlock), got.Col(1).(*DoubleBlock), got.Col(2).(*BoolBlock)
	dict, rle, str := got.Col(3).(*DictionaryBlock), got.Col(4).(*RLEBlock), got.Col(5).(*VarcharBlock)
	for name, leased := range map[string]bool{
		"bigint values":      long.Vals[0] == math.MinInt64,
		"bigint nulls":       !long.Nulls[1],
		"double values":      math.IsNaN(dbl.Vals[0]),
		"boolean values":     !bl.Vals[0],
		"dictionary indices": dict.Indices[0] == math.MinInt32,
	} {
		if !leased {
			t.Errorf("%s were not leased from the arena", name)
		}
	}
	if dict.Dict.Str(0) != "x" || rle.Val.Long(0) != 7 || str.Vals[0] != "a" {
		t.Errorf("a dictionary's entries, a run's value or VARCHAR values were leased: %q %d %q", dict.Dict.Str(0), rle.Val.Long(0), str.Vals[0])
	}

	// A payload with a byte after its last column fails once every column
	// has leased its vectors; its checksum is right.
	bad := append(append([]byte(nil), frame...), 0)
	putFrameHeader(bad, 0, len(bad)-frameHeaderLen)
	mark := a.Mark()
	if _, err := DecodePageAt(bytes.NewReader(bad), 0, len(bad), &a); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("a payload with a trailing byte: %v", err)
	}
	if got := a.Mark(); got != mark {
		t.Errorf("a failed decode left %d leases in the arena, want %d", got, mark)
	}
}

// TestBoundsMatchesBoxedCompare: the typed bounds of flat, run-length and
// dictionary blocks are the ones boxing every row and comparing gives,
// -0.0 and NaN included.
func TestBoundsMatchesBoxedCompare(t *testing.T) {
	doubles := []float64{math.Copysign(0, -1), 0, math.NaN(), 2.5, -1}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		nulls := make([]bool, n)
		longs, dbls, strs, bools := make([]int64, n), make([]float64, n), make([]string, n), make([]bool, n)
		for i := range nulls {
			nulls[i] = rng.Intn(4) == 0
			longs[i] = int64(rng.Intn(5) - 2)
			dbls[i] = doubles[rng.Intn(len(doubles))]
			strs[i] = string(rune('a' + rng.Intn(4)))
			bools[i] = rng.Intn(2) == 0
		}
		for _, b := range []Block{
			NewLongBlock(longs, nulls), NewDateBlock(longs, nil), NewDoubleBlock(dbls, nulls),
			NewVarcharBlock(strs, nulls), NewBoolBlock(bools, nulls),
			RLEEncode(NewLongBlock(longs[:1], nulls[:1])), DictEncode(NewVarcharBlock(strs, nulls), 1),
		} {
			lo, hi, nullCount, ok := Bounds(b)
			wantLo, wantHi, wantNulls, wantOK := boxedBounds(b)
			same := func(a, b types.Value) bool {
				return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
					math.Float64bits(a.F) == math.Float64bits(b.F)
			}
			if ok != wantOK || nullCount != wantNulls || !same(lo, wantLo) || !same(hi, wantHi) {
				t.Fatalf("seed %d %T: Bounds = %v %v %d %v, boxed %v %v %d %v",
					seed, b, lo, hi, nullCount, ok, wantLo, wantHi, wantNulls, wantOK)
			}
		}
	}
}

func boxedBounds(b Block) (lo, hi types.Value, nulls int64, ok bool) {
	for r := 0; r < b.Len(); r++ {
		if b.IsNull(r) {
			nulls++
			continue
		}
		v := b.Value(r)
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		if v.Compare(lo) < 0 {
			lo = v
		}
		if v.Compare(hi) > 0 {
			hi = v
		}
	}
	return lo, hi, nulls, ok
}

// TestRLEEncodeKeepsDoubleBits: 0.0 and -0.0 compare equal but are not one
// run, so a stored column keeps both signs.
func TestRLEEncodeKeepsDoubleBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if _, ok := RLEEncode(NewDoubleBlock([]float64{0, negZero}, nil)).(*RLEBlock); ok {
		t.Error("0.0 and -0.0 were encoded as one run")
	}
	if _, ok := RLEEncode(NewDoubleBlock([]float64{negZero, negZero}, nil)).(*RLEBlock); !ok {
		t.Error("a run of -0.0 was not encoded as a run")
	}
}
