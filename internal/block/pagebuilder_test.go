package block

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/types"
)

// sameBlock reports whether two blocks are the same concrete type holding
// the same cells bit for bit (so −0.0 ≠ 0.0 and NaN = NaN of the same
// payload) under the same null mask, a missing mask being different from one
// that is all false.
func sameBlock(a, b Block) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) || a.Type() != b.Type() || a.Len() != b.Len() {
		return false
	}
	sameNulls := func(x, y []bool) bool { return (x == nil) == (y == nil) && slices.Equal(x, y) }
	switch x := a.(type) {
	case *LongBlock:
		y := b.(*LongBlock)
		return sameNulls(x.Nulls, y.Nulls) && slices.Equal(x.Vals, y.Vals)
	case *DoubleBlock:
		y := b.(*DoubleBlock)
		for i := range x.Vals {
			if math.Float64bits(x.Vals[i]) != math.Float64bits(y.Vals[i]) {
				return false
			}
		}
		return sameNulls(x.Nulls, y.Nulls)
	case *VarcharBlock:
		y := b.(*VarcharBlock)
		return sameNulls(x.Nulls, y.Nulls) && slices.Equal(x.Vals, y.Vals)
	case *BoolBlock:
		y := b.(*BoolBlock)
		return sameNulls(x.Nulls, y.Nulls) && slices.Equal(x.Vals, y.Vals)
	case *ArrayBlock:
		y := b.(*ArrayBlock)
		return sameNulls(x.Nulls, y.Nulls) && reflect.DeepEqual(x.Vals, y.Vals)
	}
	return false
}

// TestPageBuilderMatchesBuildBlock: over random columns of every type, with
// the awkward cells in the mix (NULL, −0.0, NaN, ”, arrays, a NULL that
// still carries a payload, an untyped-NULL column, a value of the wrong type
// for its column), the typed builder produces exactly the blocks BuildBlock
// produces from the same boxed values, the page codec frames them to the
// same bytes, and a builder is empty again after Build.
func TestPageBuilderMatchesBuildBlock(t *testing.T) {
	ts := []types.Type{types.Bigint, types.Date, types.Double, types.Varchar, types.Boolean, types.Array, types.Unknown}
	cell := func(rng *rand.Rand, t types.Type) types.Value {
		switch rng.Intn(8) {
		case 0:
			return types.NullValue(t)
		case 1:
			// A NULL with fields set: both builders read the raw fields.
			return types.Value{T: t, Null: true, I: 7, F: 7, S: "seven", B: true}
		case 2:
			// Another column's value: no coercion, the declared type's field.
			return types.Value{T: types.Varchar, S: "stray", I: 3}
		}
		switch t {
		case types.Bigint:
			return types.BigintValue(rng.Int63() - rng.Int63())
		case types.Date:
			return types.DateValue(int64(rng.Intn(20000)))
		case types.Double:
			return types.DoubleValue([]float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1), rng.NormFloat64()}[rng.Intn(5)])
		case types.Varchar:
			return types.VarcharValue([]string{"", "a", "\x00", "naïve"}[rng.Intn(4)])
		case types.Boolean:
			return types.BooleanValue(rng.Intn(2) == 0)
		case types.Array:
			return types.ArrayValue([]types.Value{types.BigintValue(int64(rng.Intn(3))), types.NullValue(types.Bigint)}[:rng.Intn(3)])
		}
		return types.NullValue(types.Unknown)
	}
	b := NewPageBuilder(ts)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) // 0 rows included
		if seed%10 == 0 {
			n = 300 + rng.Intn(300) // past several append growths
		}
		boxed := make([][]types.Value, len(ts))
		row := make([]types.Value, len(ts))
		for r := 0; r < n; r++ {
			for c, ct := range ts {
				row[c] = cell(rng, ct)
				if seed%3 == 0 && ct != types.Unknown {
					row[c].Null = false // a third of the pages have no NULL at all
				}
				boxed[c] = append(boxed[c], row[c])
			}
			b.AppendRow(row)
		}
		if b.RowCount() != n {
			t.Fatalf("seed %d: RowCount %d, want %d", seed, b.RowCount(), n)
		}
		got := b.Build()
		want := make([]Block, len(ts))
		for c, ct := range ts {
			want[c] = BuildBlock(ct, boxed[c])
			if !sameBlock(got.Col(c), want[c]) {
				t.Fatalf("seed %d, %d rows, column %d (%s):\n got %#v\nwant %#v", seed, n, c, ct, got.Col(c), want[c])
			}
		}
		if n > 0 {
			gf, err := EncodePage(got, false)
			if err != nil {
				t.Fatal(err)
			}
			wf, err := EncodePage(NewPage(want...), false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gf, wf) {
				t.Fatalf("seed %d: the two pages encode to different frames", seed)
			}
		}
		if b.RowCount() != 0 {
			t.Fatalf("seed %d: builder holds %d rows after Build", seed, b.RowCount())
		}
	}
}
