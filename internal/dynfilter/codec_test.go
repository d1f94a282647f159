package dynfilter

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/types"
)

// codecSeedSummaries are the shapes a summary takes on the wire: every key
// type, -0.0 and NaN doubles, an empty build, a disabled one, an overflowed
// exact set, and a Bloom dense enough to leave the sparse form.
func codecSeedSummaries() map[string]*Summary {
	longs := NewSummary(types.Bigint)
	for _, k := range []int64{1, -5, 42} {
		longs.AddLong(k, DefaultMaxSet)
	}
	negZero := NewSummary(types.Double)
	negZero.AddDouble(math.Copysign(0, -1), DefaultMaxSet)
	negZero.AddDouble(1.5, DefaultMaxSet)
	nan := NewSummary(types.Double)
	nan.AddDouble(2.5, DefaultMaxSet)
	nan.AddDouble(math.NaN(), DefaultMaxSet)
	strs := NewSummary(types.Varchar)
	strs.AddStr("aa", DefaultMaxSet)
	strs.AddStr("", DefaultMaxSet)
	bools := NewSummary(types.Boolean)
	bools.AddBool(true, DefaultMaxSet)
	nulls := NewSummary(types.Bigint) // a build whose every key was NULL
	nulls.AddValue(types.Value{T: types.Bigint, Null: true}, DefaultMaxSet)
	overflowed := NewSummary(types.Date)
	for i := int64(0); i < 50; i++ {
		overflowed.AddLong(i, 4)
	}
	dense := NewSummary(types.Bigint)
	for i := int64(0); i < 3000; i++ {
		dense.AddLong(i*7, 16)
	}
	disabled := NewSummary(types.Bigint)
	disabled.AddLong(9, DefaultMaxSet)
	disabled.Disabled = true
	return map[string]*Summary{
		"bigint": longs, "negzero": negZero, "nan": nan, "varchar": strs, "boolean": bools,
		"null keys": nulls, "empty": NewSummary(types.Bigint), "overflowed": overflowed, "dense": dense,
		"disabled": disabled, "collectorless": {Disabled: true},
	}
}

// TestSummaryCodecRoundTrip: what crosses is the verdict on every build key,
// the bounds bit for bit, the row count and the flags — never the exact set.
func TestSummaryCodecRoundTrip(t *testing.T) {
	for name, s := range codecSeedSummaries() {
		frame := AppendSummary(nil, s)
		got, err := DecodeSummary(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Disabled != s.Disabled || got.Empty() != s.Empty() || got.HasExact() {
			t.Errorf("%s: disabled %v empty %v exact %v, want %v %v false",
				name, got.Disabled, got.Empty(), got.HasExact(), s.Disabled, s.Empty())
		}
		if s.Disabled {
			if len(frame) != 2 {
				t.Errorf("%s: a disabled summary is a %d-byte frame, want 2", name, len(frame))
			}
			continue
		}
		if got.T != s.T || got.Rows != s.Rows || got.HasBounds != s.HasBounds || got.BoundsPoisoned != s.BoundsPoisoned {
			t.Errorf("%s: decoded %+v, want the flags of %+v", name, got, s)
		}
		if math.Float64bits(got.Min.F) != math.Float64bits(s.Min.F) || math.Float64bits(got.Max.F) != math.Float64bits(s.Max.F) ||
			got.Min.I != s.Min.I || got.Max.I != s.Max.I || got.Min.S != s.Min.S || got.Max.S != s.Max.S {
			t.Errorf("%s: bounds [%v, %v], want [%v, %v]", name, got.Min, got.Max, s.Min, s.Max)
		}
		for _, v := range s.ExactValues() {
			if !got.MatchValue(v) {
				t.Errorf("%s: build key %v does not match after transit", name, v)
			}
		}
		if !bytes.Equal(AppendSummary(nil, got), frame) {
			t.Errorf("%s: the decoded summary encodes differently", name)
		}
		// A union of decoded halves is what the coordinator delivers.
		union := NewSummary(s.T)
		union.Merge(got)
		union.Merge(got)
		if union.Disabled || union.HasExact() || union.Rows != 2*s.Rows {
			t.Errorf("%s: union of decoded summaries: %+v", name, union)
		}
	}
	seeds := codecSeedSummaries()
	if got, _ := DecodeSummary(AppendSummary(nil, seeds["negzero"])); !math.Signbit(got.Min.F) || !got.MatchDouble(0) || !got.MatchLong(0) {
		t.Error("-0.0 lost its sign in the bounds or its integer cell in the Bloom")
	}
	if got, _ := DecodeSummary(AppendSummary(nil, seeds["nan"])); !got.MatchDouble(math.NaN()) || got.HasBounds {
		t.Error("a NaN key no longer matches, or poisoned bounds came back usable")
	}
	if got, _ := DecodeSummary(AppendSummary(nil, seeds["bigint"])); got.MatchLong(7) {
		t.Error("an absent key matched a three-key Bloom")
	}
	if small, dense := len(AppendSummary(nil, seeds["bigint"])), len(AppendSummary(nil, seeds["dense"])); small > 100 || dense < bloomWords*8 {
		t.Errorf("frames of %d and %d bytes: a three-key Bloom should be sparse, a 3 000-key one dense", small, dense)
	}
}

// TestSummaryCodecRejectsMalformed: every length is checked before it is
// believed.
func TestSummaryCodecRejectsMalformed(t *testing.T) {
	good := AppendSummary(nil, codecSeedSummaries()["varchar"])
	for i := 0; i < len(good); i++ {
		if _, err := DecodeSummary(good[:i]); err == nil {
			t.Errorf("a frame cut to %d of %d bytes decoded", i, len(good))
		}
	}
	for name, frame := range map[string][]byte{
		"trailing bytes":     append(append([]byte{}, good...), 0),
		"array type":         {byte(types.Array), 0, 0},
		"bounds on boolean":  {byte(types.Boolean), flagBounds, 0},
		"huge string length": {byte(types.Varchar), flagBounds | flagSparse, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"sparse count lies":  {byte(types.Bigint), flagSparse, 1, 0xff, 0xff},
		"sparse index":       {byte(types.Bigint), flagSparse, 1, 1, 0, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := DecodeSummary(frame); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzSummaryDecode: arbitrary bytes never panic or allocate past the frame,
// and whatever decodes re-encodes to a frame that decodes to the same thing.
func FuzzSummaryDecode(f *testing.F) {
	for _, s := range codecSeedSummaries() {
		f.Add(AppendSummary(nil, s))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSummary(data)
		if err != nil {
			return
		}
		again, err := DecodeSummary(AppendSummary(nil, s))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again.Disabled != s.Disabled || again.Rows != s.Rows || again.HasBounds != s.HasBounds ||
			len(again.Bloom) != len(s.Bloom) {
			t.Fatalf("round trip changed %+v into %+v", s, again)
		}
		s.MatchValue(types.BigintValue(1))
		s.MatchValue(types.VarcharValue("x"))
	})
}
