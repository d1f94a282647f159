package block

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

func codecSeedPages() []*Page {
	return []*Page{
		NewPage(&LongBlock{T: types.Bigint, Vals: []int64{1, 2, 3}, Nulls: []bool{false, true, false}}),
		NewPage(
			&VarcharBlock{Vals: []string{"a", "bb", "ccc"}},
			&RLEBlock{Val: &DoubleBlock{Vals: []float64{2.5}}, Count: 3},
			&DictionaryBlock{Dict: &VarcharBlock{Vals: []string{"x", "y"}}, Indices: []int32{0, 1, 0}},
		),
		NewPage(&ArrayBlock{Vals: [][]types.Value{
			{types.BigintValue(1)},
			nil,
			{types.ArrayValue([]types.Value{types.VarcharValue("deep")})},
		}, Nulls: []bool{false, true, false}}),
		NewEmptyPage(4),
	}
}

// FuzzPageCodecDecode feeds arbitrary bytes to the frame decoder: it must
// never panic, must reject corrupted frames (the checksum test lives in
// TestCodecChecksumRejectsCorruption; here any accepted input must be
// internally consistent), and anything it accepts must re-encode and decode
// to the same page.
func FuzzPageCodecDecode(f *testing.F) {
	for _, p := range codecSeedPages() {
		for _, compress := range []bool{false, true} {
			if frame, err := EncodePage(p, compress); err == nil {
				f.Add(frame)
			}
		}
	}
	f.Add([]byte(codecMagic))
	f.Add([]byte{})
	f.Add(inflateBombFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := DecodePage(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// The decoded page must survive full traversal and a round trip.
		for _, col := range p.Cols {
			for i := 0; i < col.Len(); i++ {
				_ = col.Value(i)
			}
			if col.SizeBytes() < 0 {
				t.Fatalf("negative SizeBytes")
			}
		}
		frame, err := EncodePage(p, false)
		if err != nil {
			t.Fatalf("re-encode of accepted page: %v", err)
		}
		p2, _, err := DecodePage(frame)
		if err != nil {
			t.Fatalf("re-decode of accepted page: %v", err)
		}
		if err := pagesEqual(p, p2); err != nil {
			t.Fatalf("re-encoded page diverged: %v", err)
		}
	})
}

// FuzzPageCodecRoundTrip drives the random page builder with fuzzed seeds:
// every page of every block-kind mix must round-trip structurally intact,
// compressed or not.
func FuzzPageCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(42), true)
	f.Add(int64(-7), true)
	f.Fuzz(func(t *testing.T, seed int64, compress bool) {
		p := randomPage(rand.New(rand.NewSource(seed)))
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
			t.Fatal(err)
		}
	})
}
