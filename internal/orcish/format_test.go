package orcish

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// propColumns is one column of every stored type.
var propColumns = []ColumnMeta{
	{Name: "b", T: types.Bigint}, {Name: "d", T: types.Date}, {Name: "f", T: types.Double},
	{Name: "s", T: types.Varchar}, {Name: "t", T: types.Boolean}, {Name: "a", T: types.Array},
}

// propStripeRows is the stripe size the property files are written with;
// randomPropPage picks each column's shape per stripe-sized run of rows.
const propStripeRows = 8

var propDoubles = []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, -2, math.Inf(1)}

// randomPropPage draws rows in runs of propStripeRows, each column of each run
// in one shape: all NULL, one value (an RLE section), a few values (a
// dictionary), or anything, with NULLs sprinkled in.
func randomPropPage(rng *rand.Rand, rows int) *block.Page {
	b := block.NewPageBuilder([]types.Type{types.Bigint, types.Date, types.Double, types.Varchar, types.Boolean, types.Array})
	shapes := make([]int, len(propColumns))
	for r := 0; r < rows; r++ {
		if r%propStripeRows == 0 {
			for c := range shapes {
				shapes[c] = rng.Intn(4)
			}
		}
		row := make([]types.Value, len(propColumns))
		for c, cm := range propColumns {
			pick := rng.Intn(1000)
			switch shapes[c] {
			case 0:
				row[c] = types.NullValue(cm.T)
				continue
			case 1:
				pick = 7
			case 2:
				pick %= 3
			}
			if shapes[c] == 3 && rng.Intn(5) == 0 {
				row[c] = types.NullValue(cm.T)
				continue
			}
			switch cm.T {
			case types.Bigint:
				row[c] = types.BigintValue(int64(pick) - 500)
			case types.Date:
				row[c] = types.DateValue(int64(pick))
			case types.Double:
				row[c] = types.DoubleValue(propDoubles[pick%len(propDoubles)])
			case types.Varchar:
				row[c] = types.VarcharValue(string(rune('a'+pick%26)) + string(rune('a'+pick/26%26)))
			case types.Boolean:
				row[c] = types.BooleanValue(pick%2 == 1)
			case types.Array:
				row[c] = types.ArrayValue([]types.Value{types.BigintValue(int64(pick))})
			}
		}
		b.AppendRow(row)
	}
	return b.Build()
}

// boxedStats is how stripe statistics were computed when every row was boxed
// and compared; the typed loops must give the same answers.
func boxedStats(col block.Block) ColumnStats {
	var st ColumnStats
	for r := 0; r < col.Len(); r++ {
		if col.IsNull(r) {
			st.NullCount++
			continue
		}
		v := col.Value(r)
		if !st.HasValues {
			st.Min, st.Max, st.HasValues = v, v, true
			continue
		}
		if v.T.Comparable() {
			if v.Compare(st.Min) < 0 {
				st.Min = v
			}
			if v.Compare(st.Max) > 0 {
				st.Max = v
			}
		}
	}
	return st
}

// sameValue is equality that tells -0.0 from 0.0 and finds a NaN equal to
// itself.
func sameValue(a, b types.Value) bool {
	if a.T == types.Double && b.T == types.Double {
		return a.Null == b.Null && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return reflect.DeepEqual(a, b)
}

func sameStats(a, b ColumnStats) bool {
	return a.HasValues == b.HasValues && a.NullCount == b.NullCount && sameValue(a.Min, b.Min) && sameValue(a.Max, b.Max)
}

// TestRoundTripEveryType: what WriteFile stores, OpenReader returns — every
// value bit for bit, every NULL — eagerly and lazily, and each stripe's
// footer statistics are what boxing every row and comparing gives, for
// every type, with all-NULL stripes and -0.0 / NaN doubles among them. The
// writer's own footer (the one the hive connector caches) is the one read
// back.
func TestRoundTripEveryType(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		page := randomPropPage(rng, rng.Intn(5*propStripeRows))
		path := filepath.Join(dir, "prop.orcish")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, propColumns, propStripeRows)
		if err := w.Append(page); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		footer, err := ReadFooter(path)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if footer.Rows != int64(page.RowCount()) || len(footer.Stripes) != len(w.Footer().Stripes) {
			t.Fatalf("seed %d: footer has %d rows in %d stripes, want %d rows", seed, footer.Rows, len(footer.Stripes), page.RowCount())
		}
		for si, s := range footer.Stripes {
			written := w.Footer().Stripes[si]
			for ci := range propColumns {
				want := boxedStats(block.Slice(page.Col(ci), si*propStripeRows, si*propStripeRows+int(s.Rows)))
				if !sameStats(s.Stats[ci], want) || !sameStats(written.Stats[ci], want) {
					t.Fatalf("seed %d stripe %d column %s: stats %+v (writer %+v), want %+v", seed, si, propColumns[ci].Name, s.Stats[ci], written.Stats[ci], want)
				}
			}
			if s.Offset != written.Offset || !reflect.DeepEqual(s.ColLengths, written.ColLengths) {
				t.Fatalf("seed %d stripe %d: read %+v, writer %+v", seed, si, s, written)
			}
		}
		names := make([]string, len(propColumns))
		for i, c := range propColumns {
			names[i] = c.Name
		}
		for _, lazy := range []bool{false, true} {
			r, err := OpenReader(path, names, nil, lazy)
			if err != nil {
				t.Fatal(err)
			}
			row := 0
			for {
				p, err := r.NextPage()
				if err != nil {
					t.Fatal(err)
				}
				if p == nil {
					break
				}
				for i := 0; i < p.RowCount(); i, row = i+1, row+1 {
					for c := range propColumns {
						got, want := p.Col(c).Value(i), page.Col(c).Value(row)
						if !sameValue(got, want) {
							t.Fatalf("seed %d lazy=%v row %d column %s: %v, want %v", seed, lazy, row, propColumns[c].Name, got, want)
						}
					}
				}
			}
			r.Close()
			if row != page.RowCount() {
				t.Fatalf("seed %d lazy=%v: read %d rows of %d", seed, lazy, row, page.RowCount())
			}
		}
	}
}

// TestLazyColumnsLoadConcurrently forces the lazy columns of one reader from
// several goroutines at once, as sibling morsel drivers do — some of them
// after the reader is closed — and every load returns the column.
func TestLazyColumnsLoadConcurrently(t *testing.T) {
	path := writeTestFile(t, 16, testPage(256, 0))
	r, err := OpenReader(path, []string{"id", "name", "score", "flag"}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	var pages []*block.Page
	for {
		p, err := r.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		pages = append(pages, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 3 {
				r.Close()
			}
			for pi := range pages {
				p := pages[(pi+g*5)%len(pages)]
				base := int64((pi + g*5) % len(pages) * 16)
				if got := p.Col(0).Long(3); got != base+3 {
					t.Errorf("page %d id %d, want %d", pi, got, base+3)
				}
				if got := p.Col(2).Double(1); got != float64(base+1)*1.5 {
					t.Errorf("page %d score %v", pi, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.BytesRead(), int64(0); got == want {
		t.Error("loads counted no bytes")
	}
}

// orcishSeedFiles are real files of every section shape: flat, dictionary,
// RLE, NULL-bearing, and one with no stripes.
func orcishSeedFiles(f *testing.F) [][]byte {
	dir := f.TempDir()
	var out [][]byte
	write := func(cols []ColumnMeta, pages []*block.Page, stripeRows int) {
		path := filepath.Join(dir, "seed.orcish")
		if err := WriteFile(path, cols, pages, stripeRows); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	write(testColumns(), []*block.Page{testPage(40, 0)}, 16)
	write(propColumns, []*block.Page{randomPropPage(rand.New(rand.NewSource(3)), 20)}, propStripeRows)
	write(testColumns(), nil, 0)
	return out
}

// FuzzOrcishDecode feeds arbitrary bytes to footer decode and, for a footer
// it accepts, to the decode of every section the footer points to. Neither
// may panic, and neither may allocate more than the input can hold: the
// footer's structures are bounded by its flat frames, a section by its frame
// (up to deflate's expansion limit, the page codec's own bound). Every
// section is decoded twice, fresh and into an arena as a lazy scan's column
// is: the blocks are identical, or both decodes fail alike.
func FuzzOrcishDecode(f *testing.F) {
	for _, data := range orcishSeedFiles(f) {
		f.Add(data)
	}
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := func(what string, before uint64) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if got := ms.TotalAlloc - before; got > uint64(1100*len(data))+1<<20 {
				t.Fatalf("%s of %d bytes allocated %d", what, len(data), got)
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ra := bytes.NewReader(data)
		footer, err := readFooter(ra, int64(len(data)))
		limit("footer decode", ms.TotalAlloc)
		if err != nil {
			return
		}
		var a block.Arena
		defer a.Release()
		for si := range footer.Stripes {
			for ci, cm := range footer.Columns {
				runtime.ReadMemStats(&ms)
				b, err := decodeSection(ra, cm.T, &footer.Stripes[si], ci, nil)
				limit("section decode", ms.TotalAlloc)
				// The same section decoded into scratch is the same block, or
				// fails the same way and leaves the arena as it was.
				leased, lerr := decodeSection(ra, cm.T, &footer.Stripes[si], ci, &a)
				if err != nil || lerr != nil {
					if fmt.Sprint(err) != fmt.Sprint(lerr) {
						t.Fatalf("stripe %d column %d: fresh decode %v, into an arena %v", si, ci, err, lerr)
					}
					if m := a.Mark(); m != 0 {
						t.Fatalf("stripe %d column %d: a failed decode left %d leases", si, ci, m)
					}
					continue
				}
				if err := sameBlock(b, leased); err != nil {
					t.Fatalf("stripe %d column %d: into an arena: %v", si, ci, err)
				}
				a.Rewind()
				for r := 0; r < min(b.Len(), 1<<16); r++ {
					b.Value(r)
				}
			}
		}
	})
}

// sameBlock reports how b differs from a in its encodings or in the frame it
// encodes to (bit for bit: NaN payloads and -0.0 included).
func sameBlock(a, b block.Block) error {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return fmt.Errorf("%T, want %T", b, a)
	}
	switch x := a.(type) {
	case *block.DictionaryBlock:
		if err := sameBlock(x.Dict, b.(*block.DictionaryBlock).Dict); err != nil {
			return fmt.Errorf("dictionary: %w", err)
		}
	case *block.RLEBlock:
		if err := sameBlock(x.Val, b.(*block.RLEBlock).Val); err != nil {
			return fmt.Errorf("run value: %w", err)
		}
	}
	fa, err := block.AppendPage(nil, block.NewPage(a), false)
	if err != nil {
		return err
	}
	fb, err := block.AppendPage(nil, block.NewPage(b), false)
	if err != nil {
		return err
	}
	if !bytes.Equal(fa, fb) {
		return errors.New("the blocks encode to different frames")
	}
	return nil
}
