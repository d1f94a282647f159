package orcish

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

func testColumns() []ColumnMeta {
	return []ColumnMeta{
		{Name: "id", T: types.Bigint},
		{Name: "name", T: types.Varchar},
		{Name: "score", T: types.Double},
		{Name: "flag", T: types.Varchar}, // low cardinality → dictionary
	}
}

func testPage(n int, base int64) *block.Page {
	ids := make([]int64, n)
	names := make([]string, n)
	scores := make([]float64, n)
	flags := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = base + int64(i)
		names[i] = "name-" + string(rune('a'+i%26))
		scores[i] = float64(i) * 1.5
		flags[i] = []string{"A", "N", "R"}[i%3]
	}
	return block.NewPage(
		block.NewLongBlock(ids, nil),
		block.NewVarcharBlock(names, nil),
		block.NewDoubleBlock(scores, nil),
		block.NewVarcharBlock(flags, nil),
	)
}

func writeTestFile(t *testing.T, stripeRows int, pages ...*block.Page) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.orcish")
	if err := WriteFile(path, testColumns(), pages, stripeRows); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := writeTestFile(t, 100, testPage(250, 0))
	r, err := OpenReader(path, []string{"id", "name", "score", "flag"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	total := 0
	for {
		p, err := r.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		for i := 0; i < p.RowCount(); i++ {
			if p.Col(0).Long(i) != int64(total) {
				t.Fatalf("row %d id=%d", total, p.Col(0).Long(i))
			}
			total++
		}
	}
	if total != 250 {
		t.Errorf("rows: %d", total)
	}
}

func TestFooter(t *testing.T) {
	path := writeTestFile(t, 100, testPage(250, 0))
	f, err := ReadFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows != 250 || len(f.Stripes) != 3 {
		t.Errorf("footer: rows=%d stripes=%d", f.Rows, len(f.Stripes))
	}
	st := f.Stripes[0].Stats[0]
	if !st.HasValues || st.Min.I != 0 || st.Max.I != 99 {
		t.Errorf("stripe 0 id stats: %+v", st)
	}
}

func TestColumnProjection(t *testing.T) {
	path := writeTestFile(t, 0, testPage(10, 0))
	r, err := OpenReader(path, []string{"score", "id"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p, err := r.NextPage()
	if err != nil {
		t.Fatal(err)
	}
	if p.ColCount() != 2 || p.Col(0).Type() != types.Double || p.Col(1).Type() != types.Bigint {
		t.Error("projection order/types")
	}
}

func TestUnknownColumnErrors(t *testing.T) {
	path := writeTestFile(t, 0, testPage(10, 0))
	if _, err := OpenReader(path, []string{"nope"}, nil, false); err == nil {
		t.Error("unknown column should error")
	}
}

func TestStripeSkipping(t *testing.T) {
	// Three stripes: ids [0,99], [100,199], [200,249].
	path := writeTestFile(t, 100, testPage(250, 0))
	d := plan.AllDomain()
	lo, hi := types.BigintValue(120), types.BigintValue(150)
	d.Columns["id"] = plan.RangeDomain(types.Bigint, &lo, &hi, true, true)
	r, err := OpenReader(path, []string{"id"}, d, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rows := 0
	for {
		p, err := r.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		rows += p.RowCount()
	}
	if r.StripesSkipped != 2 || r.StripesRead != 1 {
		t.Errorf("skipped=%d read=%d", r.StripesSkipped, r.StripesRead)
	}
	if rows != 100 {
		t.Errorf("rows: %d", rows)
	}
}

func TestLazyReadsFetchOnlyTouchedColumns(t *testing.T) {
	path := writeTestFile(t, 0, testPage(100, 0))
	lazy, err := OpenReader(path, []string{"id", "name", "score", "flag"}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	p, err := lazy.NextPage()
	if err != nil {
		t.Fatal(err)
	}
	// Touch only id.
	_ = p.Col(0).Long(0)
	lazyBytes := lazy.BytesRead()

	eager, err := OpenReader(path, []string{"id", "name", "score", "flag"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	if _, err := eager.NextPage(); err != nil {
		t.Fatal(err)
	}
	if lazyBytes >= eager.BytesRead() {
		t.Errorf("lazy (%d) should read fewer bytes than eager (%d)", lazyBytes, eager.BytesRead())
	}
}

func TestDictionaryEncodingInFile(t *testing.T) {
	// The low-cardinality "flag" column should come back dictionary- or
	// RLE-encoded, not plain.
	path := writeTestFile(t, 0, testPage(100, 0))
	r, err := OpenReader(path, []string{"flag"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p, _ := r.NextPage()
	if _, ok := p.Col(0).(*block.DictionaryBlock); !ok {
		t.Errorf("flag column should be dictionary-encoded, got %T", p.Col(0))
	}
}

func TestCorruptFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.orcish")
	os.WriteFile(path, []byte("this is not an orcish file at all"), 0o644)
	if _, err := ReadFooter(path); err == nil {
		t.Error("corrupt file should error")
	}
	tiny := filepath.Join(t.TempDir(), "tiny.orcish")
	os.WriteFile(tiny, []byte("x"), 0o644)
	if _, err := ReadFooter(tiny); err == nil {
		t.Error("tiny file should error")
	}

	good := writeTestFile(t, 100, testPage(250, 0))
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	footer, err := ReadFooter(good)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(name string, b []byte) string {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	openErr := func(path, want string) {
		t.Helper()
		_, err := OpenReader(path, []string{"id"}, nil, false)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
			t.Errorf("open %s: got %v, want an error naming the file and %q", filepath.Base(path), err, want)
		}
	}

	// A footer cut short: its length no longer fits, or its frames no longer
	// parse, and the open says so.
	flen := int64(len(data)) - tailLen - footer.Stripes[2].Offset - footer.Stripes[2].Length
	cut := append(append([]byte(nil), data[:len(data)-tailLen-int(flen)/2]...), data[len(data)-tailLen:]...)
	openErr(rewrite("cut.orcish", cut), "footer")
	flipped := append([]byte(nil), data...)
	flipped[len(data)-tailLen-5]++
	openErr(rewrite("footer.orcish", flipped), "corrupt footer")
	// The retired gob format is refused by name.
	old := append([]byte(nil), data...)
	copy(old[len(old)-8:], "ORCISH01")
	openErr(rewrite("old.orcish", old), "ORCISH01")

	// One flipped byte inside a stripe's "score" section fails the read of
	// that column, eagerly or lazily, naming the file and the column; the
	// other columns still read.
	st := footer.Stripes[1]
	bad := append([]byte(nil), data...)
	bad[st.Offset+st.ColOffsets[2]+st.ColLengths[2]/2] ^= 0x40
	badPath := rewrite("stripe.orcish", bad)
	wantErr := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), badPath) || !strings.Contains(err.Error(), `column "score"`) {
			t.Errorf("got %v, want an error naming %s and column score", err, badPath)
		}
	}
	eager, err := OpenReader(badPath, []string{"id", "score"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	if _, err := eager.NextPage(); err != nil {
		t.Fatalf("stripe 0 is intact: %v", err)
	}
	_, err = eager.NextPage()
	wantErr(err)

	lazy, err := OpenReader(badPath, []string{"id", "score"}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	lazy.NextPage()
	p, err := lazy.NextPage()
	if err != nil {
		t.Fatal(err)
	}
	if p.Col(0).Long(0) != 100 {
		t.Errorf("intact id column of stripe 1 reads %d", p.Col(0).Long(0))
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("forcing the damaged lazy column did not fail")
			}
			wantErr(fmt.Errorf("%v", r))
		}()
		p.Col(1).Double(0)
	}()
}

func TestNullsRoundTrip(t *testing.T) {
	page := block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: []int64{1, 0, 3}, Nulls: []bool{false, true, false}},
		block.NewVarcharBlock([]string{"a", "b", "c"}, []bool{false, false, true}),
		block.NewDoubleBlock([]float64{1, 2, 3}, nil),
		block.NewVarcharBlock([]string{"A", "A", "A"}, nil),
	)
	path := filepath.Join(t.TempDir(), "nulls.orcish")
	if err := WriteFile(path, testColumns(), []*block.Page{page}, 0); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path, []string{"id", "name"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p, _ := r.NextPage()
	if !p.Col(0).IsNull(1) || p.Col(0).IsNull(0) {
		t.Error("bigint nulls lost")
	}
	if !p.Col(1).IsNull(2) || p.Col(1).Str(0) != "a" {
		t.Error("varchar nulls lost")
	}
}

// TestSectionsHoldTheColumnType: a page whose blocks are not of the columns'
// types — an INSERT's BIGINT into a DOUBLE column, an untyped NULL literal's
// column — is stored in the columns' types, so every section reads back as
// what the footer says it is.
func TestSectionsHoldTheColumnType(t *testing.T) {
	page := block.NewPage(
		block.NewLongBlock([]int64{1, 2, 3}, nil),
		block.NewVarcharBlock([]string{"a", "b", "c"}, nil),
		block.NewLongBlock([]int64{7, 8, 9}, nil),
		block.BuildBlock(types.Unknown, make([]types.Value, 3)),
	)
	path := filepath.Join(t.TempDir(), "coerce.orcish")
	if err := WriteFile(path, testColumns(), []*block.Page{page}, 0); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path, []string{"score", "flag"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p, err := r.NextPage()
	if err != nil {
		t.Fatal(err)
	}
	if score := p.Col(0); score.Type() != types.Double || score.Double(2) != 9 {
		t.Errorf("score reads back as %s %v", score.Type(), score.Value(2))
	}
	if flag := p.Col(1); flag.Type() != types.Varchar || !flag.IsNull(0) {
		t.Errorf("flag reads back as %s %v", flag.Type(), flag.Value(0))
	}
}

// Property: arbitrary bigint columns round-trip exactly through the format.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		i++
		path := filepath.Join(dir, "prop"+string(rune('a'+i%26))+".orcish")
		cols := []ColumnMeta{{Name: "v", T: types.Bigint}}
		page := block.NewPage(block.NewLongBlock(vals, nil))
		if err := WriteFile(path, cols, []*block.Page{page}, 7); err != nil {
			return false
		}
		r, err := OpenReader(path, []string{"v"}, nil, false)
		if err != nil {
			return false
		}
		defer r.Close()
		var got []int64
		for {
			p, err := r.NextPage()
			if err != nil {
				return false
			}
			if p == nil {
				break
			}
			for j := 0; j < p.RowCount(); j++ {
				got = append(got, p.Col(0).Long(j))
			}
		}
		if len(got) != len(vals) {
			return false
		}
		for j := range vals {
			if got[j] != vals[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWriterMultiplePagesAcrossStripes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.orcish")
	cols := []ColumnMeta{{Name: "v", T: types.Bigint}}
	w := mustWriter(t, path, cols, 64)
	for i := 0; i < 10; i++ {
		vals := make([]int64, 25)
		for j := range vals {
			vals[j] = int64(i*25 + j)
		}
		if err := w.Append(block.NewPage(block.NewLongBlock(vals, nil))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	footer, err := ReadFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	if footer.Rows != 250 {
		t.Errorf("rows: %d", footer.Rows)
	}
	for _, s := range footer.Stripes[:len(footer.Stripes)-1] {
		if s.Rows != 64 {
			t.Errorf("stripe rows: %d", s.Rows)
		}
	}
}

func mustWriter(t *testing.T, path string, cols []ColumnMeta, stripeRows int) *Writer {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return NewWriter(f, cols, stripeRows)
}
