package raptor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/conformance"
	"repro/internal/plan"
	"repro/internal/types"
)

func planHandle(catalog, table string) plan.TableHandle {
	return plan.TableHandle{Catalog: catalog, Table: table}
}

func loaded(t *testing.T) *Connector {
	t.Helper()
	c := New("raptor", 2)
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Varchar}}
	if err := c.CreateBucketedTable("t", cols, "k", 4); err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for i := int64(0); i < 100; i++ {
		rows = append(rows, []types.Value{types.BigintValue(i), types.VarcharValue("v")})
	}
	if err := c.LoadRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Harness{Conn: loaded(t), Table: "t", Rows: 100, Writable: true})
}

func TestBucketedSplitsPinnedToNodes(t *testing.T) {
	c := loaded(t)
	src, err := c.Splits(planHandle("raptor", "t"))
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := src.NextBatch(100)
	if len(batch.Splits) != 4 {
		t.Fatalf("want 4 bucket splits, got %d", len(batch.Splits))
	}
	for _, s := range batch.Splits {
		b, ok := s.(connector.Bucketed)
		if !ok {
			t.Fatal("raptor splits must be bucketed")
		}
		if pref := s.PreferredNodes(); len(pref) != 1 || pref[0] != b.Bucket()%2 {
			t.Errorf("bucket %d pinned to %v", b.Bucket(), pref)
		}
	}
}

func TestIndexLookup(t *testing.T) {
	c := loaded(t)
	if err := c.CreateIndex("t", "k"); err != nil {
		t.Fatal(err)
	}
	idx, ok := c.Index("t", []string{"k"}, []string{"k", "v"})
	if !ok {
		t.Fatal("index not found")
	}
	p, err := idx.Lookup([]types.Value{types.BigintValue(42)})
	if err != nil || p == nil || p.RowCount() != 1 || p.Col(0).Long(0) != 42 {
		t.Errorf("lookup: %v %v", p, err)
	}
	p, err = idx.Lookup([]types.Value{types.BigintValue(1000)})
	if err != nil || p != nil {
		t.Errorf("missing key should return nil page: %v %v", p, err)
	}
}

func TestBucketRouting(t *testing.T) {
	// All rows with the same key land in the same bucket.
	c := New("raptor", 2)
	cols := []connector.Column{{Name: "k", T: types.Bigint}}
	c.CreateBucketedTable("t", cols, "k", 4)
	rows := [][]types.Value{
		{types.BigintValue(7)}, {types.BigintValue(7)}, {types.BigintValue(7)},
	}
	c.LoadRows("t", rows)
	nonEmpty := 0
	c.Read("t", func(tbl *table) error {
		for _, pages := range tbl.buckets {
			if len(pages) > 0 {
				nonEmpty++
			}
		}
		return nil
	})
	if nonEmpty != 1 {
		t.Errorf("same-key rows spread across %d buckets", nonEmpty)
	}
}

// TestIndexSeesLaterWrites: rows written after CreateIndex — by LoadRows and
// through the page sink an INSERT writes — are found by an index lookup,
// including a lookup opened before they were written.
func TestIndexSeesLaterWrites(t *testing.T) {
	c := loaded(t)
	if err := c.CreateIndex("t", "k"); err != nil {
		t.Fatal(err)
	}
	early, ok := c.Index("t", []string{"k"}, []string{"k", "v"})
	if !ok {
		t.Fatal("index not found")
	}
	if err := c.LoadRows("t", [][]types.Value{{types.BigintValue(500), types.VarcharValue("loaded")}}); err != nil {
		t.Fatal(err)
	}
	sink, err := c.PageSink("t")
	if err != nil {
		t.Fatal(err)
	}
	b := block.NewPageBuilder([]types.Type{types.Bigint, types.Varchar})
	b.AppendRow([]types.Value{types.BigintValue(600), types.VarcharValue("inserted")})
	b.AppendRow([]types.Value{types.BigintValue(42), types.VarcharValue("again")})
	if err := sink.Append(b.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	late, _ := c.Index("t", []string{"k"}, []string{"k", "v"})
	for _, idx := range []connector.IndexLookup{early, late} {
		for key, want := range map[int64][]string{500: {"loaded"}, 600: {"inserted"}, 42: {"v", "again"}} {
			p, err := idx.Lookup([]types.Value{types.BigintValue(key)})
			if err != nil || p == nil {
				t.Fatalf("lookup %d: %v %v", key, p, err)
			}
			var got []string
			for r := 0; r < p.RowCount(); r++ {
				got = append(got, p.Col(1).Str(r))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("lookup %d: %v, want %v", key, got, want)
			}
		}
	}
}

// TestStatsFoldAppends: the statistics after k appends are those of one load
// of the same rows — NULLs, -0.0 against 0.0, NaN and repeated strings
// included.
func TestStatsFoldAppends(t *testing.T) {
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "d", T: types.Double}, {Name: "s", T: types.Varchar}}
	var rows [][]types.Value
	for i := int64(0); i < 60; i++ {
		d := types.DoubleValue(float64(i % 7))
		switch i % 5 {
		case 1:
			d = types.DoubleValue(math.Copysign(0, -1))
		case 2:
			d = types.DoubleValue(math.NaN())
		case 3:
			d = types.NullValue(types.Double)
		}
		s := types.VarcharValue(fmt.Sprintf("s%d", i%9))
		if i%11 == 0 {
			s = types.NullValue(types.Varchar)
		}
		rows = append(rows, []types.Value{types.BigintValue(i % 23), d, s})
	}
	once, appended := New("once", 2), New("appended", 2)
	for _, c := range []*Connector{once, appended} {
		if err := c.CreateBucketedTable("t", cols, "k", 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := once.LoadRows("t", rows); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < len(rows); from += 13 {
		if err := appended.LoadRows("t", rows[from:min(from+13, len(rows))]); err != nil {
			t.Fatal(err)
		}
	}
	want, got := once.Stats("t"), appended.Stats("t")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stats after appends %v, after one load %v", got, want)
	}
	// k: 23 values; d: 0..6 and -0.0 and NaN; s: s0..s8.
	if want.RowCount != 60 || want.ColumnNDV["k"] != 23 || want.ColumnNDV["d"] != 9 || want.ColumnNDV["s"] != 9 {
		t.Fatalf("stats %v", want)
	}
}

// TestAppendFoldsOnlyItsRows: a one-row write folds that row into the
// statistics, not the whole table again, so what it allocates does not grow
// with the table.
func TestAppendFoldsOnlyItsRows(t *testing.T) {
	c := New("raptor", 2)
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Varchar}}
	if err := c.CreateBucketedTable("t", cols, "k", 4); err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for i := int64(0); i < 20_000; i++ {
		rows = append(rows, []types.Value{types.BigintValue(i), types.VarcharValue(fmt.Sprint(i))})
	}
	if err := c.LoadRows("t", rows); err != nil {
		t.Fatal(err)
	}
	one := [][]types.Value{{types.BigintValue(-1), types.VarcharValue("x")}}
	if allocs := testing.AllocsPerRun(5, func() { _ = c.LoadRows("t", one) }); allocs > 500 {
		t.Fatalf("a one-row write into a 20 000-row table allocates %.0f times", allocs)
	}
	if st := c.Stats("t"); st.RowCount != 20_006 || st.ColumnNDV["k"] != 20_001 || st.ColumnNDV["v"] != 20_001 {
		t.Fatalf("stats %v", st)
	}
}
