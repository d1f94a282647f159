package memconn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/conformance"
	"repro/internal/types"
)

func loaded(t *testing.T) *Connector {
	t.Helper()
	c := New("mem")
	vals := make([]int64, 100)
	names := make([]string, 100)
	for i := range vals {
		vals[i] = int64(i)
		names[i] = "row"
	}
	c.LoadTable("t",
		[]connector.Column{{Name: "id", T: types.Bigint}, {Name: "name", T: types.Varchar}},
		[]*block.Page{block.NewPage(block.NewLongBlock(vals, nil), block.NewVarcharBlock(names, nil))})
	return c
}

// storedTable returns the named table as the connector holds it.
func storedTable(c *Connector, name string) (out *table) {
	c.Read(name, func(t *table) error { out = t; return nil })
	return out
}

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Harness{Conn: loaded(t), Table: "t", Rows: 100, Writable: true})
}

func TestStatsComputedOnLoad(t *testing.T) {
	c := loaded(t)
	st := c.Stats("t")
	if st.RowCount != 100 {
		t.Errorf("rowcount: %d", st.RowCount)
	}
	if st.ColumnNDV["id"] != 100 || st.ColumnNDV["name"] != 1 {
		t.Errorf("ndv: %v", st.ColumnNDV)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	c := loaded(t)
	if err := c.CreateTable("t", nil); err == nil {
		t.Error("duplicate create should fail")
	}
	if err := c.DropTable("missing"); err == nil {
		t.Error("dropping a missing table should fail")
	}
}

// recomputeStats is the statistics pass the connector made over every page of
// a table on every insert, before it folded appended pages in: the reference
// the incremental statistics must equal.
func recomputeStats(columns []connector.Column, pages []*block.Page) connector.TableStats {
	stats := connector.TableStats{ColumnNDV: map[string]int64{}}
	ndv := make([]map[string]struct{}, len(columns))
	for i := range ndv {
		ndv[i] = map[string]struct{}{}
	}
	for _, p := range pages {
		stats.RowCount += int64(p.RowCount())
		for ci := range columns {
			col := p.Col(ci)
			for r := 0; r < p.RowCount(); r++ {
				if !col.IsNull(r) {
					ndv[ci][col.Value(r).String()] = struct{}{}
				}
			}
		}
	}
	for i, col := range columns {
		stats.ColumnNDV[col.Name] = int64(len(ndv[i]))
	}
	return stats
}

// TestIncrementalStatsEqualRecompute: after a load and after every one of a
// series of random appends — boxed rows and sink pages, with NULLs, -0.0 and
// 0.0, NaN, the empty string, repeated strings, a leading zero and runs of
// one value — the row count and every column's NDV are what a pass over the
// whole table gives.
func TestIncrementalStatsEqualRecompute(t *testing.T) {
	columns := []connector.Column{
		{Name: "i", T: types.Bigint}, {Name: "f", T: types.Double}, {Name: "s", T: types.Varchar},
		{Name: "b", T: types.Boolean}, {Name: "d", T: types.Date},
	}
	ts := []types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date}
	r := rand.New(rand.NewSource(23))
	doubles := []float64{math.Copysign(0, -1), 0, math.NaN(), -math.NaN(), 1.5, 3, 1e300}
	strs := []string{"", "a", "a", "bb", "longer value", "ü"}
	randRow := func() []types.Value {
		row := []types.Value{
			types.BigintValue(int64(r.Intn(6))), // 0 first: a zero cell must count
			types.DoubleValue(doubles[r.Intn(len(doubles))]),
			types.VarcharValue(strs[r.Intn(len(strs))]),
			types.BooleanValue(r.Intn(2) == 0),
			types.DateValue(int64(17000 + r.Intn(4))),
		}
		for i := range row {
			if r.Intn(5) == 0 {
				row[i] = types.NullValue(ts[i])
			}
		}
		return row
	}
	randPage := func(n int) *block.Page {
		b := block.NewPageBuilder(ts)
		for i := 0; i < n; i++ {
			b.AppendRow(randRow())
		}
		return b.Build()
	}

	c := New("mem")
	all := []*block.Page{randPage(40), randPage(1)}
	c.LoadTable("t", columns, append([]*block.Page(nil), all...))
	check := func(step string) {
		t.Helper()
		got, want := c.Stats("t"), recomputeStats(columns, all)
		if got.RowCount != want.RowCount {
			t.Fatalf("%s: RowCount %d, recomputed %d", step, got.RowCount, want.RowCount)
		}
		for _, col := range columns {
			if got.NDV(col.Name) != want.NDV(col.Name) {
				t.Fatalf("%s: NDV(%s) %d, recomputed %d", step, col.Name, got.NDV(col.Name), want.NDV(col.Name))
			}
		}
	}
	check("load")
	for step := 0; step < 60; step++ {
		if step%2 == 0 {
			rows := make([][]types.Value, r.Intn(4)) // sometimes no rows at all
			for i := range rows {
				rows[i] = randRow()
			}
			if err := c.AppendRows("t", rows); err != nil {
				t.Fatal(err)
			}
			b := block.NewPageBuilder(ts)
			for _, row := range rows {
				b.AppendRow(row)
			}
			all = append(all, b.Build())
		} else {
			sink, err := c.PageSink("t")
			if err != nil {
				t.Fatal(err)
			}
			for i := r.Intn(3); i > 0; i-- {
				p := randPage(1 + r.Intn(5))
				if err := sink.Append(p); err != nil {
					t.Fatal(err)
				}
				all = append(all, p)
			}
			if _, err := sink.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("append %d", step))
	}
}

// TestLoadTableEncodesLowCardinality: a load stores a flat varchar column of at
// most dictMaxEntries distinct values as indices into one dictionary block all
// its pages share, leaves a column over the bound, a column that arrives
// encoded and every non-varchar column as they came, reads back every cell,
// and reports the statistics a pass over the flat cells gives.
func TestLoadTableEncodesLowCardinality(t *testing.T) {
	columns := []connector.Column{
		{Name: "flag", T: types.Varchar}, {Name: "name", T: types.Varchar},
		{Name: "given", T: types.Varchar}, {Name: "n", T: types.Bigint},
		{Name: "edge", T: types.Varchar},
	}
	const pages, rows = 3, 200
	var in []*block.Page
	for pg := 0; pg < pages; pg++ {
		flag, name, edge := make([]string, rows), make([]string, rows), make([]string, rows)
		flagNulls, n, given := make([]bool, rows), make([]int64, rows), make([]int32, rows)
		for r := 0; r < rows; r++ {
			i := pg*rows + r
			flag[r], flagNulls[r] = []string{"A", "N", "", "R"}[i%4], i%11 == 0
			name[r] = fmt.Sprint("name-", i) // 600 distinct: over the bound
			edge[r] = fmt.Sprint("e", i%dictMaxEntries)
			n[r], given[r] = int64(i%7), int32(i%2)
		}
		in = append(in, block.NewPage(block.NewVarcharBlock(flag, flagNulls), block.NewVarcharBlock(name, nil),
			block.NewDictionaryBlock(block.NewVarcharBlock([]string{"x", "y", "unreferenced"}, nil), given),
			block.NewLongBlock(n, nil), block.NewVarcharBlock(edge, nil)))
	}
	c := New("mem")
	c.LoadTable("t", columns, in)
	stored := storedTable(c, "t").pages
	if len(stored) != pages {
		t.Fatalf("%d pages stored, want %d", len(stored), pages)
	}
	for _, ci := range []int{0, 4} { // flag: 5 entries with NULL; edge: exactly the bound
		first, ok := stored[0].Col(ci).(*block.DictionaryBlock)
		if !ok {
			t.Fatalf("column %s is stored as %T, want a dictionary block", columns[ci].Name, stored[0].Col(ci))
		}
		for pg, p := range stored {
			if d, ok := p.Col(ci).(*block.DictionaryBlock); !ok || d.Dict != first.Dict {
				t.Errorf("column %s, page %d: %T does not share page 0's dictionary", columns[ci].Name, pg, p.Col(ci))
			}
		}
	}
	if n := stored[0].Col(0).(*block.DictionaryBlock).Dict.Len(); n != 5 {
		t.Errorf("flag's dictionary has %d entries, want 5 (A, N, the empty string, R, NULL)", n)
	}
	for pg, p := range stored {
		if p.Col(1) != in[pg].Col(1) || p.Col(2) != in[pg].Col(2) || p.Col(3) != in[pg].Col(3) {
			t.Errorf("page %d: a high-cardinality, an already encoded or a bigint column was re-stored", pg)
		}
		for ci := range columns {
			for r := 0; r < rows; r++ {
				if got, want := p.Col(ci).Value(r), in[pg].Col(ci).Value(r); got.String() != want.String() || got.Null != want.Null {
					t.Fatalf("page %d column %s row %d reads %v, was loaded as %v", pg, columns[ci].Name, r, got, want)
				}
			}
		}
	}
	got, want := c.Stats("t"), recomputeStats(columns, in)
	if got.RowCount != want.RowCount || got.Pages != pages {
		t.Errorf("stats %+v, want %d rows in %d pages", got, want.RowCount, pages)
	}
	for _, col := range columns {
		if got.NDV(col.Name) != want.NDV(col.Name) {
			t.Errorf("NDV(%s) = %d, a pass over the flat cells gives %d", col.Name, got.NDV(col.Name), want.NDV(col.Name))
		}
	}
}
