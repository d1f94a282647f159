// Package conformance provides a reusable test harness asserting that a
// connector implements the Connector API contract: metadata consistency,
// split enumeration that covers the whole table exactly once, column
// projection, and (when supported) the write path, how writes and DDL move
// the connector's versions, and reads by key that must tell NULL from the
// VARCHAR 'NULL' and read nothing of an empty range. Every bundled connector
// runs this suite from its own tests.
package conformance

import (
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Harness describes how to drive one connector instance.
type Harness struct {
	// Conn is the connector under test with a table preloaded.
	Conn connector.Connector
	// Table is the preloaded table's name.
	Table string
	// Rows is the expected total row count.
	Rows int64
	// Writable asserts the Data Sink API works.
	Writable bool
	// WriteOutside, when set, adds rows to the named table — of columns
	// k BIGINT and s VARCHAR — the way another program would, without the
	// connector: the Versioning check asserts it moves the table version too.
	WriteOutside func(t *testing.T, table string)
}

// Run executes the conformance suite.
func Run(t *testing.T, h Harness) {
	t.Helper()
	t.Run("Metadata", func(t *testing.T) { h.metadata(t) })
	t.Run("ScanAllRows", func(t *testing.T) { h.scanAll(t) })
	t.Run("Projection", func(t *testing.T) { h.projection(t) })
	t.Run("UnknownTable", func(t *testing.T) { h.unknownTable(t) })
	if h.Writable {
		t.Run("WriteRoundTrip", func(t *testing.T) { h.writeRoundTrip(t) })
		t.Run("Versioning", func(t *testing.T) { h.versioning(t) })
		t.Run("Keys", func(t *testing.T) { h.keys(t) })
		t.Run("Statistics", func(t *testing.T) { h.statistics(t) })
	}
}

func (h Harness) meta(t *testing.T) *connector.TableMeta {
	t.Helper()
	m := h.Conn.Table(h.Table)
	if m == nil {
		t.Fatalf("table %q missing from metadata", h.Table)
	}
	return m
}

func (h Harness) metadata(t *testing.T) {
	m := h.meta(t)
	if len(m.Columns) == 0 {
		t.Fatal("table has no columns")
	}
	found := false
	for _, name := range h.Conn.Tables() {
		if name == h.Table {
			found = true
		}
	}
	if !found {
		t.Error("Tables() does not list the table")
	}
	for _, c := range m.Columns {
		if m.ColumnIndex(c.Name) < 0 {
			t.Errorf("ColumnIndex(%q) missing", c.Name)
		}
	}
}

// scanAll verifies splits cover the table exactly once.
func (h Harness) scanAll(t *testing.T) {
	m := h.meta(t)
	cols := make([]string, len(m.Columns))
	for i, c := range m.Columns {
		cols[i] = c.Name
	}
	handle := plan.TableHandle{Catalog: h.Conn.Name(), Table: h.Table}
	src, err := h.Conn.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rows int64
	for {
		batch, err := src.NextBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range batch.Splits {
			if s.Connector() != h.Conn.Name() {
				t.Errorf("split connector %q", s.Connector())
			}
			ps, err := h.Conn.PageSource(s, cols, handle)
			if err != nil {
				t.Fatal(err)
			}
			for {
				p, err := ps.NextPage()
				if err != nil {
					t.Fatal(err)
				}
				if p == nil {
					break
				}
				if p.ColCount() != len(cols) {
					t.Fatalf("page has %d cols, want %d", p.ColCount(), len(cols))
				}
				rows += int64(p.RowCount())
			}
			if ps.BytesRead() < 0 {
				t.Error("negative bytes read")
			}
			ps.Close()
		}
		if batch.Done {
			break
		}
	}
	if rows != h.Rows {
		t.Errorf("scanned %d rows, want %d", rows, h.Rows)
	}
}

// projection verifies single-column reads and zero-column (count) reads.
func (h Harness) projection(t *testing.T) {
	m := h.meta(t)
	handle := plan.TableHandle{Catalog: h.Conn.Name(), Table: h.Table}
	splits := allSplits(t, h.Conn, handle)
	if len(splits) == 0 {
		t.Fatal("no splits")
	}

	one, err := h.Conn.PageSource(splits[0], []string{m.Columns[0].Name}, handle)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	p, err := one.NextPage()
	if err != nil {
		t.Fatal(err)
	}
	if p != nil && p.ColCount() != 1 {
		t.Errorf("projected page has %d cols", p.ColCount())
	}

	// Zero columns: pages must still carry row counts (COUNT(*) path).
	var rows int64
	for _, s := range splits {
		zero, err := h.Conn.PageSource(s, nil, handle)
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, err := zero.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			rows += int64(p.RowCount())
		}
		zero.Close()
	}
	if rows != h.Rows {
		t.Errorf("zero-column scan counted %d rows, want %d", rows, h.Rows)
	}

	if _, err := h.Conn.PageSource(splits[0], []string{"definitely_not_a_column"}, handle); err == nil {
		t.Error("unknown column should error")
	}
}

// allSplits enumerates every split of a handle.
func allSplits(t *testing.T, conn connector.Connector, handle plan.TableHandle) []connector.Split {
	t.Helper()
	src, err := conn.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var out []connector.Split
	for {
		batch, err := src.NextBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch.Splits...)
		if batch.Done {
			return out
		}
	}
}

func (h Harness) unknownTable(t *testing.T) {
	if _, err := h.Conn.Splits(plan.TableHandle{Catalog: h.Conn.Name(), Table: "no_such_table"}); err == nil {
		t.Error("Splits on a missing table should error")
	}
	if h.Conn.Table("no_such_table") != nil {
		t.Error("Table on a missing table should return nil")
	}
}

func (h Harness) writeRoundTrip(t *testing.T) {
	name := "conformance_write_test"
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}
	if err := h.Conn.CreateTable(name, cols); err != nil {
		t.Fatalf("create: %v", err)
	}
	defer h.Conn.DropTable(name)

	sink, err := h.Conn.PageSink(name)
	if err != nil {
		t.Fatal(err)
	}
	page := block.NewPage(
		block.NewLongBlock([]int64{1, 2, 3}, nil),
		block.NewVarcharBlock([]string{"a", "b", "c"}, nil),
	)
	if err := sink.Append(page); err != nil {
		t.Fatal(err)
	}
	if n, err := sink.Finish(); err != nil || n != 3 {
		t.Fatalf("finish: %d %v", n, err)
	}

	// Read it back.
	handle := plan.TableHandle{Catalog: h.Conn.Name(), Table: name}
	src, err := h.Conn.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	total := 0
	for {
		batch, err := src.NextBatch(10)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range batch.Splits {
			ps, err := h.Conn.PageSource(s, []string{"k", "s"}, handle)
			if err != nil {
				t.Fatal(err)
			}
			for {
				p, err := ps.NextPage()
				if err != nil {
					t.Fatal(err)
				}
				if p == nil {
					break
				}
				total += p.RowCount()
			}
			ps.Close()
		}
		if batch.Done {
			break
		}
	}
	if total != 3 {
		t.Errorf("read back %d rows, want 3", total)
	}
}

// versioning checks what moves a connector's versions: a write — and, with
// WriteOutside, one made around the connector — moves the table version and
// not the schema version; a drop and a create each move the schema version,
// and neither takes a version back, so nothing stamped before the drop
// matches after it. An AppendLog connector's log holds exactly the written
// batch, with its row count and column bounds, and reaches back neither
// across a write made outside it nor across the drop.
func (h Harness) versioning(t *testing.T) {
	v := h.Conn
	name := "conformance_version_test"
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}
	if err := h.Conn.CreateTable(name, cols); err != nil {
		t.Fatalf("create: %v", err)
	}
	defer h.Conn.DropTable(name)
	schema, before := v.SchemaVersion(name), v.TableVersion(name)
	if schema == 0 {
		t.Error("CREATE TABLE left the schema version at 0")
	}

	sink, err := h.Conn.PageSink(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(block.NewPage(
		block.NewLongBlock([]int64{7, 3, 5}, nil),
		block.NewVarcharBlock([]string{"b", "c", "a"}, nil),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	written := v.TableVersion(name)
	if written <= before {
		t.Errorf("a write left the table version at %d (was %d)", written, before)
	}
	if got := v.SchemaVersion(name); got != schema {
		t.Errorf("a write moved the schema version %d -> %d", schema, got)
	}

	log, isLog := h.Conn.(connector.AppendLog)
	if isLog {
		var batches []*connector.AppendSummary
		to, ok := log.Appends(name, before, func(s *connector.AppendSummary) bool {
			batches = append(batches, s)
			return true
		})
		if !ok || to != written || len(batches) != 1 {
			t.Fatalf("Appends since %d: to %d ok %v, %d batches; want to %d, one batch", before, to, ok, len(batches), written)
		}
		b := batches[0]
		if b.Rows != 3 || len(b.Columns) != 2 {
			t.Fatalf("batch summary %+v, want 3 rows of 2 columns", b)
		}
		for i, want := range [][2]types.Value{
			{types.BigintValue(3), types.BigintValue(7)},
			{types.VarcharValue("a"), types.VarcharValue("c")},
		} {
			c := b.Columns[i]
			if c.Name != cols[i].Name || c.Min.Compare(want[0]) != 0 || c.Max.Compare(want[1]) != 0 || c.HasNull {
				t.Errorf("column summary %+v, want %s in [%v, %v] without NULL", c, cols[i].Name, want[0], want[1])
			}
		}
	}
	if h.WriteOutside != nil {
		h.WriteOutside(t, name)
		outside := v.TableVersion(name)
		if outside <= written {
			t.Errorf("a write made outside the connector left the table version at %d", outside)
		}
		if got := v.SchemaVersion(name); got != schema {
			t.Errorf("a write made outside the connector moved the schema version %d -> %d", schema, got)
		}
		if isLog {
			if _, ok := log.Appends(name, written, func(*connector.AppendSummary) bool { return true }); ok {
				t.Error("the append log reaches back across a write made outside the connector")
			}
		}
		written = outside
	}

	if err := h.Conn.DropTable(name); err != nil {
		t.Fatal(err)
	}
	dropped := v.SchemaVersion(name)
	if dropped <= schema || v.TableVersion(name) <= written {
		t.Errorf("after DROP: schema version %d (was %d), table version %d (was %d); both must move on",
			dropped, schema, v.TableVersion(name), written)
	}
	if err := h.Conn.CreateTable(name, cols); err != nil {
		t.Fatalf("create again: %v", err)
	}
	if got := v.SchemaVersion(name); got <= dropped {
		t.Errorf("CREATE after DROP left the schema version at %d (was %d)", got, dropped)
	}
	if v.TableVersion(name) <= written {
		t.Errorf("the recreated table's version %d is not past the dropped one's %d", v.TableVersion(name), written)
	}
	if isLog {
		if _, ok := log.Appends(name, written, func(*connector.AppendSummary) bool { return true }); ok {
			t.Error("the append log reaches back across a DROP and CREATE")
		}
	}
}

// statistics writes rows to a new table and reads its statistics back: a
// connector that reports any reports the written row count and a distinct
// count for the written key column — the point selectivity the optimizer
// estimates from, which without one falls to a default — of at most one a
// row: the keys 4, 8 and 15 span 12 values but are three.
func (h Harness) statistics(t *testing.T) {
	name := "conformance_stats_test"
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}
	if err := h.Conn.CreateTable(name, cols); err != nil {
		t.Fatalf("create: %v", err)
	}
	defer h.Conn.DropTable(name)
	sink, err := h.Conn.PageSink(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(block.NewPage(
		block.NewLongBlock([]int64{4, 8, 15}, nil),
		block.NewVarcharBlock([]string{"a", "b", "a"}, nil),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	st := h.Conn.Stats(name)
	if st.Unknown() {
		return // a connector configured to collect none
	}
	if n := st.NDV("k"); st.RowCount != 3 || n <= 0 || n > st.RowCount {
		t.Errorf("after writing 3 rows: %d rows, NDV(k) %d; want 3 rows and a distinct count of at most 3", st.RowCount, n)
	}
}

// keys writes four VARCHAR keys — 'a', the empty string, 'NULL' and NULL —
// and reads them back: a full scan sees all four (NULL and 'NULL' are two
// keys, so neither write replaces the other); a point read of 'NULL', and an
// index probe where the connector has one, finds its row once and, where the
// connector enforces the constraint, only it; and where it enforces the empty
// range 'b' < k < 'a' it returns no row.
func (h Harness) keys(t *testing.T) {
	name := "conformance_key_test"
	cols := []connector.Column{{Name: "k", T: types.Varchar}, {Name: "v", T: types.Bigint}}
	if err := h.Conn.CreateTable(name, cols); err != nil {
		t.Fatalf("create: %v", err)
	}
	defer h.Conn.DropTable(name)
	sink, err := h.Conn.PageSink(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(block.NewPage(
		block.NewVarcharBlock([]string{"a", "", "NULL", ""}, []bool{false, false, false, true}),
		block.NewLongBlock([]int64{1, 2, 3, 4}, nil),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if vs, _ := h.readKeys(t, name, nil); len(vs) != 4 {
		t.Errorf("a full scan read v %v, want the four rows written", vs)
	}

	point := &plan.ColumnDomain{T: types.Varchar, Points: []types.Value{types.VarcharValue("NULL")}}
	vs, enforced := h.readKeys(t, name, point)
	found := 0
	for _, v := range vs {
		if v == 3 {
			found++
		}
	}
	if found != 1 || enforced && len(vs) != 1 {
		t.Errorf("k = 'NULL' read v %v (constraint enforced: %v), want the row of v = 3 once", vs, enforced)
	}
	if ix, ok := h.Conn.(connector.Indexed); ok {
		if l, ok := ix.Index(name, []string{"k"}, []string{"v"}); ok {
			p, err := l.Lookup([]types.Value{types.VarcharValue("NULL")})
			if err != nil {
				t.Fatal(err)
			}
			if p == nil || p.RowCount() != 1 || p.Col(0).Long(0) != 3 {
				t.Errorf("an index probe of 'NULL' returned %v, want the row of v = 3", p)
			}
		}
	}

	above := types.VarcharValue("b")
	below := types.VarcharValue("a")
	empty := (&plan.ColumnDomain{T: types.Varchar, Ranges: []plan.Range{{Lo: &above}}}).
		Intersect(&plan.ColumnDomain{T: types.Varchar, Ranges: []plan.Range{{Hi: &below}}})
	if vs, enforced := h.readKeys(t, name, empty); enforced && len(vs) != 0 {
		t.Errorf("'b' < k < 'a' read v %v, want no row", vs)
	}
}

// readKeys reads column v of the key table under a constraint on k (nil:
// none), and reports whether the connector enforces it.
func (h Harness) readKeys(t *testing.T, table string, cd *plan.ColumnDomain) (vs []int64, enforced bool) {
	t.Helper()
	handle := plan.TableHandle{Catalog: h.Conn.Name(), Table: table}
	if cd != nil {
		handle.Constraint = &plan.Domain{Columns: map[string]*plan.ColumnDomain{"k": cd}}
		if p, ok := h.Conn.(connector.PushdownCapable); ok {
			for _, col := range p.ApplyPushdown(table, handle.Constraint) {
				enforced = enforced || col == "k"
			}
		}
	}
	for _, s := range allSplits(t, h.Conn, handle) {
		ps, err := h.Conn.PageSource(s, []string{"v"}, handle)
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, err := ps.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			for r := 0; r < p.RowCount(); r++ {
				vs = append(vs, p.Col(0).Long(r))
			}
		}
		ps.Close()
	}
	return vs, enforced
}
