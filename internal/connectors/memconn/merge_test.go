package memconn

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

var eventColumns = []connector.Column{
	{Name: "id", T: types.Bigint}, {Name: "f", T: types.Double}, {Name: "s", T: types.Varchar},
}

// eventRow is row i of the written-table tests: a NULL every seventh id, both
// zeros, the empty string beside a NULL string.
func eventRow(i int) []types.Value {
	row := []types.Value{types.BigintValue(int64(i)), types.DoubleValue(float64(i) / 4), types.VarcharValue(fmt.Sprint("s", i%5))}
	switch i % 7 {
	case 0:
		row[1] = types.DoubleValue(math.Copysign(0, -1))
	case 1:
		row[1] = types.DoubleValue(0)
	case 2:
		row[2] = types.VarcharValue("")
	case 3:
		row[2] = types.NullValue(types.Varchar)
	case 4:
		row[1] = types.NullValue(types.Double)
	}
	return row
}

func renderRow(row []types.Value) string {
	return fmt.Sprintf("%v|%v/%x|%v", row[0], row[1], math.Float64bits(row[1].F), row[2])
}

// insertRow writes row i the way an INSERT does (a one-row page through the
// sink) on even ids and through AppendRows on odd ones.
func insertRow(t *testing.T, c *Connector, table string, i int) {
	t.Helper()
	if i%2 == 1 {
		if err := c.AppendRows(table, [][]types.Value{eventRow(i)}); err != nil {
			t.Fatal(err)
		}
		return
	}
	sink, err := c.PageSink(table)
	if err != nil {
		t.Fatal(err)
	}
	b := block.NewPageBuilder([]types.Type{types.Bigint, types.Double, types.Varchar})
	b.AppendRow(eventRow(i))
	if err := sink.Append(b.Build()); err != nil {
		t.Fatal(err)
	}
	if n, err := sink.Finish(); err != nil || n != 1 {
		t.Fatalf("Finish = %d, %v", n, err)
	}
}

// readSplits drains every split through c and returns the rendered rows.
func readSplits(t *testing.T, c *Connector, table string, splits []connector.Split) []string {
	t.Helper()
	var rows []string
	for _, s := range splits {
		src, err := c.PageSource(s, []string{"id", "f", "s"}, plan.TableHandle{Catalog: c.Name(), Table: table})
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, err := src.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			for r := 0; r < p.RowCount(); r++ {
				rows = append(rows, renderRow(p.Row(r)))
			}
		}
		src.Close()
	}
	sort.Strings(rows)
	return rows
}

func enumerate(t *testing.T, c *Connector, table string) []connector.Split {
	t.Helper()
	src, err := c.Splits(plan.TableHandle{Catalog: c.Name(), Table: table})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var splits []connector.Split
	for {
		b, err := src.NextBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		splits = append(splits, b.Splits...)
		if b.Done {
			return splits
		}
	}
}

func wantRows(from, to int) []string {
	var rows []string
	for i := from; i < to; i++ {
		rows = append(rows, renderRow(eventRow(i)))
	}
	sort.Strings(rows)
	return rows
}

func equalRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

// TestInsertsMergeIntoTail: a table written a row at a time holds a binary
// counter of pages, not a page per INSERT; every row is still there, bit for
// bit; and a full page is never copied into another.
func TestInsertsMergeIntoTail(t *testing.T) {
	full := block.NewPageBuilder([]types.Type{types.Bigint, types.Double, types.Varchar})
	for i := 0; i < mergeTarget; i++ {
		full.AppendRow(eventRow(i))
	}
	loaded := full.Build()
	c := New("mem")
	c.LoadTable("events", eventColumns, []*block.Page{loaded})
	stored := storedTable(c, "events").pages[0] // loaded, its string column under the table's dictionary
	const inserts = 1000
	for i := mergeTarget; i < mergeTarget+inserts; i++ {
		insertRow(t, c, "events", i)
		small := 0
		for _, p := range storedTable(c, "events").pages {
			if p.RowCount() < mergeTarget {
				small++
			}
		}
		if small > 13 {
			t.Fatalf("after %d inserts the table holds %d pages below %d rows, want <= 13", i-mergeTarget+1, small, mergeTarget)
		}
	}
	tbl := storedTable(c, "events")
	if tbl.pages[0] != stored {
		t.Error("the loaded full page was copied")
	}
	if got := c.Stats("events"); got.RowCount != mergeTarget+inserts || got.Pages != int64(len(tbl.pages)) {
		t.Errorf("stats %+v, want %d rows in %d pages", got, mergeTarget+inserts, len(tbl.pages))
	}
	equalRows(t, "after the inserts", readSplits(t, c, "events", enumerate(t, c, "events")), wantRows(0, mergeTarget+inserts))

	// Pages that arrive full or nearly so are left alone too.
	big := block.NewPageBuilder([]types.Type{types.Bigint, types.Double, types.Varchar})
	for i := 0; i < mergeTarget-1; i++ {
		big.AppendRow(eventRow(i))
	}
	sink, _ := c.PageSink("events")
	nearlyFull := big.Build()
	sink.Append(nearlyFull)
	sink.Append(loaded)
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.pages); tbl.pages[n-1] != loaded {
		t.Error("a full written page was copied")
	}
}

// TestSplitReadsItsSnapshot: splits read the table as it was when they were
// enumerated, whatever is written before they are opened — merging moves rows
// between page indices, so a range resolved late would repeat or lose rows.
func TestSplitReadsItsSnapshot(t *testing.T) {
	c := New("mem")
	if err := c.CreateTable("events", eventColumns); err != nil {
		t.Fatal(err)
	}
	const before, after = 157, 100
	for i := 0; i < before; i++ {
		insertRow(t, c, "events", i)
	}
	splits := enumerate(t, c, "events")
	if len(splits) < 2 {
		t.Fatalf("%d splits, want the table spread over several", len(splits))
	}
	for i := before; i < before+after; i++ {
		insertRow(t, c, "events", i)
	}
	equalRows(t, "snapshot splits", readSplits(t, c, "events", splits), wantRows(0, before))
	equalRows(t, "fresh splits", readSplits(t, c, "events", enumerate(t, c, "events")), wantRows(0, before+after))

	// A dropped and recreated table does not reach into a snapshot either.
	if err := c.DropTable("events"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("events", eventColumns[:1]); err != nil {
		t.Fatal(err)
	}
	equalRows(t, "snapshot splits after drop", readSplits(t, c, "events", splits), wantRows(0, before))
}

// TestSplitWireRoundTrip: a split that crossed the wire has no snapshot and
// resolves its page range on the receiving instance's copy of the table.
func TestSplitWireRoundTrip(t *testing.T) {
	load := func() *Connector {
		c := New("mem")
		var pages []*block.Page
		for from := 0; from < 90; from += 10 {
			b := block.NewPageBuilder([]types.Type{types.Bigint, types.Double, types.Varchar})
			for i := from; i < from+10; i++ {
				b.AppendRow(eventRow(i))
			}
			pages = append(pages, b.Build())
		}
		c.LoadTable("events", eventColumns, pages)
		return c
	}
	coordinator, worker := load(), load()
	var decoded []connector.Split
	for _, s := range enumerate(t, coordinator, "events") {
		data, err := coordinator.EncodeSplit(s)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := worker.DecodeSplit(data)
		if err != nil {
			t.Fatal(err)
		}
		if ws.EstimatedRows() != s.EstimatedRows() {
			t.Errorf("decoded split sizes %d rows, sent %d", ws.EstimatedRows(), s.EstimatedRows())
		}
		decoded = append(decoded, ws)
	}
	equalRows(t, "decoded splits", readSplits(t, worker, "events", decoded), wantRows(0, 90))

	// The range of a table since recreated smaller is clamped, not a panic.
	worker.LoadTable("events", eventColumns, nil)
	if rows := readSplits(t, worker, "events", decoded); len(rows) != 0 {
		t.Errorf("read %d rows of an emptied table", len(rows))
	}
}
