package raptor

import (
	"testing"

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
