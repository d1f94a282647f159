package hive

import (
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/conformance"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/types"
)

var _ = connector.Column{}

func loaded(t *testing.T, lazy bool) *Connector {
	t.Helper()
	c, err := New("hive", Config{Dir: t.TempDir(), CollectStats: true, LazyReads: lazy, StripeRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	cols := []connector.Column{{Name: "id", T: types.Bigint}, {Name: "s", T: types.Varchar}}
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	sink, err := c.PageSink("t")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 100)
	ss := make([]string, 100)
	for i := range ids {
		ids[i] = int64(i)
		ss[i] = "x"
	}
	sink.Append(block.NewPage(block.NewLongBlock(ids, nil), block.NewVarcharBlock(ss, nil)))
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	return c
}

// harness drives a loaded connector; a write outside it is an orcish file
// another program puts in the table's directory.
func harness(t *testing.T, lazy bool) conformance.Harness {
	c := loaded(t, lazy)
	return conformance.Harness{Conn: c, Table: "t", Rows: 100, Writable: true,
		WriteOutside: func(t *testing.T, table string) {
			cols := []orcish.ColumnMeta{{Name: "k", T: types.Bigint}, {Name: "s", T: types.Varchar}}
			page := block.NewPage(block.NewLongBlock([]int64{9}, nil), block.NewVarcharBlock([]string{"z"}, nil))
			if err := orcish.WriteFile(filepath.Join(c.cfg.Dir, table, "outside.orcish"), cols, []*block.Page{page}, 16); err != nil {
				t.Fatal(err)
			}
		}}
}

func TestConformance(t *testing.T) {
	conformance.Run(t, harness(t, false))
}

func TestConformanceLazy(t *testing.T) {
	conformance.Run(t, harness(t, true))
}

func TestStatsFromFooters(t *testing.T) {
	c := loaded(t, false)
	st := c.Stats("t")
	if st.RowCount != 100 {
		t.Errorf("stats rowcount: %d", st.RowCount)
	}
	if st.ColumnNDV["id"] != 100 {
		t.Errorf("id ndv estimate: %d", st.ColumnNDV["id"])
	}
}

func TestConstraintSkipsStripes(t *testing.T) {
	c := loaded(t, false)
	handle := plan.TableHandle{Catalog: "hive", Table: "t", Constraint: plan.AllDomain()}
	lo := types.BigintValue(90)
	handle.Constraint.Columns["id"] = plan.RangeDomain(types.Bigint, &lo, nil, true, false)
	src, _ := c.Splits(handle)
	batch, _ := src.NextBatch(10)
	var rows int
	for _, s := range batch.Splits {
		ps, err := c.PageSource(s, []string{"id"}, handle)
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
			rows += p.RowCount()
		}
		ps.Close()
	}
	// Stripes of 32: only the last stripe(s) containing ids >= 90 load:
	// [64..95] and [96..99] → at most 36 rows, certainly less than 100.
	if rows >= 100 || rows < 10 {
		t.Errorf("stripe skipping read %d rows", rows)
	}
}

func TestPartitionPruning(t *testing.T) {
	c, err := New("hive", Config{Dir: t.TempDir(), StripeRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Write two partitions by hand: day=a and day=b (no marker file —
	// partitioned lake tables consist only of partition directories).
	writePartition := func(day string, vals []int64) {
		t.Helper()
		dir := c.cfg.Dir + "/p/day=" + day
		if err := mkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		path := dir + "/part-0.orcish"
		if err := writeOrcish(path, vals); err != nil {
			t.Fatal(err)
		}
	}
	writePartition("a", []int64{1, 2, 3})
	writePartition("b", []int64{4, 5})
	c.rescan()

	meta := c.Table("p")
	if meta == nil || meta.ColumnIndex("day") < 0 {
		t.Fatalf("partition column not exposed: %+v", meta)
	}

	handle := plan.TableHandle{Catalog: "hive", Table: "p", Constraint: plan.AllDomain()}
	handle.Constraint.Columns["day"] = plan.PointDomain(types.Varchar, types.VarcharValue("b"))
	src, err := c.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := src.NextBatch(10)
	splitCount := 0
	rows := 0
	for _, s := range batch.Splits {
		splitCount++
		ps, err := c.PageSource(s, []string{"v", "day"}, handle)
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
			rows += p.RowCount()
			if p.Col(1).Str(0) != "b" {
				t.Error("partition value column wrong")
			}
		}
		ps.Close()
	}
	if splitCount != 1 || rows != 2 {
		t.Errorf("pruning: %d splits, %d rows", splitCount, rows)
	}
}
