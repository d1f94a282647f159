package shardsql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/conformance"
	"repro/internal/plan"
	"repro/internal/types"
)

func loaded(t *testing.T) *Connector {
	t.Helper()
	c := New("mysql", 4)
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Varchar}}
	if err := c.CreateShardedTable("t", cols, "k"); err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for i := int64(0); i < 100; i++ {
		rows = append(rows, []types.Value{types.BigintValue(i), types.VarcharValue(fmt.Sprint(i))})
	}
	if err := c.LoadRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Harness{Conn: loaded(t), Table: "t", Rows: 100, Writable: true})
}

// TestCreateExistingTableFails: CREATE TABLE on a name in use errors and
// leaves the table and its versions as they were; it used to replace the
// table with an empty one.
func TestCreateExistingTableFails(t *testing.T) {
	c := loaded(t)
	v := c.TableVersion("t")
	if err := c.CreateTable("t", []connector.Column{{Name: "k", T: types.Bigint}}); err == nil {
		t.Error("CREATE TABLE of an existing table succeeded")
	}
	if c.Stats("t").RowCount != 100 || c.TableVersion("t") != v {
		t.Errorf("after a refused CREATE: %d rows, version %d (was 100 rows, version %d)", c.Stats("t").RowCount, c.TableVersion("t"), v)
	}
}

func TestPointPushdownEnumeratesOneShard(t *testing.T) {
	c := loaded(t)
	handle := plan.TableHandle{Catalog: "mysql", Table: "t", Constraint: plan.AllDomain()}
	handle.Constraint.Columns["k"] = plan.PointDomain(types.Bigint, types.BigintValue(42))
	src, err := c.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := src.NextBatch(100)
	if len(batch.Splits) != 1 {
		t.Fatalf("point lookup should hit 1 shard, got %d", len(batch.Splits))
	}
	ps, err := c.PageSource(batch.Splits[0], []string{"k", "v"}, handle)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ps.NextPage()
	if p == nil || p.RowCount() != 1 || p.Col(0).Long(0) != 42 {
		t.Errorf("pushdown result: %v", p)
	}
}

func TestApplyPushdownReportsShardColumn(t *testing.T) {
	c := loaded(t)
	d := plan.AllDomain()
	d.Columns["k"] = plan.PointDomain(types.Bigint, types.BigintValue(1))
	if cols := c.ApplyPushdown("t", d); len(cols) != 1 || cols[0] != "k" {
		t.Errorf("enforced: %v", cols)
	}
	d2 := plan.AllDomain()
	d2.Columns["v"] = plan.PointDomain(types.Varchar, types.VarcharValue("x"))
	if cols := c.ApplyPushdown("t", d2); len(cols) != 0 {
		t.Errorf("non-shard column must not be enforced: %v", cols)
	}
}

func TestIndexLookup(t *testing.T) {
	c := loaded(t)
	idx, ok := c.Index("t", []string{"k"}, []string{"v"})
	if !ok {
		t.Fatal("shard column index missing")
	}
	p, err := idx.Lookup([]types.Value{types.BigintValue(7)})
	if err != nil || p == nil || p.Col(0).Str(0) != "7" {
		t.Errorf("lookup: %v %v", p, err)
	}
}

// TestConcurrentWritesAndReads: write batches commit while scans, index
// lookups and version reads run. A scan's rows are of one version or a later
// one than the version read before it, and every committed batch is in the
// append log. A scan read the shard maps outside the lock, which a write
// extends: Go stops the program on such a concurrent map read and write.
func TestConcurrentWritesAndReads(t *testing.T) {
	c := loaded(t)
	const writers, batches = 2, 50
	handle := plan.TableHandle{Catalog: "mysql", Table: "t", Constraint: plan.AllDomain()}
	start := c.TableVersion("t")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				sink, err := c.PageSink("t")
				if err != nil {
					t.Error(err)
					return
				}
				k := int64(1000 + w*batches + b)
				sink.Append(block.NewPage(block.NewLongBlock([]int64{k}, nil), block.NewVarcharBlock([]string{"w"}, nil)))
				if _, err := sink.Finish(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	idx, ok := c.Index("t", []string{"k"}, []string{"v"})
	if !ok {
		t.Fatal("shard column index missing")
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				v := c.TableVersion("t")
				rows := int64(0)
				for _, s := range allSplits(t, c, handle) {
					ps, err := c.PageSource(s, []string{"k"}, handle)
					if err != nil {
						t.Error(err)
						return
					}
					if p, _ := ps.NextPage(); p != nil {
						rows += int64(p.RowCount())
					}
				}
				if min := 100 + v - start; rows < min {
					t.Errorf("a scan after version %d saw %d rows, want at least %d", v, rows, min)
				}
				if _, err := idx.Lookup([]types.Value{types.BigintValue(int64(i))}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	to, ok := c.Appends("t", start, func(s *connector.AppendSummary) bool {
		n += int(s.Rows)
		return true
	})
	if !ok || n != writers*batches || to != start+writers*batches {
		t.Errorf("append log since %d: to %d ok %v, %d rows; want to %d, %d rows", start, to, ok, n, start+writers*batches, writers*batches)
	}
}

func allSplits(t *testing.T, c *Connector, handle plan.TableHandle) []connector.Split {
	src, err := c.Splits(handle)
	if err != nil {
		t.Error(err)
		return nil
	}
	batch, _ := src.NextBatch(100)
	return batch.Splits
}
