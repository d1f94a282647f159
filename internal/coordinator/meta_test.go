package coordinator

import (
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/serving"
	"repro/internal/types"
)

// TestWriteInvalidatesOnlyItsTable: an INSERT into memory.t moves its table
// version, so the next scan of memory.t misses its split enumeration — and
// only that: its metadata is keyed by the schema version, which a write does
// not move. memory.t2, whose keys memory.t's are a prefix of, keeps its
// entries: its next scan is answered from the cache.
func TestWriteInvalidatesOnlyItsTable(t *testing.T) {
	catalog := NewCatalogManager()
	catalog.Register(memconn.New("memory"))
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	defer workers[0].Close()
	c := New(catalog, workers, Config{DefaultCatalog: "memory"})
	run := func(sql string) {
		t.Helper()
		res, err := c.Execute(sql, Session{})
		if err == nil {
			_, err = res.All()
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, table := range []string{"t", "t2"} {
		run("CREATE TABLE " + table + " (a BIGINT)")
		run("INSERT INTO " + table + " SELECT * FROM (VALUES (1), (2), (3))")
		run("SELECT sum(a) FROM " + table)
		run("SELECT sum(a) FROM " + table + " WHERE a > 1")
	}
	// Warm: the repeat of each scan is answered from the cache.
	scanMisses := func(sql string) int64 {
		t.Helper()
		before := c.MetaCacheStats()
		run(sql)
		return c.MetaCacheStats().Misses - before.Misses
	}
	for _, sql := range []string{"SELECT sum(a) FROM t WHERE a > 1", "SELECT sum(a) FROM t2 WHERE a > 1"} {
		if n := scanMisses(sql); n != 0 {
			t.Fatalf("%s missed the warm cache %d times", sql, n)
		}
	}
	run("INSERT INTO t SELECT * FROM (VALUES (4))")
	if n := scanMisses("SELECT sum(a) FROM t2 WHERE a > 1"); n != 0 {
		t.Errorf("the scan of memory.t2 after the write to memory.t missed the metadata cache %d times", n)
	}
	if n := scanMisses("SELECT sum(a) FROM t WHERE a > 1"); n != 1 {
		t.Errorf("the scan of memory.t after the write to it missed the metadata cache %d times; want its splits and not its metadata", n)
	}
}

// ddlDuringPlanning is a memory catalog that runs ddl once, right after it
// hands out a table's metadata: a DDL statement that ran while a statement
// was being planned from that metadata.
type ddlDuringPlanning struct {
	*memconn.Connector
	ddl func()
}

func (c *ddlDuringPlanning) Table(name string) *connector.TableMeta {
	meta := c.Connector.Table(name)
	if ddl := c.ddl; ddl != nil {
		c.ddl = nil
		ddl()
	}
	return meta
}

// TestDDLDuringPlanningFailsTheFirstLookup: t is dropped and created again
// with b retyped after its metadata was read for a plan, and before the plan
// is cached. The plan's entry holds the schema version read before that
// metadata, so the next statement of its template drops it and plans afresh
// from the new b, where a version read after planning would have served the
// plan of the old b over the new rows.
func TestDDLDuringPlanningFailsTheFirstLookup(t *testing.T) {
	conn := &ddlDuringPlanning{Connector: memconn.New("memory")}
	catalog := NewCatalogManager()
	catalog.Register(conn)
	workers := []*exec.Worker{exec.NewWorker(0, catalog, exec.WorkerConfig{Threads: 2})}
	defer workers[0].Close()
	tier := &serving.Tier{Plans: serving.NewPlanCache(serving.PlanCacheConfig{})}
	c := New(catalog, workers, Config{DefaultCatalog: "memory", Serving: tier})
	run := func(sql string) ([][]types.Value, error) {
		res, err := c.Execute(sql, Session{})
		if err != nil {
			return nil, err
		}
		return res.All()
	}
	for _, sql := range []string{"CREATE TABLE t (a BIGINT, b BIGINT)", "INSERT INTO t SELECT * FROM (VALUES (1, 10), (3, 30))"} {
		if _, err := run(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	conn.ddl = func() {
		conn.DropTable("t")
		conn.CreateTable("t", []connector.Column{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Varchar}})
		conn.AppendRows("t", [][]types.Value{{types.BigintValue(3), types.VarcharValue("x")}})
	}
	const sql = "SELECT max(b) FROM t WHERE a > 2"
	run(sql) // raced the DDL: its answer is of no one version
	if conn.ddl != nil {
		t.Fatal("planning never read t's metadata")
	}
	rows, err := run(sql)
	if err != nil || len(rows) != 1 || rows[0][0].T != types.Varchar || rows[0][0].S != "x" {
		t.Fatalf("the read after the DDL: %v, %v; want the one row x", rows, err)
	}
	if st := tier.Plans.Stats(); st.Invalidations != 1 {
		t.Errorf("the plan made across the DDL was not dropped at its first lookup: %+v", st)
	}
}
