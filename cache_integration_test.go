package presto

// End-to-end tests of freshness at cluster level: a read after a write, made
// through the engine or around it, sees the write however warm the plan cache.

import (
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/kvconn"
	"repro/internal/connectors/raptor"
	"repro/internal/orcish"
	"repro/internal/types"
)

// TestMetadataCacheInvalidatedOnWrite: a repeated read returns the same rows,
// and a read after an INSERT into the table sees the new rows at once: its
// splits come from the connector, which lists the table as it is.
func TestMetadataCacheInvalidatedOnWrite(t *testing.T) {
	// Serving caches off: a result-cache hit would serve the repeat read
	// without enumerating splits at all (serving has its own invalidation
	// coverage in serving_test.go).
	c := NewCluster(ClusterConfig{Workers: 2, DisablePlanCache: true, DisableResultCache: true})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (x BIGINT)")
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (1), (2))")

	count := func() int64 {
		rows, err := c.Query("SELECT count(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].I
	}
	if got := count(); got != 2 {
		t.Fatalf("initial count: %d", got)
	}
	if got := count(); got != 2 {
		t.Fatalf("repeat count: %d", got)
	}
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (3))")
	if got := count(); got != 3 {
		t.Errorf("stale rows after write: count=%d, want 3", got)
	}
}

// TestCachesSeeConnectorChanges: a table changed through its connector's own
// API, or a file written into the lake by another program, is seen by the
// next read however warm the plan and result caches are: every connector
// versions its tables, and every cache checks the versions it read.
func TestCachesSeeConnectorChanges(t *testing.T) {
	newCluster := func(conn Connector) *Cluster {
		c := NewCluster(ClusterConfig{Workers: 2})
		c.Register(conn)
		return c
	}
	// warm runs sql until the plan cache answers it, and returns its rows.
	warm := func(t *testing.T, c *Cluster, sql string) [][]Value {
		t.Helper()
		mustExec(t, c, sql)
		hits := c.ServingStats().Plan.Hits
		rows := mustExec(t, c, sql)
		if c.ServingStats().Plan.Hits == hits && c.ServingStats().Result.Hits == 0 {
			t.Fatalf("%s: the repeat hit neither serving cache", sql)
		}
		return rows
	}
	retyped := []connector.Column{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Varchar}}
	newRows := [][]types.Value{{types.BigintValue(3), types.VarcharValue("x")}, {types.BigintValue(4), types.VarcharValue("y")}}

	t.Run("raptor", func(t *testing.T) {
		conn := raptor.New("raptor", 2)
		c := newCluster(conn)
		defer c.Close()
		mustExec(t, c, "CREATE TABLE raptor.t (a BIGINT, b BIGINT)")
		mustExec(t, c, "INSERT INTO raptor.t SELECT * FROM (VALUES (1, 10), (3, 30), (4, 40))")
		const sql = "SELECT max(b) FROM raptor.t WHERE a > 2"
		if rows := warm(t, c, sql); rows[0][0].I != 40 {
			t.Fatalf("max(b) = %v, want 40", rows[0][0])
		}
		if err := conn.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		if err := conn.CreateTable("t", retyped); err != nil {
			t.Fatal(err)
		}
		if err := conn.LoadRows("t", newRows); err != nil {
			t.Fatal(err)
		}
		if rows := mustExec(t, c, sql); rows[0][0].T != types.Varchar || rows[0][0].S != "y" {
			t.Errorf("max(b) after b was retyped = %v, want y", rows[0][0])
		}
	})

	t.Run("kvconn", func(t *testing.T) {
		conn := kvconn.New("kv")
		c := newCluster(conn)
		defer c.Close()
		mustExec(t, c, "CREATE TABLE kv.t (a BIGINT, b BIGINT)")
		mustExec(t, c, "INSERT INTO kv.t SELECT * FROM (VALUES (1, 10), (3, 30), (4, 40))")
		const sql = "SELECT max(b) FROM kv.t WHERE a > 2"
		if rows := warm(t, c, sql); rows[0][0].I != 40 {
			t.Fatalf("max(b) = %v, want 40", rows[0][0])
		}
		if err := conn.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		if err := conn.CreateTable("t", retyped); err != nil {
			t.Fatal(err)
		}
		for _, row := range newRows {
			if err := conn.Put("t", row); err != nil {
				t.Fatal(err)
			}
		}
		if rows := mustExec(t, c, sql); rows[0][0].T != types.Varchar || rows[0][0].S != "y" {
			t.Errorf("max(b) after b was retyped = %v, want y", rows[0][0])
		}
	})

	t.Run("hive", func(t *testing.T) {
		dir := t.TempDir()
		conn, err := hive.New("lake", hive.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(conn)
		defer c.Close()
		mustExec(t, c, "CREATE TABLE lake.t (a BIGINT, b BIGINT)")
		mustExec(t, c, "INSERT INTO lake.t SELECT * FROM (VALUES (1, 10), (3, 30), (4, 40))")
		const sql = "SELECT count(*) FROM lake.t"
		if rows := warm(t, c, sql); rows[0][0].I != 3 {
			t.Fatalf("count(*) = %v, want 3", rows[0][0])
		}
		cols := []orcish.ColumnMeta{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Bigint}}
		page := block.NewPage(block.NewLongBlock([]int64{5, 6}, nil), block.NewLongBlock([]int64{50, 60}, nil))
		if err := orcish.WriteFile(filepath.Join(dir, "t", "outside.orcish"), cols, []*block.Page{page}, 16); err != nil {
			t.Fatal(err)
		}
		if rows := mustExec(t, c, sql); rows[0][0].I != 5 {
			t.Errorf("count(*) after a file was written into the lake = %v, want 5", rows[0][0])
		}
	})
}
