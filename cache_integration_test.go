package presto

// End-to-end tests for the coordinator's metadata cache at cluster level: the
// per-session disable toggle and the version rule on writes.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/kvconn"
	"repro/internal/connectors/raptor"
	"repro/internal/exec"
	"repro/internal/orcish"
	"repro/internal/types"
)

// TestCacheSessionToggle checks the per-query opt-out: with DisableCache the
// coordinator bypasses its split cache (no hits), and the same query with a
// default session is served from it once enumerated.
func TestCacheSessionToggle(t *testing.T) {
	// The result cache is off, since a hit would answer the repeat without
	// enumerating splits at all. The plan cache stays on, so a repeat does not
	// look up the table's metadata again either: what it reads from the
	// metadata cache is its splits.
	c := NewCluster(ClusterConfig{Workers: 2, MetadataCacheTTL: time.Hour, DisableResultCache: true})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (x BIGINT)")
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (1), (2))")
	sql := "SELECT count(*) FROM t"
	run := func(s Session) {
		res, err := c.ExecuteSession(sql, s)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].I != 2 {
			t.Fatalf("count: %v, want 2", rows)
		}
	}
	run(Session{Switches: exec.DisableCache})
	before := c.MetaCacheStats()
	run(Session{Switches: exec.DisableCache})
	if after := c.MetaCacheStats(); after.Hits != before.Hits {
		t.Errorf("DisableCache session hit the split cache: %+v -> %+v", before, after)
	}
	// Default sessions use the split cache on the very same query.
	run(Session{})
	before = c.MetaCacheStats()
	run(Session{})
	if after := c.MetaCacheStats(); after.Hits <= before.Hits {
		t.Errorf("default session should hit the split cache: %+v -> %+v", before, after)
	}
}

// TestMetadataCacheInvalidatedOnWrite checks split/metadata memoization end
// to end: repeated reads hit the coordinator metadata cache, and an INSERT
// into the table moves its version, so the next read misses the split entry
// and sees the new rows at once (well before the TTL could expire), while
// the table's metadata, keyed by its unchanged schema version, still hits.
func TestMetadataCacheInvalidatedOnWrite(t *testing.T) {
	// Serving caches off: a result-cache hit would serve the repeat read
	// without touching split metadata at all (serving has its own
	// invalidation coverage in serving_test.go).
	c := NewCluster(ClusterConfig{Workers: 2, MetadataCacheTTL: time.Hour,
		DisablePlanCache: true, DisableResultCache: true})
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
	before := c.MetaCacheStats()
	if got := count(); got != 2 {
		t.Fatalf("repeat count: %d", got)
	}
	if after := c.MetaCacheStats(); after.Hits <= before.Hits {
		t.Errorf("repeated read should hit the metadata cache: %+v -> %+v", before, after)
	}
	// A write to the table must miss the cached splits despite the 1h TTL.
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (3))")
	before = c.MetaCacheStats()
	if got := count(); got != 3 {
		t.Errorf("stale metadata after write: count=%d, want 3", got)
	}
	if after := c.MetaCacheStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
		t.Errorf("the read after the write should miss its splits and hit its metadata: %+v -> %+v", before, after)
	}
}

// TestCachesSeeConnectorChanges: a table changed through its connector's own
// API, or a file written into the lake by another program, is seen by the
// next read however warm the plan and metadata caches are and however long
// their TTL: every connector versions its tables, and every cache checks the
// versions it read.
func TestCachesSeeConnectorChanges(t *testing.T) {
	newCluster := func(conn Connector) *Cluster {
		c := NewCluster(ClusterConfig{Workers: 2, MetadataCacheTTL: time.Hour})
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
		if c.MetaCacheStats().Hits == 0 {
			t.Fatalf("%s: nothing hit the metadata cache", sql)
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
