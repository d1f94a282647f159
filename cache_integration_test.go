package presto

// End-to-end tests for the coordinator's metadata cache at cluster level: the
// per-session disable toggle and invalidation on writes.

import (
	"testing"
	"time"

	"repro/internal/exec"
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
// into the table invalidates it so the new rows are visible immediately
// (well before the TTL could expire).
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
	// A write to the table must invalidate cached splits despite the 1h TTL.
	mustExec(t, c, "INSERT INTO t SELECT * FROM (VALUES (3))")
	if got := count(); got != 3 {
		t.Errorf("stale metadata after write: count=%d, want 3", got)
	}
	if st := c.MetaCacheStats(); st.Invalidations == 0 {
		t.Errorf("write recorded no metadata invalidations: %+v", st)
	}
}
