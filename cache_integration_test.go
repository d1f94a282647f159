package presto

// End-to-end tests for the cache subsystem at cluster level: cold/warm
// agreement and speedup, pool-visible cache bytes that shrink under
// revocation, the per-session disable toggle, and metadata-cache
// invalidation on writes.

import (
	"testing"
	"time"

	"repro/internal/connectors/hive"
	"repro/internal/exec"
	"repro/internal/workload"
)

// newHiveCacheCluster builds a cluster over an eager-read hive lake with a
// simulated remote-storage delay so cache effects dominate the scan cost.
func newHiveCacheCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(c.Close)
	// The delay is sized so a cold scan costs tens of milliseconds — enough
	// that "warm beats cold" is far outside scheduler timing noise.
	conn, err := workload.LoadTPCHHiveConfig("tpch", 0.2, hive.Config{
		Dir:              t.TempDir(),
		LazyReads:        false,
		StripeRows:       4096,
		ReadDelayPerByte: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(conn)
	return c
}

// TestCacheColdWarmSmoke runs the same scan cold then warm: identical rows,
// page-cache hits on the warm run, and a faster warm wall time. The precise
// speedup claim lives in BenchmarkScanCold/Warm; this is the smoke gate.
func TestCacheColdWarmSmoke(t *testing.T) {
	c := newHiveCacheCluster(t)
	sql := "SELECT count(*), sum(l_quantity) FROM tpch.lineitem"

	start := time.Now()
	coldRows, _ := runTrackedQuery(t, c, sql)
	cold := time.Since(start)

	start = time.Now()
	warmRows, warmID := runTrackedQuery(t, c, sql)
	warm := time.Since(start)

	coldStr, warmStr := stringifyRows(coldRows), stringifyRows(warmRows)
	if len(coldStr) != 1 || len(warmStr) != 1 || coldStr[0] != warmStr[0] {
		t.Fatalf("cold/warm rows diverge: %v vs %v", coldStr, warmStr)
	}
	if hits := scanCacheHits(t, c, warmID); hits == 0 {
		t.Error("warm run recorded no page-cache hits")
	}
	if warm >= cold {
		t.Errorf("warm scan (%s) not faster than cold (%s)", warm, cold)
	}
	st := c.PageCacheStats()
	if st.Bytes == 0 || st.Entries == 0 {
		t.Errorf("cache should hold pages after the scans: %+v", st)
	}
}

// TestCacheBytesShrinkUnderRevocation checks the memory contract: cached
// pages are charged to each worker's general pool, and TryRevoke reclaims
// them before any query would fail.
func TestCacheBytesShrinkUnderRevocation(t *testing.T) {
	c := newHiveCacheCluster(t)
	if _, err := c.Query("SELECT sum(l_extendedprice) FROM tpch.lineitem"); err != nil {
		t.Fatal(err)
	}
	before := c.PageCacheStats()
	if before.Bytes == 0 {
		t.Fatal("scan populated no cache bytes")
	}
	for _, w := range c.Workers() {
		cb := w.CacheStats().Bytes
		if cb == 0 {
			continue
		}
		if used := w.Pool.GeneralUsed(); used < cb {
			t.Errorf("worker %d: pool shows %d bytes but cache holds %d — cache not pool-charged", w.ID, used, cb)
		}
		if !w.Pool.TryRevoke(cb / 2) {
			t.Errorf("worker %d: TryRevoke could not reclaim cache memory", w.ID)
		}
	}
	after := c.PageCacheStats()
	if after.Bytes >= before.Bytes {
		t.Errorf("revocation did not shrink cache: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.Evictions == before.Evictions {
		t.Errorf("revocation recorded no evictions: %+v", after)
	}
	// The cluster still answers queries correctly afterwards.
	rows, err := c.Query("SELECT count(*) FROM tpch.nation")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 25 {
		t.Errorf("post-revocation query wrong: %v", rows)
	}
}

// TestCacheSessionToggle checks the per-query opt-out: with DisableCache the
// scans never touch the cache (no hits, nothing admitted), and the same
// query with a default session warms up as usual.
func TestCacheSessionToggle(t *testing.T) {
	c := newHiveCacheCluster(t)
	sql := "SELECT count(*) FROM tpch.orders"
	runDisabled := func() string {
		res, err := c.ExecuteSession(sql, Session{Switches: exec.DisableCache})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
		return res.QueryID
	}
	runDisabled()
	id := runDisabled()
	if hits := scanCacheHits(t, c, id); hits != 0 {
		t.Errorf("DisableCache session recorded %d cache hits", hits)
	}
	if st := c.PageCacheStats(); st.Entries != 0 {
		t.Errorf("DisableCache session admitted %d entries", st.Entries)
	}
	// Default sessions cache normally on the very same query.
	runTrackedQuery(t, c, sql)
	_, warmID := runTrackedQuery(t, c, sql)
	if hits := scanCacheHits(t, c, warmID); hits == 0 {
		t.Error("default session should hit the cache once warmed")
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
