package hive

import (
	"path/filepath"
	"testing"
	"time"
)

// TestFooterCacheHitAndTTL proves the per-query footer re-decode is fixed:
// after the initial scan decodes a footer once, later opens hit the metadata
// cache, and a simulated clock advance past the TTL expires the entry —
// no wall-clock sleeping involved.
func TestFooterCacheHitAndTTL(t *testing.T) {
	dir := t.TempDir()
	if err := mkdirAll(filepath.Join(dir, "t")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t", "part-0.orcish")
	if err := writeOrcish(path, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	c, err := New("hive", Config{
		Dir:         dir,
		MetadataTTL: time.Second,
		Clock:       func() int64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	// New()'s table scan decoded and cached the footer; this read must hit.
	base := c.MetaStats()
	if _, err := c.footer("t", path); err != nil {
		t.Fatal(err)
	}
	st := c.MetaStats()
	if st.Hits != base.Hits+1 {
		t.Errorf("footer read after scan should hit the cache: %+v -> %+v", base, st)
	}
	// Advancing the simulated clock past the TTL expires the entry.
	now += int64(2 * time.Second)
	if _, err := c.footer("t", path); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Misses != st.Misses+1 {
		t.Errorf("expired footer should miss: %+v -> %+v", st, got)
	}
	// And it was re-cached: an immediate re-read hits again.
	before := c.MetaStats()
	if _, err := c.footer("t", path); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Hits != before.Hits+1 {
		t.Errorf("re-decoded footer should be re-cached: %+v -> %+v", before, got)
	}
}

// TestDropTableDropsOnlyItsFooters: dropping table t drops the cached footers
// of t's files and keeps those of t2, whose directory name t's is a prefix of.
func TestDropTableDropsOnlyItsFooters(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	for _, table := range []string{"t", "t2"} {
		if err := mkdirAll(filepath.Join(dir, table)); err != nil {
			t.Fatal(err)
		}
		paths[table] = filepath.Join(dir, table, "part-0.orcish")
		if err := writeOrcish(paths[table], []int64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("hive", Config{Dir: dir, MetadataTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.MetaStats(); st.Entries != 2 {
		t.Fatalf("%d footers cached after the scan of two one-file tables", st.Entries)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	st := c.MetaStats()
	if st.Entries != 1 || st.Invalidations != 1 {
		t.Fatalf("after dropping t: %d footers cached, %d invalidated; want t2's kept and t's dropped", st.Entries, st.Invalidations)
	}
	if _, err := c.footer("t2", paths["t2"]); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Hits != st.Hits+1 {
		t.Errorf("t2's footer missed the cache after t was dropped: %+v -> %+v", st, got)
	}
}
