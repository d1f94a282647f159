package hive

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/orcish"
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
	if _, err := c.footer(path); err != nil {
		t.Fatal(err)
	}
	st := c.MetaStats()
	if st.Hits != base.Hits+1 {
		t.Errorf("footer read after scan should hit the cache: %+v -> %+v", base, st)
	}
	// Advancing the simulated clock past the TTL expires the entry.
	now += int64(2 * time.Second)
	if _, err := c.footer(path); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Misses != st.Misses+1 {
		t.Errorf("expired footer should miss: %+v -> %+v", st, got)
	}
	// And it was re-cached: an immediate re-read hits again.
	before := c.MetaStats()
	if _, err := c.footer(path); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Hits != before.Hits+1 {
		t.Errorf("re-decoded footer should be re-cached: %+v -> %+v", before, got)
	}
}

// TestRewrittenFileMissesItsFooter: footers are keyed by each file's path,
// mtime and size, and nothing drops them on DROP TABLE: t2's footer still
// hits after t is dropped, and a file written again at t's old path misses
// and decodes its own footer.
func TestRewrittenFileMissesItsFooter(t *testing.T) {
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
	if _, err := c.footer(paths["t2"]); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaStats(); got.Hits != st.Hits+1 {
		t.Errorf("t2's footer missed the cache after t was dropped: %+v -> %+v", st, got)
	}
	if err := mkdirAll(filepath.Join(dir, "t")); err != nil {
		t.Fatal(err)
	}
	if err := writeOrcish(paths["t"], []int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	st = c.MetaStats()
	f, err := c.footer(paths["t"])
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := orcish.FileStats(f); rows != 5 {
		t.Errorf("the rewritten file's footer counts %d rows, want 5", rows)
	}
	if got := c.MetaStats(); got.Misses != st.Misses+1 {
		t.Errorf("the rewritten file's footer did not miss: %+v -> %+v", st, got)
	}
}
