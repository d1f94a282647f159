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
