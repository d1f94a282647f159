package hive

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/orcish"
)

// TestFooterCacheHit proves the per-query footer re-decode is fixed: after
// the initial scan decodes a footer once, later opens hit the footer cache.
func TestFooterCacheHit(t *testing.T) {
	dir := t.TempDir()
	if err := mkdirAll(filepath.Join(dir, "t")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t", "part-0.orcish")
	if err := writeOrcish(path, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c, err := New("hive", Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// New()'s table scan decoded and cached the footer; these reads must hit.
	base := c.MetaStats()
	for range 2 {
		if _, err := c.footer(path); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.MetaStats(); st.Hits != base.Hits+2 || st.Misses != base.Misses || st.Entries != 1 {
		t.Errorf("footer reads after the scan should hit the cache: %+v -> %+v", base, st)
	}
}

// TestFooterCacheConcurrentReads: the footer cache does not lock itself, the
// connector does. Goroutines reading the footers of several files while a
// sink finishes a new file (and stores its footer) race on nothing, and each
// read counts one hit or one miss.
func TestFooterCacheConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	if err := mkdirAll(filepath.Join(dir, "t")); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := range 4 {
		path := filepath.Join(dir, "t", fmt.Sprintf("part-%d.orcish", i))
		if err := writeOrcish(path, []int64{int64(i), int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	c, err := New("hive", Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := c.PageSink("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(block.NewPage(block.NewLongBlock([]int64{7, 8, 9}, nil))); err != nil {
		t.Fatal(err)
	}
	const readers, rounds = 4, 50
	before := c.MetaStats()
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		if _, err := sink.Finish(); err != nil {
			t.Error(err)
		}
	}()
	for range readers {
		go func() {
			defer wg.Done()
			for r := range rounds {
				if _, err := c.footer(paths[r%len(paths)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := c.MetaStats()
	if got := (after.Hits - before.Hits) + (after.Misses - before.Misses); got != readers*rounds {
		t.Errorf("%d reads counted %d hits and misses: %+v -> %+v", readers*rounds, got, before, after)
	}
	if after.Entries != len(paths)+1 {
		t.Errorf("%d footers cached, want %d: the files' and the sink's", after.Entries, len(paths)+1)
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
	c, err := New("hive", Config{Dir: dir})
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
