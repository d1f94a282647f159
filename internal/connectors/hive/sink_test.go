package hive

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/types"
)

// TestConcurrentSinksFoldStats: four sinks writing one table at once leave
// the statistics a fresh scan of the directory computes, and finishing them
// reads no footer — each sink folds in the footer its writer holds, which is
// also the new file's cache entry, so the next scan hits.
func TestConcurrentSinksFoldStats(t *testing.T) {
	dir := t.TempDir()
	c, err := New("hive", Config{Dir: dir, CollectStats: true, StripeRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", []connector.Column{{Name: "id", T: types.Bigint}, {Name: "s", T: types.Varchar}}); err != nil {
		t.Fatal(err)
	}
	sinks := make([]connector.PageSink, 4)
	for i := range sinks {
		if sinks[i], err = c.PageSink("t"); err != nil {
			t.Fatal(err)
		}
		ids, ss := make([]int64, 50), make([]string, 50)
		for r := range ids {
			ids[r], ss[r] = int64(i*1000+r*(i+1)), "x"
		}
		if err := sinks[i].Append(block.NewPage(block.NewLongBlock(ids, nil), block.NewVarcharBlock(ss, nil))); err != nil {
			t.Fatal(err)
		}
	}
	before := c.MetaStats()
	var wg sync.WaitGroup
	for _, s := range sinks {
		wg.Add(1)
		go func(s connector.PageSink) {
			defer wg.Done()
			if _, err := s.Finish(); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	if after := c.MetaStats(); after.Misses != before.Misses {
		t.Errorf("finishing the sinks missed the footer cache %d times", after.Misses-before.Misses)
	}

	fresh, err := New("hive", Config{Dir: dir, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Stats("t"), fresh.Stats("t")
	if !reflect.DeepEqual(got, want) || got.RowCount != 200 {
		t.Errorf("stats after the sinks %+v, a fresh scan %+v", got, want)
	}
	files, _, err := listDataFiles(filepath.Join(dir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	before = c.MetaStats()
	for _, f := range files {
		if filepath.Base(f) == "part-00000.orcish" {
			continue // CreateTable's schema file, not a sink's
		}
		if _, err := c.footer(f); err != nil {
			t.Fatal(err)
		}
	}
	if after := c.MetaStats(); after.Misses != before.Misses {
		t.Errorf("reading the new files' footers missed the cache %d times", after.Misses-before.Misses)
	}
}
