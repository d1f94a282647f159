package coordinator

import (
	"testing"

	"repro/internal/connectors/memconn"
	"repro/internal/exec"
)

// TestWriteInvalidatesOnlyItsTable: an INSERT into memory.t drops the
// metadata and split enumerations cached for memory.t and keeps memory.t2's,
// whose keys memory.t's are a prefix of: the next scan of memory.t2 is
// answered from the cache.
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
	if n := scanMisses("SELECT sum(a) FROM t WHERE a > 1"); n < 2 {
		t.Errorf("the scan of memory.t after the write to it missed the metadata cache %d times; want its metadata and its splits", n)
	}
}
