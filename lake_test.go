package presto

// The lake's scan accounting: a scan reports the bytes its sources fetched,
// and a lazy column that never loads costs nothing.

import (
	"path/filepath"
	"testing"

	"repro/internal/connectors/hive"
	"repro/internal/orcish"
	"repro/internal/workload"
)

// lineitemSections sums, over every lineitem file of the lake, the bytes of
// the named column's sections and of whole stripes.
func lineitemSections(t *testing.T, dir, column string) (colBytes, stripeBytes int64) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "lineitem", "*.orcish"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no lineitem files under %s: %v", dir, err)
	}
	for _, f := range files {
		footer, err := orcish.ReadFooter(f)
		if err != nil {
			t.Fatal(err)
		}
		ci := -1
		for i, c := range footer.Columns {
			if c.Name == column {
				ci = i
			}
		}
		for _, s := range footer.Stripes {
			colBytes += s.ColLengths[ci]
			stripeBytes += s.Length
		}
	}
	return colBytes, stripeBytes
}

// TestScanBytesReadAreFetchedBytes: a lazy scan of all sixteen lineitem
// columns whose filter keeps no row fetches only the filter's column, and
// QueryStats.BytesRead says so (within 10 % of that column's sections); the
// same query read eagerly reports every stripe's bytes; a memory table's
// numbers are what they were, the size of the pages its scans produced.
func TestScanBytesReadAreFetchedBytes(t *testing.T) {
	dir := t.TempDir()
	const sql = "SELECT * FROM lake.lineitem WHERE l_quantity * 2 < 0"
	var colBytes, stripeBytes int64
	for _, lazy := range []bool{true, false} {
		// One thread a worker: one driver drains each task's scan, so no
		// sibling forces a column after the source has closed.
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
		lake, err := workload.LoadTPCHHiveConfig("lake", 0.05, hive.Config{Dir: dir, LazyReads: lazy, StripeRows: 1024, MetadataTTL: -1})
		if err != nil {
			t.Fatal(err)
		}
		c.Register(lake)
		if colBytes == 0 {
			colBytes, stripeBytes = lineitemSections(t, dir, "l_quantity")
		}
		rows, id := runTrackedQuery(t, c, sql)
		st, ok := c.QueryStats(id)
		c.Close()
		if !ok || len(rows) != 0 {
			t.Fatalf("lazy=%v: %d rows, stats found %v", lazy, len(rows), ok)
		}
		want := stripeBytes
		if lazy {
			want = colBytes
		}
		if diff := st.BytesRead - want; diff*10 > want || -diff*10 > want {
			t.Errorf("lazy=%v: QueryStats.BytesRead %d, want %d (±10%%); l_quantity is %d of %d stripe bytes",
				lazy, st.BytesRead, want, colBytes, stripeBytes)
		}
	}

	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", 0.05))
	_, id := runTrackedQuery(t, c, "SELECT l_returnflag, sum(l_quantity) FROM tpch.lineitem GROUP BY l_returnflag")
	st, _ := c.QueryStats(id)
	var pageBytes int64
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			if op := pl.Operators[0]; op.Name == "TableScan" {
				pageBytes += op.BytesOut
			}
		}
	}
	if st.BytesRead == 0 || st.BytesRead != pageBytes {
		t.Errorf("memory table: BytesRead %d, its scans produced %d bytes of pages", st.BytesRead, pageBytes)
	}
}
