package presto

// What a point read pays: the serving workload's memory.events read — a few
// rows out of a resident table that is being written a row at a time.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/types"
)

const (
	eventKeys    = 3000
	eventsPerKey = 4
)

// eventsCluster is a 2 x 1 cluster whose default catalog holds events(app, v):
// eventsPerKey rows for each of eventKeys apps in one page, as the benchmark's
// serving_mix loads it. The result cache is off so that every read executes.
func eventsCluster(t *testing.T) *Cluster {
	t.Helper()
	return eventsClusterWith(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
}

// eventsClusterWith is eventsCluster on a cluster built from cfg.
func eventsClusterWith(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	apps, ones := make([]int64, 0, eventKeys*eventsPerKey), make([]int64, 0, eventKeys*eventsPerKey)
	for k := 0; k < eventKeys; k++ {
		for i := 0; i < eventsPerKey; i++ {
			apps, ones = append(apps, int64(k)), append(ones, 1)
		}
	}
	mem := memconn.New("memory")
	mem.LoadTable("events", []connector.Column{{Name: "app", T: types.Bigint}, {Name: "v", T: types.Bigint}},
		[]*block.Page{block.NewPage(block.NewLongBlock(apps, nil), block.NewLongBlock(ones, nil))})
	c.Register(mem)
	return c
}

func pointRead(k int) string {
	return fmt.Sprintf("SELECT count(*), sum(v) FROM memory.events WHERE app = %d", k)
}

// TestResidentTableScanLine: EXPLAIN ANALYZE of a point read over a memory
// catalog prints one scan line, with no cache count, that read the table's
// one page; the reads answer as they do with the split cache bypassed.
func TestResidentTableScanLine(t *testing.T) {
	c := eventsCluster(t)
	var plan strings.Builder
	for _, row := range mustExec(t, c, "EXPLAIN ANALYZE "+pointRead(7)) {
		plan.WriteString(row[0].S + "\n")
	}
	scanLine := ""
	for _, line := range strings.Split(plan.String(), "\n") {
		if strings.Contains(line, "TableScan") && strings.Contains(line, "rows ") {
			scanLine = line
		}
	}
	if scanLine == "" || strings.Contains(scanLine, "cache ") {
		t.Errorf("scan line %q: want one, without a cache count\n%s", scanLine, plan.String())
	}
	if want := fmt.Sprintf("pages 1 (avg %d rows)", eventKeys*eventsPerKey); !strings.Contains(scanLine, want) {
		t.Errorf("scan line %q does not print %q", scanLine, want)
	}
	for k := 0; k < 20; k++ {
		got := stringifyRows(mustExec(t, c, pointRead(k)))
		res, err := c.ExecuteSession(pointRead(k), Session{Switches: exec.DisableCache})
		if err != nil {
			t.Fatal(err)
		}
		uncached, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		assertRows(t, pointRead(k), got, stringifyRows(uncached))
		assertRows(t, pointRead(k), got, []string{fmt.Sprintf("%d|%d", eventsPerKey, eventsPerKey)})
	}
}

// bytesPerStatement runs the point reads of keys [from, from+n) and returns
// what one allocated, process-wide.
func bytesPerStatement(t *testing.T, c *Cluster, from, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := from; k < from+n; k++ {
		mustExec(t, c, pointRead(k))
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPointReadByteBudget: a point read allocates for the rows it reads, not
// for the page it reads them from, and goes on doing so while the table is
// written a row at a time. The parent commit's figures for the same loop are
// in EXPERIMENTS.md ("What a point read pays"): 247 KB per statement, and 416
// KB after the 500 inserts.
func TestPointReadByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	// 1.3 x the 50.0 KB measured when this was written.
	const budget = 1.3 * 50_000
	c := eventsCluster(t)
	bytesPerStatement(t, c, 0, 50) // warm-up: plans, identity vector, pools
	fresh := bytesPerStatement(t, c, 50, 200)
	t.Logf("%.0f bytes per point read", fresh)
	if fresh > budget {
		t.Errorf("a point read allocates %.0f bytes, budget %.0f", fresh, float64(budget))
	}
	for i := 0; i < 500; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO memory.events SELECT * FROM (VALUES (%d, 1))", i%eventKeys))
		if i%5 == 0 {
			mustExec(t, c, pointRead(i%eventKeys))
		}
	}
	written := bytesPerStatement(t, c, 1000, 200)
	t.Logf("%.0f bytes per point read after 500 inserts", written)
	if written > 1.25*fresh {
		t.Errorf("after 500 single-row inserts a point read allocates %.0f bytes, %.2fx the %.0f before them; want <= 1.25x",
			written, written/fresh, fresh)
	}
}

// TestConcurrentInsertAndScan: two writers insert single rows while two
// readers count the table. A reader's count never goes backwards — each scan
// reads one snapshot of the table's pages, and merging tail pages neither
// repeats nor drops a row of it — and the final count is every insert.
func TestConcurrentInsertAndScan(t *testing.T) {
	c := eventsCluster(t)
	const writers, perWriter = 2, 150
	var acked atomic.Int64
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Query(fmt.Sprintf("INSERT INTO memory.events SELECT * FROM (VALUES (%d, 1))", w*perWriter+i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := acked.Load()
				row, err := c.QueryRow("SELECT count(*) FROM memory.events")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				n := row[0].I - eventKeys*eventsPerKey
				if n < last || n < floor || n > writers*perWriter {
					t.Errorf("reader %d counted %d inserted rows after %d, with %d acknowledged", r, n, last, floor)
					return
				}
				last = n
			}
		}(r)
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if row := mustExec(t, c, "SELECT count(*), sum(v) FROM memory.events")[0]; row[0].I != eventKeys*eventsPerKey+writers*perWriter || row[1].I != row[0].I {
		t.Errorf("final count and sum %v, want %d", row, eventKeys*eventsPerKey+writers*perWriter)
	}
}
