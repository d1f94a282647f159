package exec

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/plan"
	"repro/internal/types"
)

// gatedConnector is memconn whose page sources hand out nothing until the
// gate opens, so a scan's work is all still there while its drivers start.
type gatedConnector struct {
	*memconn.Connector
	gate chan struct{}
}

func (c *gatedConnector) PageSource(s connector.Split, columns []string, h plan.TableHandle) (connector.PageSource, error) {
	src, err := c.Connector.PageSource(s, columns, h)
	return &gatedSource{PageSource: src, gate: c.gate}, err
}

type gatedSource struct {
	connector.PageSource
	gate chan struct{}
}

func (s *gatedSource) NextPage() (*block.Page, error) {
	<-s.gate
	return s.PageSource.NextPage()
}

// scanDriversStarted runs a scan of an eight-page table, enumerated as the
// given number of splits, as one task on an executor of the given threads, and
// returns how many drivers the task started for the scan.
func scanDriversStarted(t *testing.T, threads, splits int, cfg TaskConfig) int {
	t.Helper()
	mem := memconn.New("mem")
	mem.SplitsPerTable = splits
	mem.LoadTable("p", []connector.Column{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}}, dynProbePages(8))
	conn := &gatedConnector{Connector: mem, gate: make(chan struct{})}
	scan := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "p"}, Columns: []string{"a"},
		Out: plan.Schema{{Name: "a", T: types.Bigint}}}
	task := dynTask(t, scan, conn, threads, cfg)
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	src, err := conn.Splits(scan.Handle)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := src.NextBatch(10)
	if len(batch.Splits) != splits || !batch.Done {
		t.Fatalf("the table enumerates %d splits, want %d", len(batch.Splits), splits)
	}
	for _, s := range batch.Splits {
		if err := task.AddSplit(0, s); err != nil {
			t.Fatal(err)
		}
	}
	task.NoMoreSplits(0)
	close(conn.gate)
	if !task.waitDone(10 * time.Second) {
		t.Fatal("task did not finish")
	}
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, pl := range task.Stats().Pipelines {
		rows += pl.Operators[0].RowsOut
	}
	if rows != 8*dynPageRows {
		t.Errorf("%d threads, %d splits: the scan read %d rows, want %d", threads, splits, rows, 8*dynPageRows)
	}
	task.mu.Lock()
	defer task.mu.Unlock()
	return task.scanPipe(0).driversStarted
}

// TestScanDriversCappedAtThreads: scan drivers are not tied to splits, so a
// scan starts as many as its executor has threads and no more — a further one
// would compile an operator chain to find the queue drained — whatever the
// number of splits.
func TestScanDriversCappedAtThreads(t *testing.T) {
	for _, tc := range []struct {
		name            string
		threads, splits int
		cfg             TaskConfig
		want            int
	}{
		{"1 thread, 4 splits", 1, 4, TaskConfig{}, 1},
		{"4 threads, 4 splits", 4, 4, TaskConfig{}, 4},
		{"8 threads: the split-concurrency target still bounds it", 8, 4, TaskConfig{}, 4},
		{"one oversized split is shared by 2 threads' drivers", 2, 1, TaskConfig{}, 2},
		{"1 thread, 4 splits, a target of 1", 1, 4, TaskConfig{TargetSplitConcurrency: 1}, 1},
		{"4 threads, 8 splits, a target of 2", 4, 8, TaskConfig{TargetSplitConcurrency: 2}, 2},
	} {
		if got := scanDriversStarted(t, tc.threads, tc.splits, tc.cfg); got != tc.want {
			t.Errorf("%s: %d scan drivers started, want %d", tc.name, got, tc.want)
		}
	}
}
