package exec

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// oneSink is a memory catalog that opens one page sink and refuses every
// later one: a writer pipeline's second driver cannot be built.
type oneSink struct {
	*memconn.Connector
	opened atomic.Int32
}

var errSinkRefused = errors.New("second page sink refused")

func (c *oneSink) PageSink(table string) (connector.PageSink, error) {
	if c.opened.Add(1) > 1 {
		return nil, errSinkRefused
	}
	return c.Connector.PageSink(table)
}

// TestWriterScaleFailureFailsTask: when the input backlog of a writer
// pipeline adds a writer that cannot be built, the task fails with that
// error and finishes, where it used to carry on with the writers it had.
func TestWriterScaleFailureFailsTask(t *testing.T) {
	conn := &oneSink{Connector: memconn.New("mem")}
	cols := []connector.Column{{Name: "v", T: types.Bigint}}
	if err := conn.CreateTable("sink", cols); err != nil {
		t.Fatal(err)
	}
	// 64 pages of 8 KiB: far past the 32 KiB backlog that scales writers.
	producer := shuffle.NewOutputBuffer(1, 1<<20)
	for i := 0; i < 64; i++ {
		producer.Add(0, block.NewPage(block.NewLongBlock(make([]int64, 1024), nil)))
	}
	producer.SetNoMorePages()
	frag := &plan.Fragment{
		Root: &plan.TableWrite{
			Input:   &plan.RemoteSource{SourceFragments: []int{1}, Out: plan.Schema{{Name: "v", T: types.Bigint}}},
			Catalog: "mem", Table: "sink",
			Out: plan.Schema{{Name: "rows", T: types.Bigint}},
		},
		OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer:     -1,
	}
	// A slow sink keeps the backlog up while the exchange fills.
	wc := WorkerConfig{Threads: 2, Task: TaskConfig{MaxWriters: 4, WriteDelay: func() { time.Sleep(time.Millisecond) }}}
	task := createTask(t, &testRegistry{conn: conn}, wc, frag,
		map[int][]shuffle.Fetcher{1: {&shuffle.LocalFetcher{Buf: producer.Partition(0)}}}, FilterRelay{})
	if !task.waitDone(10 * time.Second) {
		t.Fatal("a task whose writer could not be built never finished")
	}
	if err := task.Err(); !errors.Is(err, errSinkRefused) {
		t.Fatalf("task error %v, want the refused sink", err)
	}
	if n := conn.opened.Load(); n < 2 {
		t.Fatalf("%d sinks opened: the writers never scaled", n)
	}
}

// TestNewWorkerStartsOnlyItsThreads: a worker runs nothing on a clock. The
// goroutines NewWorker starts are its executor threads and no more.
func TestNewWorkerStartsOnlyItsThreads(t *testing.T) {
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)] // "goroutine N [running]: ..."
	creator := " in goroutine " + strings.Fields(string(self))[1]
	w := NewWorker(0, &testRegistry{conn: memconn.New("mem")}, WorkerConfig{Threads: 3})
	defer w.Close()
	all := make([]byte, 1<<20)
	all = all[:runtime.Stack(all, true)]
	var started []string
	for _, line := range strings.Split(string(all), "\n") {
		if strings.HasPrefix(line, "created by ") && strings.HasSuffix(line, creator) {
			started = append(started, strings.TrimSuffix(strings.TrimPrefix(line, "created by "), creator))
		}
	}
	threads := 0
	for _, fn := range started {
		if fn == "repro/internal/exec.NewExecutor" {
			threads++
		}
	}
	if threads != 3 || len(started) != 3 {
		t.Errorf("NewWorker with 3 threads started %d goroutines: %v", len(started), started)
	}
}
