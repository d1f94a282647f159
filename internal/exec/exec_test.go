package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// passthrough is a counting sink for driver tests (pipelines end in a sink
// that consumes without producing, like PartitionedOutput).
type passthrough struct {
	finished bool
	rows     int64
}

func (o *passthrough) NeedsInput() bool { return !o.finished }
func (o *passthrough) AddInput(p *block.Page) error {
	o.rows += int64(p.RowCount())
	return nil
}
func (o *passthrough) Output() (*block.Page, error) { return nil, nil }
func (o *passthrough) Finish()                      { o.finished = true }
func (o *passthrough) IsFinished() bool             { return o.finished }
func (o *passthrough) IsBlocked() bool              { return false }
func (o *passthrough) Close() error                 { return nil }

func TestDriverRunsToCompletion(t *testing.T) {
	src := operators.NewValuesOperator([][]types.Value{
		{types.BigintValue(1)}, {types.BigintValue(2)},
	}, []types.Type{types.Bigint})
	sink := &passthrough{}
	d := NewDriver([]operators.Operator{src, sink})
	for i := 0; i < 100 && !d.Finished(); i++ {
		if _, err := d.Process(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Finished() {
		t.Fatal("driver did not finish")
	}
	if sink.rows != 2 {
		t.Errorf("rows: %d", sink.rows)
	}
}

// errOp fails on input.
type errOp struct{ passthrough }

func (o *errOp) AddInput(p *block.Page) error { return errors.New("boom") }

func TestDriverPropagatesErrors(t *testing.T) {
	src := operators.NewValuesOperator([][]types.Value{{types.BigintValue(1)}}, []types.Type{types.Bigint})
	d := NewDriver([]operators.Operator{src, &errOp{}})
	var lastErr error
	for i := 0; i < 10 && !d.Finished(); i++ {
		_, lastErr = d.Process(time.Millisecond)
	}
	if lastErr == nil || d.Err() == nil {
		t.Error("driver should surface operator errors")
	}
}

// keeper says it releases its input and keeps the last page all the same: a
// consumer that reads a borrowed page late.
type keeper struct {
	passthrough
	last *block.Page
	seen int64
}

func (o *keeper) ReleasesInput() bool { return true }
func (o *keeper) AddInput(p *block.Page) error {
	o.last, o.seen = p, p.Col(0).Long(0)
	return nil
}

// TestFinishedDriverPoisonsItsScratch: a driver gives its operators' scratch
// back when it finishes, and with the poison on (as scripts/check.sh links it
// under the differential walls) every vector it gives back is poisoned, so a
// page read after its driver finished — a filter/project's lent output here —
// reads values no input holds.
func TestFinishedDriverPoisonsItsScratch(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	src := operators.NewValuesOperator([][]types.Value{{types.BigintValue(1)}, {types.BigintValue(2)}, {types.BigintValue(3)}}, []types.Type{types.Bigint})
	pred := &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint), R: lit(types.BigintValue(1))}
	fp := operators.NewFilterProject(operators.NopContext(), expr.NewPageProcessor(pred, []expr.Expr{col(0, types.Bigint)}))
	sink := &keeper{}
	lendOutputs([]operators.Operator{fp, sink})
	if !fp.Processor().BorrowsOutput() {
		t.Fatal("the processor does not lend to a consumer that releases its input")
	}
	d := NewDriver([]operators.Operator{src, fp, sink})
	for i := 0; i < 100 && !d.Finished(); i++ {
		if _, err := d.Process(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Finished() || sink.seen != 2 {
		t.Fatalf("finished %v, the sink read %d; want a finished driver and 2", d.Finished(), sink.seen)
	}
	if got := sink.last.Col(0).Long(0); got != math.MinInt64 {
		t.Errorf("a lent page read after its driver finished gives %d, want the poison", got)
	}
}

func TestExecutorRunsDrivers(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 2, Quanta: time.Millisecond})
	defer e.Close()
	var done atomic.Int32
	th := NewTaskHandle("q")
	for i := 0; i < 20; i++ {
		src := operators.NewValuesOperator([][]types.Value{{types.BigintValue(int64(i))}}, []types.Type{types.Bigint})
		d := NewDriver([]operators.Operator{src, &passthrough{}})
		e.Enqueue(d, th, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done.Add(1)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if done.Load() != 20 {
		t.Fatalf("completed %d/20 drivers", done.Load())
	}
	if th.CPUNanos() == 0 {
		t.Error("task CPU time should accumulate")
	}
}

func TestExecutorMLFQLevels(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond})
	defer e.Close()
	fresh := NewTaskHandle("fresh")
	old := NewTaskHandle("old")
	old.cpuNanos.Store(int64(60 * time.Second)) // deep into level 4
	if e.levelOf(fresh) != 0 {
		t.Errorf("fresh task level: %d", e.levelOf(fresh))
	}
	if e.levelOf(old) != nLevels-1 {
		t.Errorf("old task level: %d", e.levelOf(old))
	}
	// FIFO mode pins everything to level 0.
	f := NewExecutor(ExecutorConfig{Threads: 1, FIFO: true})
	defer f.Close()
	if f.levelOf(old) != 0 {
		t.Error("FIFO mode should ignore levels")
	}
}

// testRegistry adapts a memconn connector for task tests.
type testRegistry struct{ conn connector.Connector }

func (r *testRegistry) Connector(catalog string) (connector.Connector, error) {
	if catalog != r.conn.Name() {
		return nil, fmt.Errorf("unknown catalog %q", catalog)
	}
	return r.conn, nil
}

// buildScanFragment returns a fragment scanning table t's single column.
func buildScanFragment(catalog string) *plan.Fragment {
	scan := &plan.Scan{
		Handle:  plan.TableHandle{Catalog: catalog, Table: "t"},
		Columns: []string{"v"},
		Out:     plan.Schema{{Name: "v", T: types.Bigint}},
	}
	return &plan.Fragment{
		ID:                 0,
		Root:               scan,
		OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer:     -1,
	}
}

func loadTestTable(rows int) *memconn.Connector {
	conn := memconn.New("mem")
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	conn.LoadTable("t",
		[]connector.Column{{Name: "v", T: types.Bigint}},
		[]*block.Page{block.NewPage(block.NewLongBlock(vals, nil))})
	return conn
}

// createTask creates and starts a task of f through Worker.CreateTask, as
// the engine does, on a worker of its own (configured by wc, its tasks by
// wc.Task) that closes with the test. sources feeds the task's exchanges and
// relay takes the filters its joins publish.
func createTask(tb testing.TB, reg ConnectorRegistry, wc WorkerConfig, f *plan.Fragment,
	sources map[int][]shuffle.Fetcher, relay FilterRelay) *Task {
	tb.Helper()
	w := NewWorker(0, reg, wc)
	tb.Cleanup(w.Close)
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: w.Pool})
	task, err := w.CreateTask(TaskID{QueryID: "q", Fragment: f.ID}, fragmentOf(f), qmem, 1, sources, nil, relay)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(task.Abort)
	return task
}

// fragmentOf is the TaskFragment of f, with no digest: a worker compiles it.
func fragmentOf(f *plan.Fragment) TaskFragment {
	return TaskFragment{Load: func() (*plan.Fragment, error) { return f, nil }}
}

func TestTaskScanEndToEnd(t *testing.T) {
	conn := loadTestTable(100)
	task := createTask(t, &testRegistry{conn: conn}, WorkerConfig{Threads: 2, Quanta: time.Millisecond},
		buildScanFragment("mem"), nil, FilterRelay{})
	// Feed splits as the coordinator would.
	src, err := conn.Splits(plan.TableHandle{Catalog: "mem", Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for {
		batch, _ := src.NextBatch(10)
		for _, s := range batch.Splits {
			if err := task.AddSplit(0, s); err != nil {
				t.Fatal(err)
			}
		}
		if batch.Done {
			break
		}
	}
	task.NoMoreSplits(0)
	if !task.waitDone(5 * time.Second) {
		t.Fatal("task did not finish")
	}
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	// Drain the output buffer.
	rows := 0
	var token int64
	for {
		pages, next, done := task.Output().Partition(0).Fetch(token, 0, 100*time.Millisecond)
		for _, p := range pages {
			rows += p.RowCount()
		}
		token = next
		if done {
			break
		}
	}
	if rows != 100 {
		t.Errorf("rows: %d", rows)
	}
}

func TestTaskAbort(t *testing.T) {
	task := createTask(t, &testRegistry{conn: loadTestTable(10)}, WorkerConfig{Threads: 1},
		buildScanFragment("mem"), nil, FilterRelay{})
	task.Abort()
	if !task.waitDone(2 * time.Second) {
		t.Fatal("aborted task should finish")
	}
	if task.Err() == nil {
		t.Error("aborted task should report an error")
	}
}

func TestTaskExchangePipeline(t *testing.T) {
	// A task whose source is a remote exchange: feed it from a local
	// buffer and watch the data pass through.
	producer := shuffle.NewOutputBuffer(1, 1<<20)
	producer.Add(0, block.NewPage(block.NewLongBlock([]int64{1, 2, 3}, nil)))
	producer.SetNoMorePages()

	rs := &plan.RemoteSource{SourceFragments: []int{1}, Out: plan.Schema{{Name: "v", T: types.Bigint}}}
	frag := &plan.Fragment{
		ID: 0, Root: rs,
		OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer:     -1,
	}
	task := createTask(t, &testRegistry{conn: memconn.New("mem")}, WorkerConfig{Threads: 1}, frag,
		map[int][]shuffle.Fetcher{1: {&shuffle.LocalFetcher{Buf: producer.Partition(0)}}}, FilterRelay{})
	if !task.waitDone(5 * time.Second) {
		t.Fatal("task did not finish")
	}
	pages, _, _ := task.Output().Partition(0).Fetch(0, 0, 100*time.Millisecond)
	rows := 0
	for _, p := range pages {
		rows += p.RowCount()
	}
	if rows != 3 {
		t.Errorf("rows: %d", rows)
	}
}

func TestWorkerLifecycle(t *testing.T) {
	conn := loadTestTable(10)
	w := NewWorker(0, &testRegistry{conn: conn}, WorkerConfig{Threads: 1})
	defer w.Close()
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: w.Pool})
	task, err := w.CreateTask(TaskID{QueryID: "q", Fragment: 0}, fragmentOf(buildScanFragment("mem")), qmem, 1, nil, nil, FilterRelay{})
	if err != nil {
		t.Fatal(err)
	}
	if w.TaskCount() != 1 {
		t.Errorf("task count: %d", w.TaskCount())
	}
	task.NoMoreSplits(0)
	if !task.waitDone(2 * time.Second) {
		t.Fatal("task stuck")
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.TaskCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.TaskCount() != 0 {
		t.Error("finished task should be reaped")
	}
}

// TestUnstartedTaskCannotFinish is the regression test for the
// register-before-Start hole in Worker.CreateTask: a task with no scan
// pipeline has no drivers until Start, and a 10 ms worker ticker used to read
// "no active drivers" as "finished" and seal its output — the consumer then
// saw a clean end-of-stream with rows missing. A task finishes only when every
// pipeline has declared its last driver, which for these pipelines Start
// does. A delay injected at the task-start site parks CreateTask's
// exchange-only task registered and unstarted; the test delivers a filter to
// it (one of the events that re-evaluates a task), and CreateTask starts it.
func TestUnstartedTaskCannotFinish(t *testing.T) {
	producer := shuffle.NewOutputBuffer(1, 1<<20)
	producer.Add(0, block.NewPage(block.NewLongBlock([]int64{1, 2, 3}, nil)))
	producer.SetNoMorePages()
	rs := &plan.RemoteSource{SourceFragments: []int{1}, Out: plan.Schema{{Name: "v", T: types.Bigint}}}
	frag := &plan.Fragment{
		ID: 0, Root: rs,
		OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer:     -1,
	}
	inj := faultinject.New(1, faultinject.Rule{Site: faultinject.SiteTaskStart, Kind: faultinject.KindDelay, Rate: 1, Delay: 300 * time.Millisecond})
	w := NewWorker(0, &testRegistry{conn: memconn.New("mem")}, WorkerConfig{Threads: 1, FaultInject: inj})
	defer w.Close()
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: w.Pool})
	id := TaskID{QueryID: "q", Fragment: 0}
	created := make(chan error, 1)
	go func() {
		_, err := w.CreateTask(id, fragmentOf(frag), qmem, 1,
			map[int][]shuffle.Fetcher{1: {&shuffle.LocalFetcher{Buf: producer.Partition(0)}}}, nil, FilterRelay{})
		created <- err
	}()
	var task *Task
	for deadline := time.Now().Add(5 * time.Second); task == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		task = w.tasks[id]
		w.mu.Unlock()
	}
	if task == nil {
		t.Fatal("CreateTask never registered the task")
	}
	task.DeliverFilter(1, &dynfilter.Summary{Disabled: true})
	time.Sleep(35 * time.Millisecond)
	select {
	case <-task.Done():
		t.Fatal("a task that was never started finished")
	default:
	}
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if !task.waitDone(5 * time.Second) {
		t.Fatal("task did not finish")
	}
	rows := 0
	var token int64
	for {
		pages, next, done := task.Output().Partition(0).Fetch(token, 0, 100*time.Millisecond)
		for _, p := range pages {
			rows += p.RowCount()
		}
		token = next
		if done {
			break
		}
	}
	if rows != 3 {
		t.Errorf("rows: %d, want 3", rows)
	}
}

// TestCollectorlessPublicationIsAnnounced: a join build that publishes with
// no collector must still publish — as a Disabled ("never filter") summary —
// both to the task's relay, which is how the coordinator's hub learns of it,
// and in PublishedFilters. Dropping it left the merged filter pending forever
// and the probe scans waiting out their whole gate.
func TestCollectorlessPublicationIsAnnounced(t *testing.T) {
	got := make(chan *dynfilter.Summary, 1)
	task := createTask(t, &testRegistry{conn: loadTestTable(1)}, WorkerConfig{Threads: 1}, buildScanFragment("mem"), nil,
		FilterRelay{IDs: []int{7}, Publish: func(ids []int, sums []*dynfilter.Summary) {
			if len(ids) == 1 && ids[0] == 7 && len(sums) == 1 {
				got <- sums[0]
			} else {
				t.Errorf("publisher got ids %v, %d summaries", ids, len(sums))
				got <- nil
			}
		}})
	task.publishFilters([]int{7}, nil)
	select {
	case s := <-got:
		if s == nil || !s.Disabled {
			t.Errorf("publisher received %+v, want a Disabled summary", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publication never reached the publisher")
	}
	if s := task.PublishedFilters()[7]; s == nil || !s.Disabled {
		t.Errorf("PublishedFilters()[7] = %+v, want a Disabled summary", s)
	}
}

// rowPages is a source of left one-row pages.
type rowPages struct{ left int }

func (s *rowPages) NeedsInput() bool             { return false }
func (s *rowPages) AddInput(p *block.Page) error { return nil }
func (s *rowPages) Finish()                      { s.left = 0 }
func (s *rowPages) IsFinished() bool             { return s.left == 0 }
func (s *rowPages) IsBlocked() bool              { return false }
func (s *rowPages) Close() error                 { return nil }
func (s *rowPages) Output() (*block.Page, error) {
	if s.left == 0 {
		return nil, nil
	}
	s.left--
	return block.NewPage(block.NewLongBlock([]int64{int64(s.left)}, nil)), nil
}

// panicOnSecondPage passes its first page through and panics on the next.
type panicOnSecondPage struct {
	passthrough
	pages int
}

func (o *panicOnSecondPage) AddInput(p *block.Page) error {
	if o.pages++; o.pages == 2 {
		var cols []block.Block
		_ = cols[p.RowCount()] // index out of range
	}
	return o.passthrough.AddInput(p)
}

// TestDriverRecoversOperatorPanic: an operator that panics on its second page
// fails its own driver, with the panic and its stack as the error, while
// another query's driver shares the one executor thread; that driver, and one
// enqueued afterwards, run to completion on the same thread.
func TestDriverRecoversOperatorPanic(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: 50 * time.Microsecond})
	defer e.Close()
	onePagePerRow := func(rows int) operators.Operator { return &rowPages{left: rows} }
	results := make(chan error, 3)
	healthy := &passthrough{}
	e.Enqueue(NewDriver([]operators.Operator{onePagePerRow(500), healthy}), NewTaskHandle("healthy"), func(err error) { results <- err })
	bad := NewDriver([]operators.Operator{onePagePerRow(5), &panicOnSecondPage{}})
	e.Enqueue(bad, NewTaskHandle("panics"), func(err error) {
		if err == nil || !strings.Contains(err.Error(), "index out of range") ||
			!strings.Contains(err.Error(), "panicOnSecondPage).AddInput") {
			t.Errorf("the panicking driver reported %v, want the panic and its stack", err)
		}
		results <- nil
	})
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("the healthy query failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a driver never finished: the executor thread died with the panic")
		}
	}
	if healthy.rows != 500 || !bad.Finished() {
		t.Errorf("healthy driver moved %d rows of 500; panicking driver finished=%v", healthy.rows, bad.Finished())
	}
	after := &passthrough{}
	e.Enqueue(NewDriver([]operators.Operator{onePagePerRow(3), after}), NewTaskHandle("after"), func(err error) { results <- err })
	select {
	case err := <-results:
		if err != nil || after.rows != 3 {
			t.Errorf("a driver enqueued after the panic: err %v, %d rows of 3", err, after.rows)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the executor runs nothing after the panic")
	}
}
