package coordinator

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// Scheduler conformance: the one scheduler driven through fake worker and
// task clients, so what it decides — task counts, worker choice, source
// wiring, split placement, exactly-once delivery, abort-and-drain, a failed
// root failing its reader, filter routing — is asserted without running a
// query. Both real clients sit behind the same two interfaces, so these rules
// hold for in-process and HTTP workers alike.

// fakeCluster records every task the scheduler creates.
type fakeCluster struct {
	mu    sync.Mutex
	tasks []*fakeTask // creation order, which across workers is any order
	calls int         // CreateTasks calls
	// failNode's batch is refused after failAfter of its tasks were created
	// (failNode 0 = never: node ids start at 10).
	failNode, failAfter int
}

type fakeWorker struct {
	cl   *fakeCluster
	node int
}

func (w *fakeWorker) NodeID() int { return w.node }

// Remote: the fakes are walked the way HTTP workers are, all at once.
func (w *fakeWorker) Remote() bool { return true }

// CreateTasks is the in-process loop over fake tasks: a group of them is a
// localGroup, so what the scheduler says to a worker reaches each task.
func (w *fakeWorker) CreateTasks(specs []*taskSpec) (taskGroup, error) {
	w.cl.mu.Lock()
	w.cl.calls++
	w.cl.mu.Unlock()
	g := &localGroup{}
	for i, spec := range specs {
		if w.node == w.cl.failNode && i == w.cl.failAfter {
			abortAndDrain([]taskGroup{g}, false)
			return nil, errors.New("fake: create refused")
		}
		t := &fakeTask{spec: spec, node: w.node, splits: map[int][]connector.Split{},
			noMore: map[int]int{}, filters: map[int]*dynfilter.Summary{}, done: make(chan struct{})}
		w.cl.mu.Lock()
		w.cl.tasks = append(w.cl.tasks, t)
		w.cl.mu.Unlock()
		if err := g.add(t, spec); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (cl *fakeCluster) workers(n int) []workerClient {
	ws := make([]workerClient, n)
	for i := range ws {
		ws[i] = &fakeWorker{cl: cl, node: 10 + i} // node ids differ from indexes on purpose
	}
	return ws
}

// stage returns the tasks of one fragment in task-index order.
func (cl *fakeCluster) stage(fragment int) []*fakeTask {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*fakeTask
	for _, t := range cl.tasks {
		if t.spec.ID.Fragment == fragment {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID.Index < out[j].spec.ID.Index })
	return out
}

type fakeTask struct {
	spec *taskSpec
	node int

	mu       sync.Mutex
	splits   map[int][]connector.Split
	noMore   map[int]int
	filters  map[int]*dynfilter.Summary
	aborted  bool
	closed   bool
	err      error
	done     chan struct{}
	doneOnce sync.Once
}

func (t *fakeTask) AddSplit(scanID int, s connector.Split) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.splits[scanID] = append(t.splits[scanID], s)
	return nil
}

func (t *fakeTask) NoMoreSplits(scanID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noMore[scanID]++
	return nil
}

// Output is an empty stream that ends the way the task does, as a real
// task's buffer does: complete once it finished, failed with its error (a
// TaskFailedError) once it failed or was aborted.
func (t *fakeTask) Output(int) shuffle.Fetcher { return fakeOutput{t} }

type fakeOutput struct{ t *fakeTask }

func (o fakeOutput) Fetch(token, _ int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	select {
	case <-o.t.done:
	case <-time.After(wait):
		return nil, token, false, nil
	}
	if err := o.t.Wait(); err != nil {
		return nil, token, false, &shuffle.TaskFailedError{Err: err}
	}
	return nil, token, true, nil
}

func (t *fakeTask) Done() <-chan struct{} { return t.done }

func (t *fakeTask) Wait() error {
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *fakeTask) finish(err error) {
	t.doneOnce.Do(func() {
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		close(t.done)
	})
}

func (t *fakeTask) DeliverFilter(id int, s *dynfilter.Summary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filters[id] = s
}

// Tally says which stage the task is of and counts one split done, so that a
// rollup can be told from an empty one.
func (t *fakeTask) Tally() exec.TaskTally {
	return exec.TaskTally{ID: t.spec.ID, SplitsDone: 1}
}

func (t *fakeTask) Abort() {
	t.mu.Lock()
	t.aborted = true
	t.mu.Unlock()
	t.finish(errors.New("fake: aborted"))
}

func (t *fakeTask) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// fakeConn plans like a memory catalog but enumerates scripted splits, in
// batches or, when listed, as a list in memory.
type fakeConn struct {
	*memconn.Connector
	splits map[string][]connector.Split // by table
	listed bool
}

// fakeTableRows is what the fake reports for each table: above the
// optimizer's small-plan bounds, so that every plan here stays distributed
// whatever splits are scripted, and below its broadcast threshold.
const fakeTableRows = 1 << 17

func (f *fakeConn) Stats(string) connector.TableStats {
	return connector.TableStats{RowCount: fakeTableRows}
}

func (f *fakeConn) Splits(h plan.TableHandle) (connector.SplitSource, error) {
	if f.listed {
		return connector.ListSplits(f.splits[h.Table]), nil
	}
	return &fakeSplitSource{splits: f.splits[h.Table]}, nil
}

type fakeSplitSource struct{ splits []connector.Split }

func (s *fakeSplitSource) NextBatch(max int) (connector.SplitBatch, error) {
	n := min(max, len(s.splits))
	b := connector.SplitBatch{Splits: s.splits[:n]}
	s.splits = s.splits[n:]
	b.Done = len(s.splits) == 0
	return b, nil
}
func (s *fakeSplitSource) Close() {}

type fakeSplit struct {
	name  string
	nodes []int
	rows  int64 // 0: the connector has no estimate
}

func (s *fakeSplit) Connector() string     { return "memory" }
func (s *fakeSplit) PreferredNodes() []int { return s.nodes }
func (s *fakeSplit) EstimatedRows() int64  { return s.rows }

type bucketSplit struct {
	fakeSplit
	bucket int
}

func (s *bucketSplit) Bucket() int { return s.bucket }

type rackSplit struct {
	fakeSplit
	racks []string
}

func (s *rackSplit) PreferredRacks() []string { return s.racks }

// schedFixture is a coordinator over fake workers with two joinable tables.
type schedFixture struct {
	c    *Coordinator
	conn *fakeConn
	cl   *fakeCluster
}

func newSchedFixture(t *testing.T, cfg Config) *schedFixture {
	t.Helper()
	mem := memconn.New("memory")
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	for _, table := range []string{"big", "small"} {
		if err := mem.CreateTable(table, cols); err != nil {
			t.Fatal(err)
		}
	}
	conn := &fakeConn{Connector: mem, splits: map[string][]connector.Split{}}
	cm := NewCatalogManager()
	cm.Register(conn)
	cfg.DefaultCatalog = "memory"
	cfg.Optimizer = optimizer.DefaultConfig()
	return &schedFixture{c: New(cm, nil, cfg), conn: conn, cl: &fakeCluster{}}
}

// schedule plans sql and runs the scheduler over n fake workers.
func (f *schedFixture) schedule(t *testing.T, sql string, n int) (*plan.DistributedPlan, *Query, *Result, error) {
	t.Helper()
	return f.scheduleSession(t, sql, n, Session{})
}

// scheduleSession is schedule under session s.
func (f *schedFixture) scheduleSession(t *testing.T, sql string, n int, s Session) (*plan.DistributedPlan, *Query, *Result, error) {
	t.Helper()
	_, dp, err := f.c.Plan(sql, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Fragments) < 2 {
		t.Fatalf("%s: planned as %d fragment, want a distributed plan:\n%s", sql, len(dp.Fragments), dp.Format())
	}
	q := &Query{coord: f.c, session: s}
	q.Info.ID = "q1"
	res, err := f.c.schedule(f.cl.workers(n), q, statementPlan{dp: dp})
	return dp, q, res, err
}

// waitFor polls cond (enumerators run on their own goroutines).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scheduleScan schedules a scan of "big" over n fresh fake workers and waits
// for its enumeration to end; it returns the leaf stage's tasks.
func (f *schedFixture) scheduleScan(t *testing.T, n int) ([]*fakeTask, *Query) {
	t.Helper()
	f.cl = &fakeCluster{}
	dp, q, _, err := f.schedule(t, conformanceQueries[0], n)
	if err != nil {
		t.Fatal(err)
	}
	var leaf []*fakeTask
	for _, fr := range dp.Fragments {
		if partitioningOf(fr, dp) == plan.PartitionSource {
			leaf = f.cl.stage(fr.ID)
		}
	}
	waitFor(t, "split enumeration", func() bool {
		for _, task := range leaf {
			task.mu.Lock()
			n := task.noMore[0]
			task.mu.Unlock()
			if n == 0 {
				return false
			}
		}
		return true
	})
	return leaf, q
}

// placeScan is scheduleScan reduced to the task index each split landed on.
func (f *schedFixture) placeScan(t *testing.T, n int) map[string]int {
	t.Helper()
	leaf, q := f.scheduleScan(t, n)
	defer q.abort()
	placed := map[string]int{}
	for i, task := range leaf {
		task.mu.Lock()
		for _, s := range task.splits[0] {
			placed[s.(*fakeSplit).name] = i
		}
		task.mu.Unlock()
	}
	return placed
}

var conformanceQueries = []string{
	"SELECT count(*) FROM big",
	"SELECT k, count(*) FROM big GROUP BY k",
	"SELECT big.k, sum(small.v) FROM big JOIN small ON big.k = small.k GROUP BY big.k",
}

// TestSchedulerPlacementAndWiring: task counts and worker choice per
// partitioning kind, output partitions, and producer→consumer wiring.
func TestSchedulerPlacementAndWiring(t *testing.T) {
	const nWorkers = 3
	seen := map[plan.PartitioningKind]bool{}
	for _, sql := range conformanceQueries {
		f := newSchedFixture(t, Config{})
		dp, q, _, err := f.schedule(t, sql, nWorkers)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		singles := 0
		for _, fr := range dp.Fragments {
			kind := partitioningOf(fr, dp)
			seen[kind] = true
			stage := f.cl.stage(fr.ID)
			want := map[plan.PartitioningKind]int{
				plan.PartitionSingle: 1, plan.PartitionSource: nWorkers, plan.PartitionHash: nWorkers,
			}[kind]
			if len(stage) != want {
				t.Fatalf("%s: fragment %d (kind %v) has %d tasks, want %d", sql, fr.ID, kind, len(stage), want)
			}
			for i, task := range stage {
				if task.spec.ID.Index != i || task.spec.ID.QueryID != "q1" {
					t.Errorf("%s: fragment %d task %d has id %v", sql, fr.ID, i, task.spec.ID)
				}
				wantNode := 10 + i%nWorkers
				if kind == plan.PartitionSingle {
					wantNode = 10 + singles%nWorkers // single stages round-robin across workers
					singles++
				}
				if task.node != wantNode {
					t.Errorf("%s: fragment %d task %d on node %d, want %d", sql, fr.ID, i, task.node, wantNode)
				}
				// Output partitions = the consumer's task count (the
				// coordinator reads the root's one partition).
				wantParts := 1
				if fr.OutputConsumer >= 0 {
					wantParts = len(f.cl.stage(fr.OutputConsumer))
				}
				if task.spec.OutPartitions != wantParts {
					t.Errorf("%s: fragment %d has %d output partitions, want %d", sql, fr.ID, task.spec.OutPartitions, wantParts)
				}
				// Sources: every task of every producing fragment, in order.
				var producers []int
				for _, p := range dp.Fragments {
					if p.OutputConsumer == fr.ID {
						producers = append(producers, p.ID)
					}
				}
				if len(task.spec.Sources) != len(producers) {
					t.Errorf("%s: fragment %d wired to %d source fragments, want %v", sql, fr.ID, len(task.spec.Sources), producers)
				}
				for _, pid := range producers {
					got, want := task.spec.Sources[pid], f.cl.stage(pid)
					if len(got) != len(want) {
						t.Fatalf("%s: fragment %d reads %d tasks of fragment %d, want %d", sql, fr.ID, len(got), pid, len(want))
					}
					for j := range want {
						if got[j].client != taskClient(want[j]) || got[j].ID != want[j].spec.ID || got[j].Worker.NodeID() != want[j].node {
							t.Errorf("%s: fragment %d source %d/%d is not that stage's task %d", sql, fr.ID, pid, j, j)
						}
					}
				}
			}
		}
		if f.cl.calls != nWorkers {
			t.Errorf("%s: %d CreateTasks calls on %d workers, want one each", sql, f.cl.calls, nWorkers)
		}
		q.abort()
	}
	for _, kind := range []plan.PartitioningKind{plan.PartitionSingle, plan.PartitionSource, plan.PartitionHash} {
		if !seen[kind] {
			t.Errorf("conformance queries never produced a %v stage", kind)
		}
	}
}

// TestSingleStagesRotateAcrossStatements: one-task stages take the next
// worker of one rotation for the whole coordinator, so consecutive
// statements — each of whose output stages would otherwise start on the
// first worker — spread over every worker.
func TestSingleStagesRotateAcrossStatements(t *testing.T) {
	const nWorkers = 3
	f := newSchedFixture(t, Config{})
	var nodes []int
	for stmt := 0; stmt < 4; stmt++ {
		f.cl = &fakeCluster{}
		dp, q, _, err := f.schedule(t, conformanceQueries[0], nWorkers)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range dp.Fragments {
			if partitioningOf(fr, dp) == plan.PartitionSingle {
				nodes = append(nodes, f.cl.stage(fr.ID)[0].node)
			}
		}
		q.abort()
	}
	for i, node := range nodes {
		if want := 10 + i%nWorkers; node != want {
			t.Fatalf("single stages placed on nodes %v, want each on the worker after the last one's", nodes)
		}
	}
	if len(nodes) <= nWorkers {
		t.Fatalf("%d single stages over 4 statements, want more than %d", len(nodes), nWorkers)
	}
}

// TestSchedulerHashTaskCount: a hash stage runs one task per worker of the
// alive-worker snapshot at schedule time.
func TestSchedulerHashTaskCount(t *testing.T) {
	for _, workers := range []int{2, 5} {
		f := newSchedFixture(t, Config{})
		dp, q, _, err := f.schedule(t, conformanceQueries[1], workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range dp.Fragments {
			if partitioningOf(fr, dp) == plan.PartitionHash {
				if got := len(f.cl.stage(fr.ID)); got != workers {
					t.Errorf("%d workers: %d hash tasks, want %d", workers, got, workers)
				}
			}
		}
		q.abort()
	}
}

// TestSchedulerSplitDelivery: every split reaches exactly one task exactly
// once, NoMoreSplits arrives once per (task, scan), and bucketed, node-local
// and unconstrained splits land where the placement rules say — enumerated
// in batches once the tasks exist, or listed and assigned at placement.
func TestSchedulerSplitDelivery(t *testing.T) {
	const nWorkers = 3
	f := newSchedFixture(t, Config{SplitBatchSize: 4})
	var all []connector.Split
	for i := 0; i < 7; i++ {
		all = append(all, &bucketSplit{fakeSplit{name: fmt.Sprintf("bucket-%d", i)}, i})
	}
	for i := 0; i < 6; i++ {
		all = append(all, &fakeSplit{name: fmt.Sprintf("local-%d", i), nodes: []int{99, 10 + i%nWorkers}})
	}
	for i := 0; i < 5; i++ {
		all = append(all, &fakeSplit{name: fmt.Sprintf("plain-%d", i)})
	}
	f.conn.splits["big"] = all

	for round := 0; round < 2; round++ { // round 1's splits are in hand at placement
		f.conn.listed = round == 1
		leaf, q := f.scheduleScan(t, nWorkers)
		delivered := map[string]int{}
		placed := map[connector.Split]int{}
		for i, task := range leaf {
			task.mu.Lock()
			for _, s := range task.splits[0] {
				placed[s] = i
			}
			if task.noMore[0] != 1 || len(task.noMore) != 1 {
				t.Errorf("round %d: task %d got NoMoreSplits %v, want once for scan 0", round, i, task.noMore)
			}
			for _, s := range task.splits[0] {
				switch s := s.(type) {
				case *bucketSplit:
					delivered[s.name]++
					if want := s.bucket % nWorkers; i != want {
						t.Errorf("round %d: %s on task %d, want %d", round, s.name, i, want)
					}
				case *fakeSplit:
					delivered[s.name]++
					if len(s.nodes) > 0 && task.node != s.nodes[1] {
						t.Errorf("round %d: %s on node %d, want %d", round, s.name, task.node, s.nodes[1])
					}
				}
			}
			task.mu.Unlock()
		}
		// Replayed in enumeration order, every split counts toward its task
		// and an unconstrained one goes to the lightest so far.
		ledger := make([]int, nWorkers)
		for _, s := range all {
			name := ""
			switch s := s.(type) {
			case *bucketSplit:
				name = s.name
			case *fakeSplit:
				name = s.name
				if lightest := slices.Index(ledger, slices.Min(ledger)); strings.HasPrefix(name, "plain") && placed[s] != lightest {
					t.Errorf("round %d: %s on task %d with the ledger at %v, want the lightest (%d)", round, name, placed[s], ledger, lightest)
				}
			}
			if delivered[name] != 1 {
				t.Errorf("round %d: split %s delivered %d times", round, name, delivered[name])
			}
			ledger[placed[s]]++
		}
		if got := q.splitsTotal.Load(); got != int64(len(all)) {
			t.Errorf("round %d: splitsTotal = %d, want %d", round, got, len(all))
		}
		q.abort()
	}
}

// newTestLedger is a stage of n tasks on nodes 10, 11, ....
func newTestLedger(n int, racks map[int]string) *stageLedger {
	l := newStageLedger(n, racks)
	cl := &fakeCluster{}
	for i := range l.nodes {
		l.placed(i, &fakeWorker{cl: cl, node: 10 + i})
	}
	return l
}

// TestPickTask pins the placement order — bucketed → node-local → rack →
// lightest task — on the ledger of what the scheduler itself has assigned.
func TestPickTask(t *testing.T) {
	plain := func(rows int64) *fakeSplit { return &fakeSplit{rows: rows} }
	place := func(l *stageLedger, weights ...int64) []int64 {
		for _, w := range weights {
			l.pick(plain(w))
		}
		return l.assigned
	}
	if got := place(newTestLedger(2, nil), 5, 5, 5, 5); got[0] != 10 || got[1] != 10 {
		t.Errorf("4 equal splits over 2 tasks weigh %v, want 10 : 10", got)
	}
	if got := place(newTestLedger(2, nil), 8, 1, 1, 1, 1, 1, 1, 1, 1); got[0] != 8 || got[1] != 8 {
		t.Errorf("weights 8,1,1,1,1,1,1,1,1 over 2 tasks weigh %v, want 8 : 8", got)
	}
	// A connector with no estimate still counts one per split.
	if got := place(newTestLedger(2, nil), 0, 0, 0); got[0] != 2 || got[1] != 1 {
		t.Errorf("3 unsized splits over 2 tasks weigh %v, want 2 : 1 (lowest index on a tie)", got)
	}

	l := newTestLedger(3, map[int]string{10: "r0", 11: "r1", 12: "r1"})
	l.assigned = []int64{5, 9, 2}
	if got := l.pick(&bucketSplit{fakeSplit{nodes: []int{12}}, 4}); got != 1 {
		t.Errorf("bucket 4 of 3 tasks on task %d, want 1 (bucketing beats locality)", got)
	}
	if got := l.pick(&fakeSplit{nodes: []int{99, 11}}); got != 1 {
		t.Errorf("node-local split on task %d, want the node-11 task", got)
	}
	if l.assigned[1] != 11 {
		t.Errorf("constrained splits are not charged to the ledger: %v", l.assigned)
	}
	if got := l.pick(&rackSplit{racks: []string{"r0"}}); got != 0 {
		t.Errorf("rack r0 split on task %d, want 0", got)
	}
	if got := l.pick(&rackSplit{racks: []string{"r1"}}); got != 2 {
		t.Errorf("rack r1 split on task %d, want the lighter r1 task (2)", got)
	}
	if got := l.pick(&rackSplit{racks: []string{"r9"}}); got != 2 {
		t.Errorf("unknown-rack split on task %d, want the lightest (2)", got)
	}
}

// TestLedgerSharedByConcurrentEnumerators: two scans of one stage, assigned
// from two goroutines, draw on one ledger, so the stage ends balanced to
// within one split's weight whatever the interleaving.
func TestLedgerSharedByConcurrentEnumerators(t *testing.T) {
	const maxRows = 50
	for rep := 0; rep < 200; rep++ {
		l := newTestLedger(3, nil)
		var wg sync.WaitGroup
		for scan := 0; scan < 2; scan++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					l.pick(&fakeSplit{rows: int64(1 + (7*i+13*scan+rep)%maxRows)})
				}
			}()
		}
		wg.Wait()
		if d := slices.Max(l.assigned) - slices.Min(l.assigned); d > maxRows {
			t.Fatalf("rep %d: ledger %v is %d apart, more than one split's weight (%d)", rep, l.assigned, d, maxRows)
		}
	}
}

// TestSchedulerPlacementIsDeterministic: a scan's split→task map is a
// function of its split list alone — the same every time it is scheduled,
// from the connector or from the memoized enumeration — and balanced.
func TestSchedulerPlacementIsDeterministic(t *testing.T) {
	f := newSchedFixture(t, Config{SplitBatchSize: 3})
	total := int64(0)
	for i := 0; i < 11; i++ {
		rows := int64(100 + 37*i%90)
		total += rows
		f.conn.splits["big"] = append(f.conn.splits["big"], &fakeSplit{name: fmt.Sprintf("s%d", i), rows: rows})
	}
	var first map[string]int
	for rep := 0; rep < 200; rep++ {
		placed := f.placeScan(t, 2)
		if rep == 0 {
			first = placed
			var weight [2]int64
			for _, s := range f.conn.splits["big"] {
				weight[placed[s.(*fakeSplit).name]] += s.EstimatedRows()
			}
			if d := weight[0] - weight[1]; d > 190 || d < -190 {
				t.Errorf("tasks were assigned %v of %d rows, more than one split apart", weight, total)
			}
		} else if fmt.Sprint(placed) != fmt.Sprint(first) {
			t.Fatalf("rep %d placed %v, rep 0 placed %v", rep, placed, first)
		}
	}
}

// TestSchedulerCreateFailureAbortsAndDrains: a create batch that fails on one
// worker, part-way through, aborts and drains what it created and what the
// other workers — called at the same time — created in full.
func TestSchedulerCreateFailureAbortsAndDrains(t *testing.T) {
	f := newSchedFixture(t, Config{})
	f.cl.failNode, f.cl.failAfter = 11, 2
	dp, _, res, err := f.schedule(t, conformanceQueries[2], 3)
	if err == nil || res != nil || !strings.Contains(err.Error(), "create refused") || !strings.Contains(err.Error(), "worker 11") {
		t.Fatalf("schedule = (%v, %v), want worker 11's create failure", res, err)
	}
	placedElsewhere, singles := 0, 0
	for _, fr := range dp.Fragments {
		on := []int{0, 1, 2} // a task per worker: no split is in hand
		if partitioningOf(fr, dp) == plan.PartitionSingle {
			on = []int{singles % 3}
			singles++
		}
		for _, wi := range on {
			if wi != 1 {
				placedElsewhere++
			}
		}
	}
	if len(f.cl.tasks) != placedElsewhere+2 {
		t.Fatalf("%d tasks created, want the other workers' %d and the failing batch's first 2", len(f.cl.tasks), placedElsewhere)
	}
	for i, task := range f.cl.tasks {
		task.mu.Lock()
		if !task.aborted {
			t.Errorf("task %d was not aborted", i)
		}
		task.mu.Unlock()
		select {
		case <-task.done:
		default:
			t.Errorf("task %d was not drained", i)
		}
	}
}

// TestSchedulerFailedTaskFailsItsReader: a stream ends only when its task
// finished. A root task that fails before any other task has ended fails the
// client's read with its own error — not a clean end of stream, and not the
// fetch's wrapping of it; when every task finishes clean, the read ends clean.
func TestSchedulerFailedTaskFailsItsReader(t *testing.T) {
	f := newSchedFixture(t, Config{})
	dp, _, res, err := f.schedule(t, conformanceQueries[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	root := f.cl.stage(dp.Root().ID)
	if len(root) != 1 || len(f.cl.tasks) < 2 {
		t.Fatalf("%d root tasks of %d, want one root among several tasks", len(root), len(f.cl.tasks))
	}
	boom := errors.New("fake: operator blew up")
	root[0].finish(boom)
	p, err := res.NextPage()
	var failed *shuffle.TaskFailedError
	if p != nil || !errors.Is(err, boom) || errors.As(err, &failed) {
		t.Fatalf("NextPage = (%v, %v), want the root task's own failure", p, err)
	}

	// All clean: end of stream is success.
	f = newSchedFixture(t, Config{})
	if _, _, res, err = f.schedule(t, conformanceQueries[1], 2); err != nil {
		t.Fatal(err)
	}
	for _, task := range f.cl.tasks {
		task.finish(nil)
	}
	if p, err := res.NextPage(); p != nil || err != nil {
		t.Fatalf("NextPage = (%v, %v), want a clean end of stream", p, err)
	}
}

// TestSchedulerFailureMonitorAbortsQuery: the first task failure aborts every
// other task without waiting for a consumer to notice.
func TestSchedulerFailureMonitorAbortsQuery(t *testing.T) {
	f := newSchedFixture(t, Config{})
	if _, _, _, err := f.schedule(t, conformanceQueries[1], 2); err != nil {
		t.Fatal(err)
	}
	f.cl.tasks[len(f.cl.tasks)-1].finish(errors.New("fake: died"))
	waitFor(t, "the monitor to abort the other tasks", func() bool {
		for _, task := range f.cl.tasks[:len(f.cl.tasks)-1] {
			task.mu.Lock()
			aborted := task.aborted
			task.mu.Unlock()
			if !aborted {
				return false
			}
		}
		return true
	})
}

// TestSchedulerFilterRouting: join-build tasks, and only they, are handed the
// hub's publish hook; a union completes when every task of the
// publishing fragment has contributed and reaches exactly the fragments whose
// scans subscribe; a publisher with no collector (a Disabled summary) disables the filter
// rather than leaving it pending.
func TestSchedulerFilterRouting(t *testing.T) {
	f := newSchedFixture(t, Config{})
	sql := "SELECT count(*) FROM big JOIN small ON big.k = small.k"
	dp, q, _, err := f.schedule(t, sql, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer q.abort()
	publishers := map[int][]int{}  // fragment → filter ids it publishes
	subscribers := map[int][]int{} // filter id → subscribing fragments
	for _, fr := range dp.Fragments {
		plan.Walk(fr.Root, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.Join:
				for _, df := range n.DynFilters {
					publishers[fr.ID] = append(publishers[fr.ID], df.ID)
				}
			case *plan.Scan:
				for _, df := range n.DynFilters {
					subscribers[df.ID] = append(subscribers[df.ID], fr.ID)
				}
			}
		})
	}
	if len(publishers) == 0 || len(subscribers) == 0 {
		t.Fatalf("plan assigns no dynamic filters:\n%s", dp.Format())
	}
	for _, task := range f.cl.tasks {
		if ids := publishers[task.spec.ID.Fragment]; (task.spec.Publish != nil) != (len(ids) > 0) {
			t.Errorf("task %v: publish hook=%v, publishes filters %v", task.spec.ID, task.spec.Publish != nil, ids)
		}
	}
	received := func(id int) (got []int, sum *dynfilter.Summary) {
		for _, task := range f.cl.tasks {
			task.mu.Lock()
			if s, ok := task.filters[id]; ok {
				got = append(got, task.spec.ID.Fragment)
				sum = s
			}
			task.mu.Unlock()
		}
		sort.Ints(got)
		return got, sum
	}
	for fid, ids := range publishers {
		stage := f.cl.stage(fid)
		for _, id := range ids {
			for i, task := range stage {
				if got, _ := received(id); len(got) > 0 {
					t.Fatalf("filter %d delivered after %d of %d publications", id, i, len(stage))
				}
				s := dynfilter.NewSummary(types.Bigint)
				s.AddLong(int64(100+i), 0)
				if i == len(stage)-1 {
					// What a publisher with no collector sends.
					s = &dynfilter.Summary{Disabled: true}
				}
				task.spec.Publish([]int{id}, []*dynfilter.Summary{s})
			}
			var want []int
			for _, sub := range subscribers[id] {
				for range f.cl.stage(sub) {
					want = append(want, sub)
				}
			}
			sort.Ints(want)
			got, sum := received(id)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("filter %d reached fragments %v, want its subscribers %v", id, got, want)
			}
			if sum == nil || !sum.Disabled {
				t.Errorf("filter %d with a collector-less publisher delivered %+v, want Disabled", id, sum)
			}
		}
	}
}

// TestDisabledDynamicFiltersCreateNoFilterHub: whether a statement has
// dynamic filters is decided once, at planning. With them disabled the plan
// carries none, so the scheduler builds no filter hub and hands no task a
// publish hook; under the default session the same statement gets both. Every
// task's config carries the session's switches.
func TestDisabledDynamicFiltersCreateNoFilterHub(t *testing.T) {
	sql := "SELECT count(*) FROM big JOIN small ON big.k = small.k"
	for _, s := range []Session{{}, {Switches: exec.DisableDynamicFilters}} {
		f := newSchedFixture(t, Config{})
		dp, q, _, err := f.scheduleSession(t, sql, 2, s)
		if err != nil {
			t.Fatal(err)
		}
		filters := 0
		for _, fr := range dp.Fragments {
			plan.Walk(fr.Root, func(n plan.Node) {
				switch n := n.(type) {
				case *plan.Join:
					filters += len(n.DynFilters)
				case *plan.Scan:
					filters += len(n.DynFilters)
				}
			})
		}
		hooks := 0
		for _, task := range f.cl.tasks {
			if task.spec.Publish != nil {
				hooks++
			}
			if task.spec.Config.Switches != s.Switches {
				t.Errorf("%v: task %s runs under %v", s.Switches, task.spec.ID, task.spec.Config.Switches)
			}
		}
		if want := s.Switches == 0; (filters > 0) != want || (hooks > 0) != want {
			t.Errorf("%v: the plan has %d dynamic filters and %d tasks a publish hook; want some of both: %v",
				s.Switches, filters, hooks, want)
		}
		q.abort()
	}
}

// TestFinishedQueryKeepsStatsNotTasks: finish reads every task's stats once,
// closes the groups and drops both, so a finished query pins no operators,
// buffers or plans; QueryStats answers from what finish read, as it did from
// the live tasks.
func TestFinishedQueryKeepsStatsNotTasks(t *testing.T) {
	f := newSchedFixture(t, Config{})
	_, q := f.scheduleScan(t, 2)
	f.c.queries = map[string]*Query{q.Info.ID: q}
	f.cl.mu.Lock()
	tasks := append([]*fakeTask(nil), f.cl.tasks...)
	f.cl.mu.Unlock()
	for _, task := range tasks {
		task.finish(nil)
	}
	live, ok := f.c.QueryStats(q.Info.ID)
	if !ok || live.Tasks != len(tasks) || live.SplitsDone != len(tasks) {
		t.Fatalf("live stats: ok=%v tasks=%d splitsDone=%d, want %d tasks", ok, live.Tasks, live.SplitsDone, len(tasks))
	}

	if got := q.finish(); len(got) != len(tasks) {
		t.Fatalf("finish returned %d task stats, want %d", len(got), len(tasks))
	}
	for _, task := range tasks {
		task.mu.Lock()
		closed := task.closed
		task.mu.Unlock()
		if !closed {
			t.Errorf("task %s was not closed", task.spec.ID)
		}
	}
	q.mu.Lock()
	held := len(q.tasks) + len(q.groups)
	q.mu.Unlock()
	if held != 0 {
		t.Errorf("a finished query still holds %d tasks and groups", held)
	}
	done, _ := f.c.QueryStats(q.Info.ID)
	if done.State != "FINISHED" || done.Tasks != live.Tasks || done.SplitsDone != live.SplitsDone ||
		len(done.Stages) != len(live.Stages) {
		t.Errorf("finished stats %+v differ from the live ones %+v", done, live)
	}
	q.abort() // nothing left to talk to: must not panic
}
