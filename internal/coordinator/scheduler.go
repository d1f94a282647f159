package coordinator

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
	"repro/internal/wire"
)

// The scheduler (paper §III, §IV-D) is one algorithm — stage placement, lazy
// split enumeration, lightest-task assignment, task monitoring — that does
// not care how a worker is reached. The unit it talks to is the worker: it
// decides where every task of a statement goes, hands each worker its share
// in one CreateTasks call, and from then on addresses the group that call
// returned — flush the splits, deliver this filter, what went wrong, stop.
// There are two implementations: localclient.go calls *exec.Worker /
// *exec.Task directly (a group is a loop over tasks), httpclient.go speaks
// the task API (a group is three requests and a status channel). The
// scheduler never sees net/http, and passes a fragment's wire form through
// without reading it; a client never picks a worker.

// workerClient places tasks on one worker.
type workerClient interface {
	// NodeID is the worker's cluster node id (split locality, rack lookup).
	NodeID() int
	// Remote reports whether talking to the worker waits on a network, which
	// is when a walk over the statement's workers is worth overlapping (see
	// eachWorker). A statement's workers are all of one kind.
	Remote() bool
	// CreateTasks instantiates every task of one statement placed on this
	// worker, in spec order (producers before their consumers), each with the
	// splits already in hand. Workers are called concurrently, so a consumer
	// may exist before a producer that runs elsewhere. On error nothing of
	// the batch is left running.
	CreateTasks(specs []*taskSpec) (taskGroup, error)
}

// taskSpec is one task of a statement from the moment the scheduler decided
// where it runs: everything its worker needs to instantiate it, and — once
// every worker's CreateTasks has returned — the client that drives it.
type taskSpec struct {
	ID exec.TaskID
	// Worker is where the task runs. With ID it is all a consumer in another
	// process needs of a producer, and both are known before either exists.
	Worker   workerClient
	Fragment *plan.Fragment
	// Run is what every task of the fragment runs with.
	Run           *fragmentRun
	OutPartitions int
	// Sources lists, per producing fragment id, the producer tasks; this
	// task reads output partition ID.Index of each.
	Sources map[int][]*taskSpec
	// Splits, by scan id, are the splits whose enumeration was in hand when
	// the task was placed; NoMore marks the scans they complete.
	Splits [][]connector.Split
	NoMore []bool
	// Config is the statement's one task configuration, shared and read-only.
	Config *exec.TaskConfig
	// Mem is the query's memory context on this coordinator (in-process
	// tasks charge it; a remote worker keeps its own).
	Mem *memory.QueryContext
	// Publish receives the summaries this task's join builds complete for
	// the filter ids in Relay, those another fragment subscribes to (nil when
	// the fragment publishes none): the task's own scans take its summaries
	// themselves (exec.FilterRelay).
	Publish func(ids []int, sums []*dynfilter.Summary)
	Relay   []int

	on int // Worker's index in the statement's worker list
	// created is the statement's: closed once every task's client is final —
	// nil where the create failed.
	created <-chan struct{}
	client  taskClient
}

// workerShare is one worker's part of a statement while it is scheduled.
type workerShare struct {
	specs []*taskSpec // the tasks placed on the worker, in fragment-id order
	group taskGroup   // what CreateTasks returned
	err   error       // why it did not
}

// taskGroup drives the tasks one CreateTasks call placed: what the scheduler
// says to a worker about a statement.
type taskGroup interface {
	// Tasks are the group's clients, in spec order.
	Tasks() []taskClient
	// Flush delivers the splits and end-of-enumeration marks queued on the
	// group's tasks since the last flush.
	Flush() error
	// DeliverFilter hands a completed union to the group's tasks of the
	// subscribed fragments. Best-effort: a failed delivery degrades those
	// tasks' scans to unfiltered, never fails the query.
	DeliverFilter(f *unionFilter, fragments []int)
	// Monitor calls fail with every task failure as it becomes known (paper
	// §III: the coordinator monitors task health). Called once.
	Monitor(fail func(error))
	// Wait returns a failure among the group's tasks, if any. Called when a
	// consumer has seen end-of-stream: in-process tasks are awaited; a remote
	// worker is asked at most once, and a task still running by then counts
	// as clean.
	Wait() error
	// Abort cancels the tasks and drops their output; Close ends the
	// coordinator's interest in them once the query is over, without
	// disturbing a finished task's results while they are read. Either
	// releases what the group holds outside this process, exactly once.
	Abort()
	Close()
}

// taskClient drives one placed task.
type taskClient interface {
	// AddSplit queues a split for scan scanID; NoMoreSplits ends the scan's
	// enumeration. A client may hold deliveries back until its group's Flush.
	AddSplit(scanID int, s connector.Split) error
	NoMoreSplits(scanID int) error
	// Output reads one partition of the task's output.
	Output(part int) shuffle.Fetcher
	// Done closes once the task is known finished, failed or aborted.
	Done() <-chan struct{}
	// Tally takes the task's tally. A remote task reports its CPU time only,
	// and only once it has ended: its operators' counters stay with its
	// worker.
	Tally() exec.TaskTally
}

// eachWorker runs fn(0..n-1), one call per worker of a statement, and returns
// when all have: every walk over workers that may do network I/O goes through
// it. Calls to remote workers overlap; calls to workers in this process are
// made in turn, because each is a few method calls and handing one to another
// goroutine costs more than making it (a point read paid +17 % for three
// overlapped walks).
func eachWorker(n int, remote bool, fn func(i int)) {
	if !remote {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	if n > 0 {
		fn(n - 1)
	}
	wg.Wait()
}

// workerClients snapshots the workers queries schedule onto: the in-process
// workers while any are alive, otherwise whatever the registry reports.
func (c *Coordinator) workerClients() ([]workerClient, error) {
	if local := c.aliveWorkers(); len(local) > 0 {
		ws := make([]workerClient, len(local))
		for i, w := range local {
			ws[i] = localWorker{c: c, w: w}
		}
		return ws, nil
	}
	if c.cfg.Registry != nil {
		if ws := c.httpWorkers(); len(ws) > 0 {
			return ws, nil
		}
	}
	return nil, fmt.Errorf("cluster has no workers")
}

// fragmentRun is what every task of a statement's fragment runs with: the
// fragment's wire form, which the HTTP client sends and a worker keys its
// compiled form of the fragment by (nil: none, each task compiles its own);
// and the statement's literals, which the tasks read as parameters and bind
// their scans' constraints to (none: the fragment's own).
type fragmentRun struct {
	Form   *wire.Form
	Values []types.Value
}

// statementPlan is what a statement runs: its fragments, their wire forms (by
// fragment id; nil: none) and its literals, with what binds its scans'
// constraints to them.
type statementPlan struct {
	dp    *plan.DistributedPlan
	forms []wire.Form
	binds *scanBinder
}

// schedule places tasks for every fragment of the distributed plan on a
// snapshot of the alive workers (elastic scale-out/in replaces the list
// concurrently; paper §IV-D2). Where every stage's tasks go is decided first
// (placeStages): a leaf (source) stage gets a task on every worker, since most
// CPU goes to decompressing/decoding/filtering connector data and running
// leaves everywhere yields the shortest wall time — but when its splits are
// all in hand, only on the workers they reach; intermediate stages get one
// task per worker; single stages, a small statement's one fragment among
// them, get one task on the next worker of the coordinator's rotation. A
// scan whose connector hands over its enumeration as a list in memory is
// assigned from the stage's ledger before anything is created, and its splits
// travel with the tasks; every other scan is enumerated lazily once they
// exist (§IV-D3), each split going to the eligible task the ledger says is
// lightest.
func (c *Coordinator) schedule(workers []workerClient, q *Query, sp statementPlan) (*Result, error) {
	dp := sp.dp
	if sp.binds == nil {
		sp.binds = &scanBinder{}
	}
	nWorkers, remote := len(workers), workers[0].Remote()

	cfg := c.cfg.Task
	q.session.apply(&cfg)

	stages, err := c.placeStages(q, sp, workers)
	if err != nil {
		return nil, err
	}
	counts, outParts := taskCounts(dp, stages)
	cfg.StageTasks = counts

	// Dynamic-filter exchange: build-side summaries published by any task
	// route through a per-query hub that merges partitioned builds and fans
	// the union out to the subscribed scans' tasks (see filterHub). Whether
	// there are any was decided at planning.
	hub := newFilterHub(dp, counts)

	// Placement is whole before any worker hears of the statement: a
	// producer's address is a function of its id, so every worker's share —
	// fragments, wiring, the splits in hand — is one batch, in fragment-id
	// order: the fragmenter numbers producers before consumers.
	placed := make([][]*taskSpec, len(dp.Fragments))
	per := make([]workerShare, nWorkers)
	created := make(chan struct{})
	injected := false
	var lazy []func() error // the enumerations not in hand, from their sources
	total := 0
	for _, f := range dp.Fragments {
		st := &stages[f.ID]
		stage := make([]taskSpec, len(st.on))
		placed[f.ID] = make([]*taskSpec, len(stage))
		total += len(stage)
		sources := map[int][]*taskSpec{}
		plan.Walk(f.Root, func(n plan.Node) {
			if rs, ok := n.(*plan.RemoteSource); ok {
				for _, pid := range rs.SourceFragments {
					sources[pid] = placed[pid]
				}
			}
		})
		var publish func(ids []int, sums []*dynfilter.Summary)
		var relay []int
		if hub != nil {
			if relayed, publishes := hub.relayed(f.ID); publishes {
				publish, relay = hub.publish, relayed
			}
		}
		run := &fragmentRun{Values: sp.binds.vals}
		if sp.forms != nil {
			run.Form = &sp.forms[f.ID]
		}
		for i, wi := range st.on {
			stage[i] = taskSpec{
				ID:     exec.TaskID{QueryID: q.Info.ID, Fragment: f.ID, Index: i},
				Worker: workers[wi], Fragment: f, Run: run, OutPartitions: outParts[f.ID], Sources: sources,
				Splits: st.splits[i], NoMore: st.noMore,
				Config: &cfg, Mem: q.qmem, Publish: publish, Relay: relay,
				on: wi, created: created,
			}
			placed[f.ID][i] = &stage[i]
		}
		for scanID, src := range st.sources {
			if src != nil {
				lazy = append(lazy, func() error { return c.enumerateSplits(q, st.ledger, scanID, src) })
			}
		}
		for _, spec := range placed[f.ID] {
			share := &per[spec.on]
			share.specs = append(share.specs, spec)
			// The fault-injection hook stands where a real deployment would
			// see an RPC failure: the first fault fails its worker's batch.
			if !injected {
				if err := c.cfg.FaultInject.Err(faultinject.SiteTaskCreate); err != nil {
					injected, share.err = true, fmt.Errorf("task %s: %w", spec.ID, err)
				}
			}
		}
	}

	// One create per worker, all workers at once. A failed batch must not
	// strand what the other workers created — tasks hold executor drivers and
	// memory reservations — so every group is aborted and drained before the
	// error propagates.
	eachWorker(nWorkers, remote, func(wi int) {
		share := &per[wi]
		if share.err != nil || len(share.specs) == 0 {
			return
		}
		if share.group, share.err = workers[wi].CreateTasks(share.specs); share.err != nil {
			share.group = nil
			return
		}
		for k, t := range share.group.Tasks() {
			share.specs[k].client = t
		}
	})
	close(created)
	live := make([]taskGroup, 0, nWorkers)
	var failed error
	for wi, share := range per {
		if share.err != nil && failed == nil {
			failed = fmt.Errorf("creating tasks on worker %d: %w", workers[wi].NodeID(), share.err)
		} else if share.group != nil {
			live = append(live, share.group)
		}
	}
	if failed != nil {
		hub.deliverTo(nil)
		abortAndDrain(live, remote)
		closeSources(stages)
		return nil, failed
	}
	tasks := make([]taskClient, 0, total)
	for fid, ps := range placed {
		for _, p := range ps {
			tasks = append(tasks, p.client)
		}
		stages[fid].ledger.tasks = tasks[len(tasks)-len(ps):]
	}
	q.mu.Lock()
	q.tasks, q.groups, q.remote = tasks, live, remote
	q.mu.Unlock()
	hub.deliverTo(live)

	root := dp.Root()
	res := &Result{Columns: outputNames(root), buf: placed[root.ID][0].client.Output(0)}
	var failOnce sync.Once
	fail := func(err error) {
		res.setFailure(err)
		failOnce.Do(q.abort)
	}
	// Failure monitor (paper §III: the coordinator monitors task health and
	// fails queries whose tasks die): the first task error cancels the query.
	for _, g := range live {
		g.Monitor(fail)
	}
	// The monitor publishes failures asynchronously; a consumer that sees
	// the output stream complete (a failed task destroys its buffer, which
	// looks like end-of-stream) re-checks every worker's verdict here before
	// declaring success. At that point the tasks are finished or aborting,
	// so the waits are short.
	res.waitDone = func() error {
		verdicts := make([]error, len(live))
		eachWorker(len(live), remote, func(i int) { verdicts[i] = live[i].Wait() })
		return firstError(verdicts)
	}

	// Lazy split scheduling (§IV-D3): one enumerator per scan that was not in
	// hand; a failed enumeration fails the query.
	for _, enumerate := range lazy {
		go func() {
			if err := enumerate(); err != nil {
				fail(err)
			}
		}()
	}
	return res, nil
}

// firstError returns the first failure of a walk over workers, nil when none.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stagePlacement is where one stage's tasks go, decided for every stage of a
// statement before any task is placed.
type stagePlacement struct {
	on     []int // worker index by task index
	ledger *stageLedger
	// splits are, by task and scan (exec.ScanOrder), the splits in hand;
	// noMore marks, by scan, the scans they complete.
	splits [][][]connector.Split
	noMore []bool
	// sources are, by scan, the enumerations to run once the tasks exist:
	// nil for a scan whose splits are in hand.
	sources []connector.SplitSource
}

// placeStages decides every stage's tasks: a single stage one task, on the
// next worker of the coordinator's rotation (singleRR); any other one task
// per worker. It opens every scan's split source, bound to the statement's
// literals; a source that is a list in memory (connector.Listed) is assigned
// from the stage's ledger here, so a statement over the same tables is placed
// the same way every time. A leaf stage that holds every scan's splits keeps
// only the tasks a split went to, and at least one: a task with no split
// would read nothing, yet cost a create, an output buffer and its consumer's
// fetches.
func (c *Coordinator) placeStages(q *Query, sp statementPlan, workers []workerClient) ([]stagePlacement, error) {
	nWorkers := len(workers)
	stages := make([]stagePlacement, len(sp.dp.Fragments))
	for _, f := range sp.dp.Fragments {
		st := &stages[f.ID]
		kind := partitioningOf(f, sp.dp)
		if kind == plan.PartitionSingle {
			st.on = []int{int((c.singleRR.Add(1) - 1) % uint64(nWorkers))}
		} else {
			st.on = make([]int, nWorkers)
			for i := range st.on {
				st.on[i] = i // task i on worker i
			}
		}
		st.ledger = newStageLedger(len(st.on), c.cfg.Topology)
		for i, wi := range st.on {
			st.ledger.placed(i, workers[wi])
		}
		scans := exec.ScanOrder(f.Root)
		st.noMore = make([]bool, len(scans))
		st.sources = make([]connector.SplitSource, len(scans))
		st.splits = make([][][]connector.Split, len(st.on))
		for i := range st.splits {
			st.splits[i] = make([][]connector.Split, len(scans))
		}
		inHand := len(scans) > 0
		for scanID, sc := range scans {
			src, err := c.openSplitSource(sp.binds, sc)
			if err != nil {
				closeSources(stages)
				return nil, err
			}
			splits, ok := connector.Listed(src)
			if !ok {
				inHand = false
				st.sources[scanID] = src
				continue
			}
			src.Close()
			for _, s := range splits {
				i := st.ledger.pick(s)
				st.splits[i][scanID] = append(st.splits[i][scanID], s)
			}
			q.splitsTotal.Add(int64(len(splits)))
			st.noMore[scanID] = true
		}
		if inHand && kind == plan.PartitionSource {
			st.dropSplitless()
		}
	}
	return stages, nil
}

// closeSources closes every enumeration placement opened that no enumerator
// has taken over.
func closeSources(stages []stagePlacement) {
	for _, st := range stages {
		for _, src := range st.sources {
			if src != nil {
				src.Close()
			}
		}
	}
}

// dropSplitless keeps the tasks at least one split went to, and task 0 when
// none did.
func (st *stagePlacement) dropSplitless() {
	var kept []int
	for i, byScan := range st.splits {
		if slices.ContainsFunc(byScan, func(ss []connector.Split) bool { return len(ss) > 0 }) {
			kept = append(kept, i)
		}
	}
	if len(kept) == len(st.on) {
		return
	}
	if len(kept) == 0 {
		kept = []int{0}
	}
	on := make([]int, len(kept))
	splits := make([][][]connector.Split, len(kept))
	for k, i := range kept {
		on[k], splits[k] = st.on[i], st.splits[i]
	}
	st.on, st.splits = on, splits
	st.ledger.keep(kept)
}

// taskCounts returns how many tasks each stage runs, and how many output
// partitions each produces (= the task count of its consumer; the
// coordinator reads the root's single partition).
func taskCounts(dp *plan.DistributedPlan, stages []stagePlacement) (counts, outParts []int) {
	counts = make([]int, len(dp.Fragments))
	for id, st := range stages {
		counts[id] = len(st.on)
	}
	outParts = make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		if f.OutputConsumer < 0 {
			outParts[f.ID] = 1
		} else {
			outParts[f.ID] = counts[f.OutputConsumer]
		}
	}
	return counts, outParts
}

// abortAndDrain aborts the given groups, remote workers all at once, and waits for
// their tasks to finish, so their drivers have exited and their memory
// reservations are released before the caller fails or re-admits the query.
// The whole drain, not each task, gets ten seconds: a wedged task must not
// block the error path forever.
func abortAndDrain(groups []taskGroup, remote bool) {
	eachWorker(len(groups), remote, func(i int) { groups[i].Abort() })
	wedged := time.After(10 * time.Second)
	for _, g := range groups {
		for _, t := range g.Tasks() {
			select {
			case <-t.Done():
			case <-wedged:
				return
			}
		}
	}
}

// transientRetryLimit bounds inline retries of transient failures at the
// coordinator's I/O seams: split enumeration (metastore hiccups are routine
// in production deployments) and task-API requests.
const transientRetryLimit = 4

// retryTransient runs op until it succeeds, fails with a non-transient
// error, or has failed transientRetryLimit+1 times, backing off 2ms doubling.
// op must be safe to repeat.
func retryTransient(what string, op func() error) error {
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= transientRetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		err := op()
		if err == nil {
			return nil
		}
		if !faultinject.IsTransient(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%s failed after %d attempts: %w", what, transientRetryLimit+1, lastErr)
}

// openSplitSource opens the split enumeration of a scan bound to the
// statement's literals, with bounded retry of transient failures, and threads
// the fault injector into the returned source.
func (c *Coordinator) openSplitSource(binds *scanBinder, sc *plan.Scan) (src connector.SplitSource, err error) {
	scan, err := binds.scan(sc)
	if err != nil {
		return nil, err
	}
	conn, err := c.Catalog.Connector(scan.Handle.Catalog)
	if err != nil {
		return nil, err
	}
	err = retryTransient("split enumeration", func() error {
		if err := c.cfg.FaultInject.Err(faultinject.SiteConnectorSplits); err != nil {
			return err
		}
		src, err = conn.Splits(scan.Handle)
		return err
	})
	if err != nil {
		return nil, err
	}
	return faultinject.WrapSplitSource(c.cfg.FaultInject, src), nil
}

// partitioningOf infers the scheduling class of a fragment (§IV-D2): a small
// statement's one fragment (plan.Fragment.Single) runs one task; other
// fragments containing scans are source-partitioned (leaf stages run on the
// workers their splits reach); fragments fed by hash- or
// round-robin-partitioned producers run one task per worker; fragments fed
// only by gathering (single) or broadcast producers run one task.
func partitioningOf(f *plan.Fragment, dp *plan.DistributedPlan) plan.PartitioningKind {
	if f.Single {
		return plan.PartitionSingle
	}
	hasScan := false
	plan.Walk(f.Root, func(n plan.Node) {
		if _, ok := n.(*plan.Scan); ok {
			hasScan = true
		}
	})
	if hasScan {
		return plan.PartitionSource
	}
	parallel := false
	for _, p := range dp.Fragments {
		if p.OutputConsumer != f.ID {
			continue
		}
		switch p.OutputPartitioning.Kind {
		case plan.PartitionHash, plan.PartitionRoundRobin:
			parallel = true
		}
	}
	if parallel {
		return plan.PartitionHash
	}
	return plan.PartitionSingle
}

func outputNames(f *plan.Fragment) []string {
	if out, ok := f.Root.(*plan.Output); ok {
		return out.Names
	}
	sch := f.Root.Schema()
	names := make([]string, len(sch))
	for i, fd := range sch {
		names[i] = fd.Name
	}
	return names
}

// enumerateSplits pulls split batches from a source placement opened and
// assigns them from the stage's ledger (see stageLedger.pick). It runs once
// the tasks exist, first batch included: a batch pulled at placement would
// put a slow lister in front of every task's creation. The end of the
// enumeration is flushed to every worker at once.
func (c *Coordinator) enumerateSplits(q *Query, stage *stageLedger, scanID int, src connector.SplitSource) error {
	defer src.Close()
	for {
		// The injected wrapper faults before touching enumeration state, so a
		// retried pull observes the same batch.
		var batch connector.SplitBatch
		err := retryTransient("split batch", func() (err error) {
			batch, err = src.NextBatch(c.cfg.SplitBatchSize)
			return err
		})
		if err != nil {
			return err
		}
		for _, s := range batch.Splits {
			q.splitsTotal.Add(1)
			if err := stage.tasks[stage.pick(s)].AddSplit(scanID, s); err != nil {
				return err
			}
		}
		if batch.Done {
			break
		}
	}
	for _, t := range stage.tasks {
		if err := t.NoMoreSplits(scanID); err != nil {
			return err
		}
	}
	q.mu.Lock()
	groups, remote := q.groups, q.remote
	q.mu.Unlock()
	errs := make([]error, len(groups))
	eachWorker(len(errs), remote, func(i int) { errs[i] = groups[i].Flush() })
	return firstError(errs)
}

// stageLedger is the coordinator's own account of one stage's split load
// (§IV-D3): the weight — estimated rows, at least 1 — it has assigned to each
// task, shared by every scan of the stage and their concurrent enumerators.
// Nothing is read back from the workers: every split of a scan is assigned
// before the first finishes, so what a task has outstanding is what it was
// given, and placement is a pure function of the split lists — the same
// statement lands the same way every time.
type stageLedger struct {
	// tasks are what split delivery addresses once they exist; the ledger
	// picks by index from placement on.
	tasks []taskClient
	nodes []int          // worker node id by task index
	racks map[int]string // Config.Topology: node id → rack

	mu       sync.Mutex
	assigned []int64 // weight by task index
}

func newStageLedger(tasks int, racks map[int]string) *stageLedger {
	return &stageLedger{nodes: make([]int, tasks), racks: racks, assigned: make([]int64, tasks)}
}

// placed records the worker task i goes to.
func (l *stageLedger) placed(i int, w workerClient) {
	l.nodes[i] = w.NodeID()
}

// keep narrows the ledger to the tasks at the given indices, in order, with
// what they were charged.
func (l *stageLedger) keep(idx []int) {
	nodes, assigned := make([]int, len(idx)), make([]int64, len(idx))
	for k, i := range idx {
		nodes[k], assigned[k] = l.nodes[i], l.assigned[i]
	}
	l.nodes, l.assigned = nodes, assigned
}

// pick places one split and charges its weight to the chosen task, returning
// the task's index: bucketed splits go to task (bucket mod tasks) so
// co-located tables align; node-local splits go to their owning worker;
// rack-located ones to the lightest task in a preferred rack; everything
// else to the lightest task, the lowest index on a tie.
func (l *stageLedger) pick(s connector.Split) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.chooseLocked(s)
	l.assigned[i] += max(s.EstimatedRows(), 1)
	return i
}

func (l *stageLedger) chooseLocked(s connector.Split) int {
	if b, ok := s.(connector.Bucketed); ok {
		return b.Bucket() % len(l.nodes)
	}
	for _, node := range s.PreferredNodes() {
		if i := slices.Index(l.nodes, node); i >= 0 {
			return i
		}
	}
	// Rack-local placement (§IV-D2): the lightest task whose worker sits in
	// a preferred rack; the whole stage when there is none.
	if rl, ok := s.(connector.RackLocated); ok {
		inRack := l.lightestLocked(func(i int) bool {
			return slices.Contains(rl.PreferredRacks(), l.racks[l.nodes[i]])
		})
		if inRack >= 0 {
			return inRack
		}
	}
	return l.lightestLocked(nil)
}

// lightestLocked returns the least-charged task among those eligible admits
// (nil admits all), the lowest index on a tie; -1 when it admits none.
func (l *stageLedger) lightestLocked(eligible func(i int) bool) int {
	best := -1
	for i, a := range l.assigned {
		if (eligible == nil || eligible(i)) && (best < 0 || a < l.assigned[best]) {
			best = i
		}
	}
	return best
}
