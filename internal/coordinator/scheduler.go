package coordinator

import (
	"fmt"
	"hash/fnv"
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
)

// The scheduler (paper §III, §IV-D) is one algorithm — stage placement, lazy
// split enumeration, lightest-task assignment, task monitoring — that does
// not care how a task is reached. It talks to workers and tasks through the
// two interfaces below. There are two implementations: localclient.go calls
// *exec.Worker / *exec.Task directly, httpclient.go speaks the task API. The
// scheduler never sees net/http or the wire format; a client never picks a
// worker.

// workerClient places tasks on one worker.
type workerClient interface {
	// NodeID is the worker's cluster node id (split locality, rack lookup).
	NodeID() int
	// CachesPages reports whether the worker keeps a page cache: cache
	// affinity has nothing to return to on a stage where none does.
	CachesPages() bool
	CreateTask(spec taskSpec) (taskClient, error)
}

// taskSpec is everything a worker needs to instantiate one task.
type taskSpec struct {
	ID            exec.TaskID
	Fragment      *plan.Fragment
	OutPartitions int
	// Sources lists, per producing fragment id, the producer tasks; this
	// task reads output partition ID.Index of each.
	Sources map[int][]taskClient
	Config  exec.TaskConfig
	// Mem is the query's memory context on this coordinator (in-process
	// tasks charge it; a remote worker keeps its own).
	Mem *memory.QueryContext
	// Publish receives the summaries this task's join builds complete, one
	// per filter id they publish (nil when the fragment has none).
	Publish func(ids []int, sums []*dynfilter.Summary)
}

// taskClient drives one placed task.
type taskClient interface {
	// AddSplit queues a split for scan scanID; NoMoreSplits ends the scan's
	// enumeration. A client may batch deliveries up to NoMoreSplits.
	AddSplit(scanID int, s connector.Split) error
	NoMoreSplits(scanID int) error
	// Output reads one partition of the task's output.
	Output(part int) shuffle.Fetcher
	// Done closes once the task is known finished, failed or aborted.
	Done() <-chan struct{}
	// Wait returns the task's failure, if any. Called when a consumer has
	// seen end-of-stream: an in-process task is awaited; a remote one is
	// asked once, and a task still running by then counts as clean.
	Wait() error
	DeliverFilter(id int, s *dynfilter.Summary)
	// Stats snapshots the task. A remote task reports its CPU time only: its
	// operators' counters stay with its worker.
	Stats() exec.TaskStats
	// Abort cancels the task and drops its output.
	Abort()
	// Close ends the client's interest in the task once the query is over,
	// without disturbing a finished task's results.
	Close()
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

// schedule places tasks for every fragment of the distributed plan on a
// snapshot of the alive workers (elastic scale-out/in replaces the list
// concurrently; paper §IV-D2): leaf (source) stages get a task on every
// worker — since most CPU goes to decompressing/decoding/filtering connector
// data, running leaves everywhere yields the shortest wall time; intermediate
// stages get HashPartitions tasks spread round-robin; single stages get one
// task. Then split enumeration starts lazily (§IV-D3), assigning each split
// to the eligible task the stage's ledger says is lightest.
func (c *Coordinator) schedule(workers []workerClient, q *Query, dp *plan.DistributedPlan) (*Result, error) {
	nWorkers := len(workers)

	cfg := c.cfg.Task
	q.session.apply(&cfg)
	if cfg.MaterializedExchange {
		// Materialized exchange (recoverable shuffles): producers write
		// sealed disk segments that outlive them. A re-placed build task
		// would publish a second time into a hub sized for the first, so
		// recoverable queries trade dynamic filters away.
		cfg.DynamicFiltersDisabled = true
	}

	counts, outParts := taskCounts(dp, nWorkers, c.cfg.HashPartitions)

	// Dynamic-filter exchange: build-side summaries published by any task
	// route through a per-query hub that merges partitioned builds and fans
	// the union out to the subscribed scans' tasks (see filterHub).
	var hub *filterHub
	if !cfg.DynamicFiltersDisabled {
		hub = newFilterHub(dp, counts)
	}

	// Create tasks in fragment-id order: the fragmenter numbers producers
	// before consumers. A mid-stage failure must not strand tasks already
	// created on other workers — they hold executor drivers and memory
	// reservations — so every created task is tracked and aborted (and
	// drained) before the error propagates.
	tasks := make([][]taskClient, len(dp.Fragments))
	ledgers := make([]*stageLedger, len(dp.Fragments))
	var created []taskClient
	singleRR := 0
	for _, f := range dp.Fragments {
		kind := partitioningOf(f, dp)
		tasks[f.ID] = make([]taskClient, counts[f.ID])
		ledgers[f.ID] = newStageLedger(tasks[f.ID], c.cfg.Topology)
		spec := taskSpec{
			Fragment:      f,
			OutPartitions: outParts[f.ID],
			Sources:       map[int][]taskClient{},
			Config:        cfg,
			Mem:           q.qmem,
		}
		plan.Walk(f.Root, func(n plan.Node) {
			if rs, ok := n.(*plan.RemoteSource); ok {
				for _, pid := range rs.SourceFragments {
					spec.Sources[pid] = tasks[pid]
				}
			}
		})
		if hub != nil && hub.publishers[f.ID] {
			spec.Publish = hub.publish
		}
		for i := range tasks[f.ID] {
			w := workers[i%nWorkers] // source stages: task i on worker i
			if kind == plan.PartitionSingle {
				w = workers[singleRR%nWorkers]
				singleRR++
			}
			spec.ID = exec.TaskID{QueryID: q.Info.ID, Fragment: f.ID, Index: i}
			// The fault-injection hook sits in front of the worker call, the
			// seam where a real deployment would see an RPC failure.
			err := c.cfg.FaultInject.Err(faultinject.SiteTaskCreate)
			var t taskClient
			if err == nil {
				t, err = w.CreateTask(spec)
			}
			if err != nil {
				hub.deliverTo(nil)
				abortAndDrain(created)
				return nil, fmt.Errorf("creating task %s: %w", spec.ID, err)
			}
			tasks[f.ID][i] = t
			ledgers[f.ID].placed(i, w)
			created = append(created, t)
			q.mu.Lock()
			q.tasks = append(q.tasks, t)
			q.mu.Unlock()
		}
	}
	hub.deliverTo(tasks)

	// Build the result before starting enumeration so failures propagate.
	root := dp.Root()
	res := &Result{Columns: outputNames(root), buf: tasks[root.ID][0].Output(0)}
	var failOnce sync.Once
	fail := func(err error) {
		res.setFailure(err)
		failOnce.Do(q.abort)
	}

	// Failure monitor (paper §III: the coordinator monitors task health and
	// fails queries whose tasks die): the first task error cancels the query.
	for _, t := range created {
		go func(t taskClient) {
			<-t.Done()
			if err := t.Wait(); err != nil {
				fail(err)
			}
		}(t)
	}
	// The monitor publishes failures asynchronously; a consumer that sees
	// the output stream complete (a failed task destroys its buffer, which
	// looks like end-of-stream) re-checks every task's verdict here before
	// declaring success. At that point the tasks are finished or aborting,
	// so the waits are short.
	res.waitDone = func() error {
		for _, t := range created {
			if err := t.Wait(); err != nil {
				return err
			}
		}
		return nil
	}

	// Split scheduling (§IV-D3): one enumerator per scan of each leaf stage;
	// a failed enumeration fails the query.
	for _, f := range dp.Fragments {
		for scanID, scan := range exec.ScanOrder(f.Root) {
			go func() {
				if err := c.enumerateSplits(q, ledgers[f.ID], scanID, scan); err != nil {
					fail(err)
				}
			}()
		}
	}
	return res, nil
}

// taskCounts decides how many tasks each fragment runs on nWorkers alive
// workers, and how many output partitions each produces (= the task count of
// its consumer; the coordinator reads the root's single partition).
// hashPartitions <= 0 selects one hash task per worker.
func taskCounts(dp *plan.DistributedPlan, nWorkers, hashPartitions int) (counts, outParts []int) {
	if hashPartitions <= 0 {
		hashPartitions = nWorkers
	}
	if hashPartitions > nWorkers*4 {
		hashPartitions = nWorkers * 4
	}
	counts = make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		switch partitioningOf(f, dp) {
		case plan.PartitionSingle:
			counts[f.ID] = 1
		case plan.PartitionSource:
			counts[f.ID] = nWorkers
		default:
			counts[f.ID] = hashPartitions
		}
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

// abortAndDrain aborts the given tasks and waits for each to finish, so
// their drivers have exited and their memory reservations are released
// before the caller fails or re-admits the query.
func abortAndDrain(tasks []taskClient) {
	for _, t := range tasks {
		t.Abort()
	}
	for _, t := range tasks {
		select {
		case <-t.Done():
		case <-time.After(10 * time.Second):
			return // a wedged task; don't block the error path forever
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

// openSplitSource opens split enumeration with bounded retry of transient
// failures, and threads the fault injector into the returned source.
func (c *Coordinator) openSplitSource(conn connector.Connector, scan *plan.Scan) (src connector.SplitSource, err error) {
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

// partitioningOf infers the scheduling class of a fragment (§IV-D2):
// fragments containing scans are source-partitioned (leaf stages run on
// every worker); fragments fed by hash- or round-robin-partitioned producers
// run HashPartitions tasks; fragments fed only by gathering (single) or
// broadcast producers run one task.
func partitioningOf(f *plan.Fragment, dp *plan.DistributedPlan) plan.PartitioningKind {
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

// enumerateSplits lazily pulls split batches from the connector and assigns
// them from the stage's ledger (see stageLedger.pick). Complete enumerations
// are memoized in the coordinator metadata cache keyed by the table handle
// (layout and pushed-down constraint included), so repeated scans of an
// unchanged table skip the connector round-trips entirely.
func (c *Coordinator) enumerateSplits(q *Query, stage *stageLedger, scanID int, scan *plan.Scan) error {
	affinity := c.affinityFn(q, stage, scan)
	assign := func(splits []connector.Split) error {
		for _, s := range splits {
			t := stage.tasks[stage.pick(s, affinity(s))]
			q.splitsTotal.Add(1)
			if err := t.AddSplit(scanID, s); err != nil {
				return err
			}
		}
		return nil
	}
	noMore := func() error {
		for _, t := range stage.tasks {
			if err := t.NoMoreSplits(scanID); err != nil {
				return err
			}
		}
		return nil
	}

	cacheKey := ""
	if c.meta != nil && !q.session.DisableCache {
		// Handle.String() leads with catalog.table, so write invalidation by
		// table-name prefix clears every layout/constraint variant at once.
		// The table's version, read before enumerating, is part of the key:
		// a write's invalidation and a reader re-filling the cache are not
		// ordered, so without it a reader that enumerated before the write
		// could leave the old row ranges for one that runs after it.
		// Unversioned connectors read 0 and stay TTL-bounded.
		cacheKey = fmt.Sprintf("splits/%s@%d", scan.Handle.String(),
			c.Catalog.TableVersion(scan.Handle.Catalog, scan.Handle.Table))
		if v, ok := c.meta.Get(cacheKey); ok {
			if err := assign(v.([]connector.Split)); err != nil {
				return err
			}
			return noMore()
		}
	}

	conn, err := c.Catalog.Connector(scan.Handle.Catalog)
	if err != nil {
		return err
	}
	src, err := c.openSplitSource(conn, scan)
	if err != nil {
		return err
	}
	defer src.Close()

	var collected []connector.Split
	for {
		// The injected wrapper faults before touching enumeration state, so a
		// retried pull observes the same batch.
		var batch connector.SplitBatch
		err := retryTransient("split batch", func() (err error) {
			batch, err = src.NextBatch(c.cfg.SplitBatchSize)
			return err
		})
		if err == nil {
			err = assign(batch.Splits)
		}
		if err != nil {
			return err
		}
		if cacheKey != "" {
			collected = append(collected, batch.Splits...)
		}
		if batch.Done {
			break
		}
	}
	// Only clean, complete enumerations are admitted to the cache.
	if cacheKey != "" {
		c.meta.Put(cacheKey, collected)
	}
	return noMore()
}

// stageLedger is the coordinator's own account of one stage's split load
// (§IV-D3): the weight — estimated rows, at least 1 — it has assigned to each
// task, shared by every scan of the stage and their concurrent enumerators.
// Nothing is read back from the workers: every split of a scan is assigned
// before the first finishes, so what a task has outstanding is what it was
// given, and placement is a pure function of the split lists — the same
// statement lands the same way every time, which is what brings a repeated
// scan back to the worker whose page cache holds it.
type stageLedger struct {
	tasks  []taskClient
	nodes  []int          // worker node id by task index
	racks  map[int]string // Config.Topology: node id → rack
	cached bool           // some worker of the stage keeps a page cache

	mu       sync.Mutex
	assigned []int64 // weight by task index
}

func newStageLedger(tasks []taskClient, racks map[int]string) *stageLedger {
	return &stageLedger{tasks: tasks, nodes: make([]int, len(tasks)), racks: racks,
		assigned: make([]int64, len(tasks))}
}

// placed records the worker task i was created on.
func (l *stageLedger) placed(i int, w workerClient) {
	l.nodes[i] = w.NodeID()
	l.cached = l.cached || w.CachesPages()
}

// pick places one split and charges its weight to the chosen task, returning
// the task's index: bucketed splits go to task (bucket mod tasks) so
// co-located tables align; node-local splits go to their owning worker;
// rack-located ones to the lightest task in a preferred rack; a split with a
// cache-affinity key to the task the key hashes to while that costs no more
// than affinitySlack splits of its own weight in imbalance; everything else
// to the lightest task, the lowest index on a tie.
func (l *stageLedger) pick(s connector.Split, affinity string) int {
	w := max(s.EstimatedRows(), 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.chooseLocked(s, affinity, w)
	l.assigned[i] += w
	return i
}

func (l *stageLedger) chooseLocked(s connector.Split, affinity string, w int64) int {
	if b, ok := s.(connector.Bucketed); ok {
		return b.Bucket() % len(l.tasks)
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
	lightest := l.lightestLocked(nil)
	// Soft cache affinity (§IV-D3): cache hits are worth a short wait, not
	// a hotspot.
	if affinity != "" {
		pref := int(affinityHash(affinity) % uint32(len(l.tasks)))
		if l.assigned[pref] <= l.assigned[lightest]+affinitySlack*w {
			return pref
		}
	}
	return lightest
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

// affinitySlack is how many splits of its own weight a split's
// affinity-preferred task may be ahead of the lightest before placement
// yields to balance.
const affinitySlack = 8

func affinityHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// affinityFn returns a per-split affinity key function for a scan: the page
// cache key when the connector issues one and a cache of the stage could hold
// the read, "" otherwise — a session that disables caching, workers without a
// page cache, and connectors that are not page-cache clients (resident tables:
// every worker already holds their pages).
func (c *Coordinator) affinityFn(q *Query, stage *stageLedger, scan *plan.Scan) func(connector.Split) string {
	none := func(connector.Split) string { return "" }
	if q.session.DisableCache || !stage.cached {
		return none
	}
	conn, err := c.Catalog.Connector(scan.Handle.Catalog)
	if err != nil {
		return none
	}
	pc, ok := conn.(connector.PageCacheable)
	if !ok {
		return none
	}
	return func(s connector.Split) string {
		key, ok := pc.PageCacheKey(s, scan.Columns, scan.Handle)
		if !ok {
			return ""
		}
		return key
	}
}
