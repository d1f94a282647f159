package coordinator

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/shuffle"
)

// schedule places tasks for every fragment of the distributed plan
// (paper §IV-D2): leaf (source) stages get a task on every worker — since
// most CPU goes to decompressing/decoding/filtering connector data, running
// leaves everywhere yields the shortest wall time; intermediate stages get
// HashPartitions tasks spread round-robin; single stages get one task. Then
// split enumeration starts lazily (§IV-D3), assigning each split to the
// eligible task with the shortest queue.
func (c *Coordinator) schedule(q *Query, dp *plan.DistributedPlan) (*Result, error) {
	// Snapshot the worker list: elastic scale-out/in replaces it concurrently.
	workers := c.aliveWorkers()
	nWorkers := len(workers)
	if nWorkers == 0 {
		if c.cfg.Registry != nil {
			return c.scheduleRemote(q, dp)
		}
		return nil, fmt.Errorf("cluster has no workers")
	}

	// Materialized exchange (recoverable shuffles): producers write sealed
	// disk segments in the coordinator's shared store, consumers fetch by
	// task key rather than through producer task objects, and a per-slot
	// recovery watcher re-places lost tasks onto surviving workers.
	mat := q.session.MaterializedExchange || c.cfg.Task.MaterializedExchange
	var rec *recovery
	if mat {
		rec = newRecovery(c, q)
	}

	// Decide task counts.
	counts := make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		switch partitioningOf(f, dp) {
		case plan.PartitionSingle:
			counts[f.ID] = 1
		case plan.PartitionSource:
			counts[f.ID] = nWorkers
		default:
			counts[f.ID] = c.cfg.HashPartitions
			if counts[f.ID] > nWorkers*4 {
				counts[f.ID] = nWorkers * 4
			}
		}
	}

	// Output partitions of a fragment = task count of its consumer.
	outParts := make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		if f.OutputConsumer < 0 {
			outParts[f.ID] = 1 // coordinator reads the root
		} else {
			outParts[f.ID] = counts[f.OutputConsumer]
		}
	}

	// Create tasks in fragment-id order: the fragmenter numbers producers
	// before consumers. A mid-stage failure must not strand tasks already
	// created on other workers — they hold executor drivers and memory
	// reservations — so every created task is tracked and aborted (and
	// drained) before the error propagates.
	tasks := make([][]*exec.Task, len(dp.Fragments))
	var created []*exec.Task
	singleRR := 0
	for _, f := range dp.Fragments {
		f := f
		n := counts[f.ID]
		tasks[f.ID] = make([]*exec.Task, n)
		for i := 0; i < n; i++ {
			var w *exec.Worker
			switch partitioningOf(f, dp) {
			case plan.PartitionSource:
				w = workers[i]
			case plan.PartitionSingle:
				w = workers[singleRR%nWorkers]
				singleRR++
			default:
				w = workers[i%nWorkers]
			}
			// Wire exchange sources: for every producing fragment, this
			// task reads partition i of every producer task. Materialized
			// mode fetches by store key instead of producer task object, so
			// a re-placed producer needs no consumer re-pointing.
			sources := map[int][]shuffle.Fetcher{}
			plan.Walk(f.Root, func(n plan.Node) {
				rs, ok := n.(*plan.RemoteSource)
				if !ok {
					return
				}
				for _, pid := range rs.SourceFragments {
					for j, pt := range tasks[pid] {
						var fetch shuffle.Fetcher
						if mat {
							key := exec.TaskID{QueryID: q.Info.ID, Fragment: pid, Index: j}.String()
							fetch = &shuffle.StoreFetcher{Store: c.store, Key: key, Part: i}
						} else {
							fetch = &shuffle.LocalFetcher{Buf: pt.Output().Partition(i)}
						}
						sources[pid] = append(sources[pid],
							faultinject.WrapFetcher(c.cfg.FaultInject, fetch))
					}
				}
			})
			cfg := c.cfg.Task
			q.session.apply(&cfg)
			if mat {
				cfg.MaterializedExchange = true
				cfg.Store = c.store
				// Dynamic filters flow through direct task references; a
				// re-placed build task would publish a second time into a
				// hub sized for the first. Recoverable queries trade them
				// away for restart-free worker loss.
				cfg.DynamicFiltersDisabled = true
			}
			id := exec.TaskID{QueryID: q.Info.ID, Fragment: f.ID, Index: i}
			t, err := createTask(c.cfg.FaultInject, w, id, f, q, outParts[f.ID], sources, &cfg)
			if err != nil {
				abortAndDrain(created)
				return nil, fmt.Errorf("creating task %s: %w", id, err)
			}
			tasks[f.ID][i] = t
			created = append(created, t)
			q.mu.Lock()
			q.tasks = append(q.tasks, t)
			q.mu.Unlock()
			if rec != nil {
				cfg, sources, outP := cfg, sources, outParts[f.ID]
				rec.track(id, t, func(w *exec.Worker) (*exec.Task, error) {
					return createTask(c.cfg.FaultInject, w, id, f, q, outP, sources, &cfg)
				})
			}
		}
	}

	// Dynamic-filter exchange: build-side summaries published by any task
	// route through a per-query hub that merges partitioned builds and fans
	// the union out to every task (see filterHub). Installed after creation —
	// a build that completes inside the install window self-delivers, which
	// is safe (its own scans filter; remote siblings stay unfiltered).
	if !q.session.DisableDynamicFilters && !mat {
		if hub := newFilterHub(dp, counts, created); hub != nil {
			for _, t := range created {
				t.SetFilterPublisher(hub.publish)
			}
		}
	}

	// Build the result before starting enumeration so failures propagate.
	root := dp.Root()
	names := outputNames(root)
	var rootFetch shuffle.Fetcher
	if mat {
		// Read the root output through the exchange store: if the root task's
		// worker dies, its re-placed replacement repopulates the same store
		// entry, so the client stream survives the loss.
		key := exec.TaskID{QueryID: q.Info.ID, Fragment: root.ID, Index: 0}.String()
		rootFetch = &shuffle.StoreFetcher{Store: c.store, Key: key, Part: 0}
	} else {
		rootFetch = &shuffle.LocalFetcher{Buf: tasks[root.ID][0].Output().Partition(0)}
	}
	res := &Result{Columns: names, buf: rootFetch}

	if rec != nil {
		// Recovery watchers own failure propagation: worker loss re-places
		// the lost tasks; anything else fails the query through res.
		rec.start(res)
		res.waitDone = rec.waitDone
	} else {
		// Failure monitor: the first task error cancels the query.
		go func() {
			for _, ft := range tasks {
				for _, t := range ft {
					<-t.Done()
					if err := t.Err(); err != nil {
						res.setFailure(err)
						q.abort()
						return
					}
				}
			}
		}()
		// The monitor publishes failures asynchronously; a consumer that sees
		// the output stream complete (a failed task destroys its buffer, which
		// looks like end-of-stream) re-checks every task's verdict here before
		// declaring success. At that point the tasks are finished or aborting,
		// so the waits are short.
		res.waitDone = func() error {
			for _, ft := range tasks {
				for _, t := range ft {
					<-t.Done()
					if err := t.Err(); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}

	// Split scheduling (§IV-D3): one enumerator per scan of each leaf stage.
	for _, f := range dp.Fragments {
		stage := tasks[f.ID]
		scans := stage[0].Scans()
		for scanID := range scans {
			go c.enumerateSplits(q, res, stage, scanID, scans[scanID], workers, rec)
		}
	}
	return res, nil
}

// createTask places one task, with the fault-injection hook in front of the
// worker call (the seam where a real deployment would see an RPC failure).
func createTask(inj *faultinject.Injector, w *exec.Worker, id exec.TaskID, f *plan.Fragment,
	q *Query, outParts int, sources map[int][]shuffle.Fetcher, cfg *exec.TaskConfig) (*exec.Task, error) {
	if err := inj.Err(faultinject.SiteTaskCreate); err != nil {
		return nil, err
	}
	return w.CreateTask(id, f, q.qmem, outParts, sources, cfg)
}

// abortAndDrain aborts the given tasks and waits for each to finish, so
// their drivers have exited and their memory reservations are released
// before the caller fails or re-admits the query.
func abortAndDrain(tasks []*exec.Task) {
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

// splitRetryLimit bounds inline retries of transient split-enumeration
// failures (metastore hiccups are routine in production deployments).
const splitRetryLimit = 4

// openSplitSource opens split enumeration with bounded retry of transient
// failures, and threads the fault injector into the returned source.
func (c *Coordinator) openSplitSource(conn connector.Connector, scan *plan.Scan) (connector.SplitSource, error) {
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= splitRetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		err := c.cfg.FaultInject.Err(faultinject.SiteConnectorSplits)
		if err == nil {
			var src connector.SplitSource
			src, err = conn.Splits(scan.Handle)
			if err == nil {
				return faultinject.WrapSplitSource(c.cfg.FaultInject, src), nil
			}
		}
		if !faultinject.IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("split enumeration failed after %d attempts: %w", splitRetryLimit+1, lastErr)
}

// nextBatch pulls one split batch, retrying transient failures. The injected
// wrapper faults before touching enumeration state, so a retry observes the
// same batch.
func (c *Coordinator) nextBatch(src connector.SplitSource) (connector.SplitBatch, error) {
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= splitRetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		batch, err := src.NextBatch(c.cfg.SplitBatchSize)
		if err == nil {
			return batch, nil
		}
		if !faultinject.IsTransient(err) {
			return connector.SplitBatch{}, err
		}
		lastErr = err
	}
	return connector.SplitBatch{}, fmt.Errorf("split batch failed after %d attempts: %w", splitRetryLimit+1, lastErr)
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
// them: bucketed splits go to task (bucket mod tasks) so co-located tables
// align; node-local splits go to their owning worker; everything else goes
// to the task with the shortest split queue. Complete enumerations are
// memoized in the coordinator metadata cache keyed by the table handle
// (layout and pushed-down constraint included), so repeated scans of an
// unchanged table skip the connector round-trips entirely.
func (c *Coordinator) enumerateSplits(q *Query, res *Result, stage []*exec.Task, scanID int, scan *plan.Scan,
	workers []*exec.Worker, rec *recovery) {

	nodeTask := map[int]*exec.Task{}
	for i, t := range stage {
		nodeTask[workers[i%len(workers)].ID] = t
	}
	affinity := c.affinityFn(q, scan)
	assign := func(s connector.Split) error {
		t := c.pickTask(stage, nodeTask, scanID, s, affinity(s))
		q.splitsTotal.Add(1)
		if rec != nil {
			// Recoverable queries log every split under the recovery lock so
			// a replacement task replays its full input.
			return rec.addSplit(t.ID, scanID, s)
		}
		return t.AddSplit(scanID, s)
	}
	noMore := func() {
		for _, t := range stage {
			if rec != nil {
				rec.noMoreSplits(t.ID, scanID)
			} else {
				t.NoMoreSplits(scanID)
			}
		}
	}

	cacheKey := ""
	if c.meta != nil && !q.session.DisableCache {
		// Handle.String() leads with catalog.table, so write invalidation by
		// table-name prefix clears every layout/constraint variant at once.
		cacheKey = "splits/" + scan.Handle.String()
		if v, ok := c.meta.Get(cacheKey); ok {
			for _, s := range v.([]connector.Split) {
				if err := assign(s); err != nil {
					res.setFailure(err)
					q.abort()
					return
				}
			}
			noMore()
			return
		}
	}

	conn, err := c.Catalog.Connector(scan.Handle.Catalog)
	if err != nil {
		res.setFailure(err)
		q.abort()
		return
	}
	src, err := c.openSplitSource(conn, scan)
	if err != nil {
		res.setFailure(err)
		q.abort()
		return
	}
	defer src.Close()

	var collected []connector.Split
	for {
		batch, err := c.nextBatch(src)
		if err != nil {
			res.setFailure(err)
			q.abort()
			return
		}
		for _, s := range batch.Splits {
			if cacheKey != "" {
				collected = append(collected, s)
			}
			if err := assign(s); err != nil {
				res.setFailure(err)
				q.abort()
				return
			}
		}
		if batch.Done {
			break
		}
	}
	// Only clean, complete enumerations are admitted to the cache.
	if cacheKey != "" {
		c.meta.Put(cacheKey, collected)
	}
	noMore()
}

func (c *Coordinator) pickTask(stage []*exec.Task, nodeTask map[int]*exec.Task, scanID int, s connector.Split, affinity string) *exec.Task {
	if b, ok := s.(connector.Bucketed); ok {
		return stage[b.Bucket()%len(stage)]
	}
	if pref := s.PreferredNodes(); len(pref) > 0 {
		for _, node := range pref {
			if t, ok := nodeTask[node]; ok {
				return t
			}
		}
	}
	// Rack-local placement (§IV-D2): among tasks whose worker sits in a
	// preferred rack, pick the shortest queue; fall back to the whole stage.
	if rl, ok := s.(connector.RackLocated); ok && len(c.cfg.Topology) > 0 {
		prefRacks := map[string]bool{}
		for _, r := range rl.PreferredRacks() {
			prefRacks[r] = true
		}
		var best *exec.Task
		bestLen := 0
		for node, t := range nodeTask {
			if !prefRacks[c.cfg.Topology[node]] {
				continue
			}
			if l := taskLoad(t, scanID); best == nil || l < bestLen {
				best, bestLen = t, l
			}
		}
		if best != nil {
			return best
		}
	}
	best := stage[0]
	bestLen := taskLoad(best, scanID)
	for _, t := range stage[1:] {
		if l := taskLoad(t, scanID); l < bestLen {
			best, bestLen = t, l
		}
	}
	// Soft cache affinity (§IV-D3): cacheable splits hash to a stable
	// preferred task so repeated scans land on the worker already holding
	// their pages. The preference yields only when that worker's split
	// backlog is meaningfully deeper than the stage minimum — cache hits are
	// worth a short wait, not a hotspot. The comparison deliberately uses
	// split-queue depth alone: executor runnable depth swings by whole
	// driver fan-outs in morsel mode, which would make the yield decision a
	// race against driver ramp-up instead of a measure of split backlog.
	if affinity != "" {
		pref := stage[affinityHash(affinity)%uint32(len(stage))]
		minSplits := stage[0].SplitQueueLength(scanID)
		for _, t := range stage[1:] {
			if l := t.SplitQueueLength(scanID); l < minSplits {
				minSplits = l
			}
		}
		if pref.SplitQueueLength(scanID) <= minSplits+affinitySlack {
			return pref
		}
	}
	return best
}

// affinitySlack is how much deeper a split's affinity-preferred worker queue
// may be (vs the stage minimum) before placement falls back to shortest-queue.
const affinitySlack = 8

func affinityHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// affinityFn returns a per-split affinity key function for a scan: the page
// cache key when the connector caches this read (so placement follows cache
// residency), "" otherwise. Sessions that disable caching get no affinity —
// there is nothing resident to return to.
func (c *Coordinator) affinityFn(q *Query, scan *plan.Scan) func(connector.Split) string {
	none := func(connector.Split) string { return "" }
	if q.session.DisableCache {
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

// taskLoad is the shortest-queue placement metric: splits queued for this
// scan plus the runnable-driver depth of the hosting executor. Runnable depth
// (not total queue length) matters — blocked and finished-but-unreaped
// drivers occupy no thread, and counting them steered splits away from
// workers running blocking-heavy plans that actually had idle capacity.
func taskLoad(t *exec.Task, scanID int) int {
	return t.SplitQueueLength(scanID) + t.ExecutorRunnable()
}
