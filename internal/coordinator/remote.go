package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/wire"
)

// remoteTaskRef addresses one task created on a remote worker.
type remoteTaskRef struct {
	id   exec.TaskID
	base string // workerURI + "/v1/task/" + id
}

func (r remoteTaskRef) resultsURI(partition int) string {
	return fmt.Sprintf("%s/results/%d", r.base, partition)
}

// createRetryLimit bounds retried task-create POSTs; creation is idempotent
// on the worker, so a retried POST that raced a successful one is absorbed.
const createRetryLimit = 4

// scheduleRemote is schedule() over registered worker processes
// (paper §III): fragments travel as serialized plans over POST /v1/task,
// splits as encoded batches over POST .../splits, and every inter-stage
// exchange — including the coordinator's read of the root — runs the HTTP
// shuffle protocol. Worker-to-worker fetches go direct: each task is told
// its producers' result URIs, so shuffle traffic never relays through the
// coordinator.
func (c *Coordinator) scheduleRemote(q *Query, dp *plan.DistributedPlan) (*Result, error) {
	workers := c.cfg.Registry.Alive()
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster has no workers")
	}
	nWorkers := len(workers)
	client := c.cfg.WorkerClient
	if client == nil {
		client = http.DefaultClient
	}

	hashParts := c.cfg.HashPartitions
	if hashParts <= 0 {
		hashParts = nWorkers
	}
	counts := make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		switch partitioningOf(f, dp) {
		case plan.PartitionSingle:
			counts[f.ID] = 1
		case plan.PartitionSource:
			counts[f.ID] = nWorkers
		default:
			counts[f.ID] = hashParts
			if counts[f.ID] > nWorkers*4 {
				counts[f.ID] = nWorkers * 4
			}
		}
	}
	outParts := make([]int, len(dp.Fragments))
	for _, f := range dp.Fragments {
		if f.OutputConsumer < 0 {
			outParts[f.ID] = 1
		} else {
			outParts[f.ID] = counts[f.OutputConsumer]
		}
	}

	// Cleanup machinery, registered on the query before the first create so
	// any failure path (including Cancel) releases remote resources exactly
	// once: stop the pollers, close the exchange, delete remote tasks.
	var (
		placed   = make([][]remoteTaskRef, len(dp.Fragments))
		created  []remoteTaskRef
		stopPoll = make(chan struct{})
		ec       *shuffle.ExchangeClient
	)
	q.setRemoteCleanup(func() {
		close(stopPoll)
		if ec != nil {
			ec.Close()
		}
		// Best-effort CPU rollup before the tasks disappear.
		var cpu int64
		for _, rt := range created {
			if st, err := fetchTaskStatus(client, rt); err == nil {
				cpu += st.CPUNanos
			}
		}
		if cpu > 0 {
			q.mu.Lock()
			q.Info.CPUNanos += cpu
			q.mu.Unlock()
		}
		for _, rt := range created {
			req, err := http.NewRequest(http.MethodDelete, rt.base, nil)
			if err != nil {
				continue
			}
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	})
	fail := func(err error) (*Result, error) {
		q.runRemoteCleanup()
		return nil, err
	}

	cfg := c.cfg.Task
	q.session.apply(&cfg)
	if q.session.MaterializedExchange {
		// Remote workers materialize into their own stores; consumers still
		// fetch over HTTP from whichever process holds the sealed segments.
		// Task-level re-placement is an embedded-mode feature — remote
		// recovery remains registry-TTL death plus query re-admission.
		cfg.MaterializedExchange = true
		cfg.DynamicFiltersDisabled = true
	}
	wireCfg := wire.EncodeTaskConfig(cfg)

	singleRR := 0
	for _, f := range dp.Fragments {
		frag, err := wire.MarshalFragment(f)
		if err != nil {
			return fail(fmt.Errorf("serializing fragment %d: %w", f.ID, err))
		}
		n := counts[f.ID]
		placed[f.ID] = make([]remoteTaskRef, n)
		for i := 0; i < n; i++ {
			var w RemoteWorker
			switch partitioningOf(f, dp) {
			case plan.PartitionSource:
				w = workers[i]
			case plan.PartitionSingle:
				w = workers[singleRR%nWorkers]
				singleRR++
			default:
				w = workers[i%nWorkers]
			}
			id := exec.TaskID{QueryID: q.Info.ID, Fragment: f.ID, Index: i}
			// Producers are placed before consumers (fragment-id order), so
			// their result URIs are known here.
			var sources []wire.SourceEntry
			plan.Walk(f.Root, func(n plan.Node) {
				rs, ok := n.(*plan.RemoteSource)
				if !ok {
					return
				}
				for _, pid := range rs.SourceFragments {
					entry := wire.SourceEntry{Fragment: pid}
					for _, pt := range placed[pid] {
						entry.URIs = append(entry.URIs, pt.resultsURI(i))
					}
					sources = append(sources, entry)
				}
			})
			spec := wire.TaskSpec{
				QueryID:       q.Info.ID,
				Fragment:      f.ID,
				Index:         i,
				Frag:          frag,
				OutPartitions: outParts[f.ID],
				Sources:       sources,
				Config:        wireCfg,
			}
			rt := remoteTaskRef{id: id, base: w.URI + "/v1/task/" + id.String()}
			if err := c.createRemoteTask(client, w, spec); err != nil {
				return fail(fmt.Errorf("creating task %s on %s: %w", id, w.URI, err))
			}
			placed[f.ID][i] = rt
			created = append(created, rt)
		}
	}

	// The coordinator is the consumer of the root fragment: partition 0 of
	// its single task, read through the same retrying exchange client the
	// workers use, pumped into a local buffer so Result streams unchanged.
	root := dp.Root()
	rootRef := placed[root.ID][0]
	out := shuffle.NewOutputBuffer(1, c.cfg.Task.OutputBufferBytes)
	res := &Result{Columns: outputNames(root), buf: &shuffle.LocalFetcher{Buf: out.Partition(0)}}
	// Mirror of the embedded scheduler's completion check: when the stream
	// ends, take one final status sweep so a task failure that raced the
	// last fetch is not reported as an empty success.
	res.waitDone = func() error {
		for _, rt := range created {
			st, err := fetchTaskStatus(client, rt)
			if err != nil {
				continue // liveness poller handles persistent unreachability
			}
			if st.State == "failed" {
				err := errors.New(st.Error)
				if st.Transient {
					return &transientTaskError{err}
				}
				return err
			}
		}
		return nil
	}

	fetcher := faultinject.WrapFetcher(c.cfg.FaultInject,
		&shuffle.HTTPFetcher{Client: client, URL: rootRef.resultsURI(0)})
	ec = shuffle.NewExchangeClient([]shuffle.Fetcher{fetcher}, c.cfg.Task.OutputBufferBytes)
	ec.Retry = c.cfg.Task.FetchRetry
	ec.Start()
	go func() {
		for {
			p, ok, done, err := ec.Poll()
			switch {
			case err != nil:
				res.setFailure(err)
				q.abort()
				return
			case ok:
				out.Add(0, p)
			case done:
				out.SetNoMorePages()
				return
			default:
				select {
				case <-stopPoll:
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
	}()

	// Liveness poller (paper §III: the coordinator monitors task health and
	// fails queries whose tasks die). Transient scrape errors are tolerated;
	// a task reporting failure, or a worker unreachable for many consecutive
	// polls, fails the query.
	go c.pollRemoteTasks(client, created, res, q, stopPoll)

	// Dynamic-filter relay: pull published build summaries off the workers,
	// merge per filter id, push the unions to every task of the query.
	if !cfg.DynamicFiltersDisabled {
		if routes := remoteFilterRoutes(dp, placed); len(routes) > 0 {
			go c.relayRemoteFilters(client, routes, created, stopPoll)
		}
	}

	// Split scheduling: leaf fragments enumerate on the coordinator and POST
	// encoded batches to their stage's tasks.
	for _, f := range dp.Fragments {
		stage := placed[f.ID]
		for scanID, scan := range exec.ScanOrder(f.Root) {
			go c.enumerateRemoteSplits(client, q, res, stage, scanID, scan)
		}
	}
	return res, nil
}

// createRemoteTask POSTs one task spec, retrying transport-level failures;
// creation is idempotent by task id so replays are safe. The fault-injection
// site fires per attempt, mirroring the embedded scheduler's createTask seam.
func (c *Coordinator) createRemoteTask(client *http.Client, w RemoteWorker, spec wire.TaskSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= createRetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := c.cfg.FaultInject.Err(faultinject.SiteTaskCreate); err != nil {
			return err
		}
		resp, err := client.Post(w.URI+"/v1/task", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = &shuffle.TransportError{Op: "create task", Err: err}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return fmt.Errorf("create task: status %d: %s", resp.StatusCode, msg)
	}
	return fmt.Errorf("create task failed after %d attempts: %w", createRetryLimit+1, lastErr)
}

func fetchTaskStatus(client *http.Client, rt remoteTaskRef) (wire.TaskStatus, error) {
	resp, err := client.Get(rt.base)
	if err != nil {
		return wire.TaskStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return wire.TaskStatus{}, fmt.Errorf("task status: %d: %s", resp.StatusCode, msg)
	}
	var st wire.TaskStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return wire.TaskStatus{}, err
	}
	return st, nil
}

// statusFailureThreshold is how many consecutive unreachable polls of one
// task mark its worker dead.
const statusFailureThreshold = 40

func (c *Coordinator) pollRemoteTasks(client *http.Client, tasks []remoteTaskRef,
	res *Result, q *Query, stop <-chan struct{}) {

	misses := make([]int, len(tasks))
	finished := make([]bool, len(tasks))
	for {
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
		for i, rt := range tasks {
			if finished[i] {
				continue
			}
			st, err := fetchTaskStatus(client, rt)
			if err != nil {
				misses[i]++
				if misses[i] >= statusFailureThreshold {
					res.setFailure(fmt.Errorf("worker unreachable for task %s: %w", rt.id, err))
					q.abort()
					return
				}
				continue
			}
			misses[i] = 0
			switch st.State {
			case "failed":
				err := errors.New(st.Error)
				if st.Transient {
					res.setFailure(&transientTaskError{err})
				} else {
					res.setFailure(err)
				}
				q.abort()
				return
			case "finished":
				finished[i] = true
			}
		}
	}
}

// transientTaskError re-attaches the transient classification a remote
// task's failure lost crossing the wire as a string.
type transientTaskError struct{ err error }

func (e *transientTaskError) Error() string   { return e.err.Error() }
func (e *transientTaskError) Unwrap() error   { return e.err }
func (e *transientTaskError) Transient() bool { return true }

// enumerateRemoteSplits is enumerateSplits for a remote stage: batches are
// SplitCodec-encoded and POSTed with per-(task,scan) sequence numbers so
// retried deliveries stay exactly-once. Placement mirrors the embedded
// scheduler where it can: bucketed splits pin to (bucket mod tasks); the
// rest go to the task with the fewest splits assigned so far (remote queue
// lengths are not worth a round-trip per split).
func (c *Coordinator) enumerateRemoteSplits(client *http.Client, q *Query, res *Result,
	stage []remoteTaskRef, scanID int, scan *plan.Scan) {

	conn, err := c.Catalog.Connector(scan.Handle.Catalog)
	if err != nil {
		res.setFailure(err)
		q.abort()
		return
	}
	codec, ok := conn.(connector.SplitCodec)
	if !ok {
		res.setFailure(fmt.Errorf("catalog %q does not support distributed scheduling (no split codec)",
			scan.Handle.Catalog))
		q.abort()
		return
	}

	assigned := make([]int64, len(stage))
	seqs := make([]int64, len(stage))
	pending := make([][]wire.SplitData, len(stage))
	flush := func(i int, noMore bool) error {
		if len(pending[i]) == 0 && !noMore {
			return nil
		}
		req := wire.SplitRequest{Scan: scanID, Seq: seqs[i], Splits: pending[i], NoMore: noMore}
		if err := postSplits(client, stage[i], req); err != nil {
			return err
		}
		seqs[i]++
		pending[i] = nil
		return nil
	}
	assign := func(s connector.Split) error {
		i := 0
		if b, ok := s.(connector.Bucketed); ok {
			i = b.Bucket() % len(stage)
		} else {
			for j := range stage {
				if assigned[j] < assigned[i] {
					i = j
				}
			}
		}
		data, err := codec.EncodeSplit(s)
		if err != nil {
			return err
		}
		assigned[i]++
		q.splitsTotal.Add(1)
		pending[i] = append(pending[i], wire.SplitData{Catalog: scan.Handle.Catalog, Data: data})
		if len(pending[i]) >= c.cfg.SplitBatchSize {
			return flush(i, false)
		}
		return nil
	}
	finish := func() error {
		for i := range stage {
			if err := flush(i, true); err != nil {
				return err
			}
		}
		return nil
	}
	failWith := func(err error) {
		res.setFailure(err)
		q.abort()
	}

	// Complete enumerations are memoized exactly like the embedded path, so
	// repeated scans of an unchanged table skip the connector round-trips.
	cacheKey := ""
	if c.meta != nil && !q.session.DisableCache {
		cacheKey = "splits/" + scan.Handle.String()
		if v, ok := c.meta.Get(cacheKey); ok {
			for _, s := range v.([]connector.Split) {
				if err := assign(s); err != nil {
					failWith(err)
					return
				}
			}
			if err := finish(); err != nil {
				failWith(err)
			}
			return
		}
	}

	src, err := c.openSplitSource(conn, scan)
	if err != nil {
		failWith(err)
		return
	}
	defer src.Close()
	var collected []connector.Split
	for {
		batch, err := c.nextBatch(src)
		if err != nil {
			failWith(err)
			return
		}
		for _, s := range batch.Splits {
			if cacheKey != "" {
				collected = append(collected, s)
			}
			if err := assign(s); err != nil {
				failWith(err)
				return
			}
		}
		if batch.Done {
			break
		}
	}
	if cacheKey != "" {
		c.meta.Put(cacheKey, collected)
	}
	if err := finish(); err != nil {
		failWith(err)
	}
}

// postSplits delivers one split batch, retrying transport failures; the
// sequence number makes replays idempotent on the worker.
func postSplits(client *http.Client, rt remoteTaskRef, req wire.SplitRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= createRetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err := client.Post(rt.base+"/splits", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = &shuffle.TransportError{Op: "post splits", Err: err}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return fmt.Errorf("post splits: status %d: %s", resp.StatusCode, msg)
	}
	return fmt.Errorf("post splits failed after %d attempts: %w", createRetryLimit+1, lastErr)
}
