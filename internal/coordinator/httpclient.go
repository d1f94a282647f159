package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/wire"
)

// The HTTP client (paper §III): tasks live on registered worker processes,
// and what the coordinator talks to is the worker, not the task. A statement
// costs each worker one POST /v1/query/{qid}/tasks — every task placed there,
// each fragment serialized once, the splits in hand inside — one status
// long-poll that is answered when something the coordinator acts on happened,
// one POST .../filters per union that has to cross, one POST .../splits per
// batch of a lazy enumeration, and one DELETE /v1/query/{qid}. An
// inter-stage exchange between two workers — and the coordinator's read of
// the root — runs the HTTP shuffle protocol, worker to worker: each task is
// told its remote producers' result URIs, which are a function of their ids,
// so shuffle traffic never relays through the coordinator and a consumer may
// be created before its producer. A producer placed on the consumer's own
// worker is named by its index instead, and read from its output buffer in
// memory: the coordinator placed both, so it is the one that knows. Everything
// net/http and wire.* in the coordinator's scheduling lives in this file.

// httpWorker places tasks on one registered worker process.
type httpWorker struct {
	c      *Coordinator
	client *http.Client
	node   int
	uri    string
}

// httpWorkers wraps the registry's live workers.
func (c *Coordinator) httpWorkers() []workerClient {
	client := c.cfg.WorkerClient
	if client == nil {
		client = shuffle.ClusterClient()
	}
	alive := c.cfg.Registry.Alive()
	ws := make([]workerClient, len(alive))
	for i, w := range alive {
		ws[i] = &httpWorker{c: c, client: client, node: w.ID, uri: w.URI}
	}
	return ws
}

func (w *httpWorker) NodeID() int { return w.node }

func (w *httpWorker) Remote() bool { return true }

// resultsURI is where any process reads partition part of task id on w.
func (w *httpWorker) resultsURI(id exec.TaskID, part int) string {
	return fmt.Sprintf("%s/v1/task/%s/results/%d", w.uri, id, part)
}

// CreateTasks POSTs the batch, retrying transport-level failures; a batch is
// idempotent by task id, so a retry that raced a successful POST is absorbed.
// A batch that fails for good is deleted: part of it may have landed.
func (w *httpWorker) CreateTasks(specs []*taskSpec) (taskGroup, error) {
	g := &httpGroup{w: w, base: w.uri + "/v1/query/" + specs[0].ID.QueryID, stop: make(chan struct{})}
	req := wire.CreateRequest{Config: *specs[0].Config}
	if run := specs[0].Run; run != nil && len(run.Values) > 0 {
		var err error
		if req.Values, err = wire.MarshalValues(run.Values); err != nil {
			return nil, err
		}
	}
	for _, spec := range specs {
		id := spec.ID
		if !slices.Contains(g.fragments, id.Fragment) {
			doc := wire.FragmentDoc{ID: id.Fragment}
			if spec.Run != nil && spec.Run.Form != nil {
				doc.Body = spec.Run.Form.Body
			} else {
				var err error
				if doc.Body, err = wire.MarshalFragment(spec.Fragment); err != nil {
					return nil, fmt.Errorf("serializing fragment %d: %w", id.Fragment, err)
				}
			}
			g.fragments, req.Fragments = append(g.fragments, id.Fragment), append(req.Fragments, doc)
		}
		ts := wire.TaskSpec{Fragment: id.Fragment, Index: id.Index, OutPartitions: spec.OutPartitions, Relay: spec.Relay}
		for pid, producers := range spec.Sources {
			entry := wire.SourceEntry{Fragment: pid}
			for _, p := range producers {
				pw, ok := p.Worker.(*httpWorker)
				switch {
				case !ok:
					return nil, fmt.Errorf("task %s: producer %s is not reachable over HTTP", id, p.ID)
				case pw.node == w.node:
					entry.Local = append(entry.Local, p.ID.Index)
				default:
					entry.URIs = append(entry.URIs, pw.resultsURI(p.ID, id.Index))
				}
			}
			ts.Sources = append(ts.Sources, entry)
		}
		req.Tasks = append(req.Tasks, ts)
		scans := exec.ScanOrder(spec.Fragment.Root)
		t := &httpTask{g: g, id: id, scans: scans, queues: make([]scanQueue, len(scans)),
			publish: spec.Publish, done: make(chan struct{})}
		g.tasks = append(g.tasks, t)
		g.open.Add(1)
		for scanID, splits := range spec.Splits {
			for _, s := range splits {
				if err := t.queue(scanID, s); err != nil {
					return nil, err
				}
			}
			t.queues[scanID].noMore = spec.NoMore[scanID]
		}
	}
	req.Splits = g.takeQueuedLocked()
	if err := w.post(g.base+"/tasks", req, "create tasks"); err != nil {
		g.delete()
		return nil, fmt.Errorf("on %s: %w", w.uri, err)
	}
	return g, nil
}

// post delivers v as one JSON body, retrying transport failures; every
// task-API POST is idempotent (a create by task id, splits by sequence number,
// filters by filter id).
func (w *httpWorker) post(url string, v any, op string) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.do(http.MethodPost, url, body, nil, op)
}

// do sends one request until it is answered, retrying transport failures
// (the caller vouches that repeating it is safe), and decodes a 200's body
// into out when out is set.
func (w *httpWorker) do(method, url string, body []byte, out any, op string) error {
	return retryTransient(op, func() error {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return &shuffle.TransportError{Op: op, Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			return fmt.Errorf("%s: status %d: %s", op, resp.StatusCode, msg)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return &shuffle.TransportError{Op: op + ": decode", Err: err}
			}
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	})
}

// httpGroup is the client of one statement's tasks on one remote worker.
type httpGroup struct {
	w         *httpWorker
	base      string // workerURI + "/v1/query/" + query id
	tasks     []*httpTask
	fragments []int // the fragments the tasks belong to

	// splitMu guards every task's split queues and is held across a flush, so
	// the batches of a scan leave in sequence order whoever flushes.
	splitMu sync.Mutex
	queued  int // splits waiting in the queues

	// statusMu orders the closing of stop against the start of an ask, so
	// that Close's wait for the asks in flight misses none. The watcher is
	// the channel's one reader: version is its own.
	statusMu sync.Mutex
	version  int64
	polls    sync.WaitGroup // status requests in flight
	fail     func(error)

	open     atomic.Int32  // tasks whose verdict is not in yet
	stop     chan struct{} // closed by the first Abort or Close
	stopOnce sync.Once
}

func (g *httpGroup) Tasks() []taskClient {
	ts := make([]taskClient, len(g.tasks))
	for i, t := range g.tasks {
		ts[i] = t
	}
	return ts
}

// httpTask is one remote task: a name for its output, a queue for its splits,
// and what the status channel and the delete told of its end.
type httpTask struct {
	g      *httpGroup
	id     exec.TaskID
	scans  []*plan.Scan // by scan id, for the split codec's catalog
	queues []scanQueue  // by scan id; g.splitMu

	// publish receives the dynamic-filter summaries the task announces (nil
	// when it publishes none).
	publish func(ids []int, sums []*dynfilter.Summary)

	cpuNanos atomic.Int64
	done     chan struct{} // closed once the task is known to have ended
	doneOnce sync.Once
}

// scanQueue is what one scan of one task has not been sent yet. Batches
// carry per-(task, scan) sequence numbers so retried deliveries stay
// exactly-once.
type scanQueue struct {
	splits []wire.SplitData
	noMore bool // the end-of-enumeration mark is waiting
	seq    int64
}

func (t *httpTask) queue(scanID int, s connector.Split) error {
	catalog := t.scans[scanID].Handle.Catalog
	conn, err := t.g.w.c.Catalog.Connector(catalog)
	if err != nil {
		return err
	}
	codec, ok := conn.(connector.SplitCodec)
	if !ok {
		return fmt.Errorf("catalog %q does not support distributed scheduling (no split codec)", catalog)
	}
	data, err := codec.EncodeSplit(s)
	if err != nil {
		return err
	}
	t.queues[scanID].splits = append(t.queues[scanID].splits, wire.SplitData{Catalog: catalog, Data: data})
	t.g.queued++
	return nil
}

// AddSplit costs no request until the worker's queues hold a batch.
func (t *httpTask) AddSplit(scanID int, s connector.Split) error {
	g := t.g
	g.splitMu.Lock()
	defer g.splitMu.Unlock()
	if err := t.queue(scanID, s); err != nil || g.queued < g.w.c.cfg.SplitBatchSize {
		return err
	}
	return g.flushLocked()
}

func (t *httpTask) NoMoreSplits(scanID int) error {
	t.g.splitMu.Lock()
	t.queues[scanID].noMore = true
	t.g.splitMu.Unlock()
	return nil
}

func (g *httpGroup) Flush() error {
	g.splitMu.Lock()
	defer g.splitMu.Unlock()
	return g.flushLocked()
}

func (g *httpGroup) flushLocked() error {
	entries := g.takeQueuedLocked()
	if len(entries) == 0 {
		return nil
	}
	return g.w.post(g.base+"/splits", wire.SplitsRequest{Entries: entries}, "post splits")
}

// takeQueuedLocked empties the queues into one entry per (task, scan) that
// has something to say.
func (g *httpGroup) takeQueuedLocked() []wire.SplitEntry {
	var entries []wire.SplitEntry
	for _, t := range g.tasks {
		for scanID := range t.queues {
			if q := &t.queues[scanID]; len(q.splits) > 0 || q.noMore {
				entries = append(entries, wire.SplitEntry{Fragment: t.id.Fragment, Index: t.id.Index,
					Scan: scanID, Seq: q.seq, Splits: q.splits, NoMore: q.noMore})
				*q = scanQueue{seq: q.seq + 1}
			}
		}
	}
	g.queued = 0
	return entries
}

// Output reads a partition with the same retry policy the workers' exchange
// clients use.
func (t *httpTask) Output(part int) shuffle.Fetcher {
	w := t.g.w
	return &shuffle.RetryFetcher{
		Src: faultinject.WrapFetcher(w.c.cfg.FaultInject,
			&shuffle.HTTPFetcher{Client: w.client, URL: w.resultsURI(t.id, part)}),
	}
}

func (t *httpTask) Done() <-chan struct{} { return t.done }

func (t *httpTask) Tally() exec.TaskTally {
	return exec.TaskTally{ID: t.id, CPUNanos: t.cpuNanos.Load()}
}

// finish records that the task is known to have ended.
func (t *httpTask) finish() {
	t.doneOnce.Do(func() {
		close(t.done)
		t.g.open.Add(-1)
	})
}

// DeliverFilter sends the union to the subscribed fragments this worker runs,
// in the background: the caller is some worker's status channel. A remote
// task applies its own publication to its own scans at once, and the union
// tells it nothing more — a build that shares a fragment with its probe scan
// holds every row that scan's rows can match — so the publishing fragment is
// not sent what it built.
func (g *httpGroup) DeliverFilter(f *unionFilter, fragments []int) {
	var to []int
	for _, fid := range fragments {
		if fid != f.Publisher && slices.Contains(g.fragments, fid) {
			to = append(to, fid)
		}
	}
	if len(to) == 0 {
		return
	}
	req := wire.FiltersRequest{Filters: []wire.FilterDelivery{{ID: f.ID, Summary: f.Frame(), Fragments: to}}}
	go func() {
		if g.w.post(g.base+"/filters", req, "post filters") == nil {
			g.w.c.dynDeliveries.Add(1)
		}
	}()
}

// The status channel (paper §III: the coordinator monitors task health): one
// long-poll per (query, worker), answered when a task failed, published
// filters, or was the worker's last to end — and otherwise after statusWait.
const (
	statusWait = time.Second
	// statusRetry paces re-asking after a failed poll; a worker that has not
	// answered one for unreachableAfter is dead to this query.
	statusRetry      = 25 * time.Millisecond
	unreachableAfter = 2 * time.Second
)

// Monitor starts the channel. It ends when every verdict is in, the worker is
// given up on, or the group stops.
func (g *httpGroup) Monitor(fail func(error)) {
	g.fail = fail
	go func() {
		var failingSince time.Time
		for g.open.Load() > 0 {
			err := g.poll()
			select {
			case <-g.stop:
				return
			default:
			}
			switch {
			case err == nil:
				failingSince = time.Time{}
				continue
			case !faultinject.IsTransient(err):
				// The worker answered, and not with the query's status.
				g.giveUp(fmt.Errorf("worker %s lost the query: %w", g.w.uri, err))
				return
			case failingSince.IsZero():
				failingSince = time.Now()
			case time.Since(failingSince) >= unreachableAfter:
				g.giveUp(fmt.Errorf("worker %s unreachable for %v: %w", g.w.uri, unreachableAfter, err))
				return
			}
			select {
			case <-g.stop:
				return
			case <-time.After(statusRetry):
			}
		}
	}()
}

// giveUp ends every task still open and fails the query with err.
func (g *httpGroup) giveUp(err error) {
	for _, t := range g.tasks {
		t.finish()
	}
	g.fail(err)
}

// poll asks the worker, once, what happened after the version in hand,
// waiting up to statusWait for something to, and applies the answer. It asks
// nothing once every verdict is in or the group has stopped, and a group
// stops only after the asks in flight are answered, so no status request
// outlives its statement.
func (g *httpGroup) poll() error {
	g.statusMu.Lock()
	select {
	case <-g.stop:
		g.statusMu.Unlock()
		return nil
	default:
	}
	if g.open.Load() == 0 {
		g.statusMu.Unlock()
		return nil
	}
	g.polls.Add(1)
	g.statusMu.Unlock()
	var st wire.QueryStatus
	url := fmt.Sprintf("%s/status?version=%d&waitMs=%d", g.base, g.version, statusWait.Milliseconds())
	err := g.w.do(http.MethodGet, url, nil, &st, "get status")
	g.polls.Done()
	if err != nil {
		return err
	}
	// Every verdict is settled before the callbacks — the hub, the query's
	// abort — run.
	fresh := st.Events[min(max(g.version-st.From, 0), int64(len(st.Events))):]
	g.version = max(g.version, st.From+int64(len(st.Events))) // re-served events are never re-applied
	for _, ev := range fresh {
		if t := g.task(ev); t != nil && ev.State != "" {
			t.cpuNanos.Store(ev.CPUNanos)
			t.finish()
		}
	}
	for _, ev := range fresh {
		if t := g.task(ev); t != nil {
			g.announce(t, ev)
		}
	}
	return nil
}

// task is the one an event is about, nil when the group has none such.
func (g *httpGroup) task(ev wire.StatusEvent) *httpTask {
	for _, t := range g.tasks {
		if t.id.Fragment == ev.Fragment && t.id.Index == ev.Index {
			return t
		}
	}
	return nil
}

// announce passes on what an event means to the rest of the query: published
// summaries to the hub, a failure to the monitor.
func (g *httpGroup) announce(t *httpTask, ev wire.StatusEvent) {
	if len(ev.FilterIDs) > 0 && t.publish != nil {
		// A summary that does not decode is a lost publication: the filter
		// never completes and the probe scans run unfiltered.
		var ids []int
		var sums []*dynfilter.Summary
		for k, frame := range ev.Filters {
			if sum, err := dynfilter.DecodeSummary(frame); err == nil && k < len(ev.FilterIDs) {
				ids, sums = append(ids, ev.FilterIDs[k]), append(sums, sum)
			}
		}
		g.w.c.dynPublications.Add(int64(len(ids)))
		t.publish(ids, sums)
	}
	if err := verdictOf(ev); err != nil {
		g.fail(err)
	}
}

func (g *httpGroup) Abort() { g.Close() }

// Close stops the status channel, ends the tasks it had not heard end, and
// deletes the query on the worker (which aborts what still runs there and
// answers a status long-poll at once) — exactly once however the query ends.
// It returns once no status request is in flight: one the watcher began just
// before the stop would otherwise leave after the statement ended.
func (g *httpGroup) Close() {
	g.stopOnce.Do(func() {
		g.statusMu.Lock()
		close(g.stop)
		g.statusMu.Unlock()
		for _, t := range g.tasks {
			t.finish()
		}
		g.delete()
		g.polls.Wait()
	})
}

// delete is the one request that cannot be allowed to vanish: a worker that
// never hears it keeps the query's tasks and buffered pages. It is retried
// like any idempotent request, and a failure is logged and counted. Its
// answer is each task's CPU time, which a task that ended after the status
// channel's last answer reports nowhere else.
func (g *httpGroup) delete() {
	var deleted wire.DeleteResponse
	if err := g.w.do(http.MethodDelete, g.base, nil, &deleted, "delete query"); err != nil {
		g.w.c.deleteFailures.Add(1)
		log.Printf("coordinator: %v: its tasks stay on %s until it restarts", err, g.w.uri)
	}
	for _, ev := range deleted.Tasks {
		if t := g.task(ev); t != nil {
			t.cpuNanos.Store(max(t.cpuNanos.Load(), ev.CPUNanos))
		}
	}
}

// verdictOf is the error a terminal event stands for, nil for a clean end.
func verdictOf(ev wire.StatusEvent) error {
	switch {
	case ev.State != "failed":
		return nil
	case ev.Transient:
		return &transientTaskError{errors.New(ev.Error)}
	}
	return errors.New(ev.Error)
}

// transientTaskError re-attaches the transient classification a remote
// task's failure lost crossing the wire as a string.
type transientTaskError struct{ err error }

func (e *transientTaskError) Error() string   { return e.err.Error() }
func (e *transientTaskError) Unwrap() error   { return e.err }
func (e *transientTaskError) Transient() bool { return true }
