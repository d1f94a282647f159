package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// The HTTP client (paper §III): tasks live on registered worker processes.
// Fragments travel as serialized plans over POST /v1/task, splits as encoded
// batches over POST .../splits, and every inter-stage exchange — including
// the coordinator's read of the root — runs the HTTP shuffle protocol.
// Worker-to-worker fetches go direct: each task is told its producers' result
// URIs, so shuffle traffic never relays through the coordinator. Everything
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
		client = http.DefaultClient
	}
	alive := c.cfg.Registry.Alive()
	ws := make([]workerClient, len(alive))
	for i, w := range alive {
		ws[i] = &httpWorker{c: c, client: client, node: w.ID, uri: w.URI}
	}
	return ws
}

func (w *httpWorker) NodeID() int { return w.node }

// CachesPages is true until the registry says otherwise: a registered worker
// does not report its cache configuration, and prestod workers keep one.
func (w *httpWorker) CachesPages() bool { return true }

// CreateTask POSTs the task spec, retrying transport-level failures; creation
// is idempotent by task id, so a retried POST that raced a successful one is
// absorbed.
func (w *httpWorker) CreateTask(spec taskSpec) (taskClient, error) {
	frag, err := wire.MarshalFragment(spec.Fragment)
	if err != nil {
		return nil, fmt.Errorf("serializing fragment %d: %w", spec.Fragment.ID, err)
	}
	ws := wire.TaskSpec{
		QueryID:       spec.ID.QueryID,
		Fragment:      spec.ID.Fragment,
		Index:         spec.ID.Index,
		Frag:          frag,
		OutPartitions: spec.OutPartitions,
		Config:        wire.EncodeTaskConfig(spec.Config),
	}
	// Producers are placed before consumers, so their result URIs are known.
	for pid, producers := range spec.Sources {
		entry := wire.SourceEntry{Fragment: pid}
		for _, p := range producers {
			hp, ok := p.(resultsAddressed)
			if !ok {
				return nil, fmt.Errorf("task %s: producer of fragment %d is not reachable over HTTP", spec.ID, pid)
			}
			entry.URIs = append(entry.URIs, hp.resultsURI(spec.ID.Index))
		}
		ws.Sources = append(ws.Sources, entry)
	}
	t := &httpTask{
		w:       w,
		id:      spec.ID,
		base:    w.uri + "/v1/task/" + spec.ID.String(),
		scans:   exec.ScanOrder(spec.Fragment.Root),
		publish: spec.Publish,
		pending: map[int][]wire.SplitData{},
		seqs:    map[int]int64{},
		fetched: map[int]bool{},
		done:    make(chan struct{}),
	}
	if err := w.post(w.uri+"/v1/task", ws, "create task"); err != nil {
		return nil, fmt.Errorf("on %s: %w", w.uri, err)
	}
	go t.poll()
	return t, nil
}

// post delivers v as one JSON body, retrying transport failures; every
// task-API POST is idempotent (create by task id, splits by sequence number,
// filters by filter id).
func (w *httpWorker) post(url string, v any, op string) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return retryTransient(op, func() error {
		resp, err := w.client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return &shuffle.TransportError{Op: op, Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			return fmt.Errorf("%s: status %d: %s", op, resp.StatusCode, msg)
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	})
}

// getJSON fetches and decodes one document, once.
func (w *httpWorker) getJSON(url string, v any) error {
	resp, err := w.client.Get(url)
	if err != nil {
		return &shuffle.TransportError{Op: "get", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return &shuffle.TransportError{Op: "decode", Err: err}
	}
	return nil
}

// resultsAddressed is a producer whose output partitions other workers can
// fetch by URI — what a consumer on an HTTP worker needs of its sources.
type resultsAddressed interface{ resultsURI(part int) string }

// httpTask is the client of one task on a remote worker.
type httpTask struct {
	w     *httpWorker
	id    exec.TaskID
	base  string       // workerURI + "/v1/task/" + id
	scans []*plan.Scan // by scan id, for the split codec's catalog

	// Split delivery. Batches carry per-(task,scan) sequence numbers so
	// retried deliveries stay exactly-once.
	splitMu sync.Mutex
	pending map[int][]wire.SplitData
	seqs    map[int]int64

	// publish receives each dynamic-filter summary the task announces in
	// its status (nil when it publishes none); fetched are the filter ids
	// already pulled, the poll goroutine's alone.
	publish func(ids []int, sums []*dynfilter.Summary)
	fetched map[int]bool

	cpuNanos atomic.Int64
	mu       sync.Mutex
	err      error // the verdict; set before done closes

	done      chan struct{} // also ends the status poll
	doneOnce  sync.Once
	closeOnce sync.Once
}

func (t *httpTask) resultsURI(part int) string {
	return fmt.Sprintf("%s/results/%d", t.base, part)
}

func (t *httpTask) AddSplit(scanID int, s connector.Split) error {
	catalog := t.scans[scanID].Handle.Catalog
	conn, err := t.w.c.Catalog.Connector(catalog)
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
	t.splitMu.Lock()
	defer t.splitMu.Unlock()
	t.pending[scanID] = append(t.pending[scanID], wire.SplitData{Catalog: catalog, Data: data})
	if len(t.pending[scanID]) >= t.w.c.cfg.SplitBatchSize {
		return t.flushLocked(scanID, false)
	}
	return nil
}

func (t *httpTask) NoMoreSplits(scanID int) error {
	t.splitMu.Lock()
	defer t.splitMu.Unlock()
	return t.flushLocked(scanID, true)
}

func (t *httpTask) flushLocked(scanID int, noMore bool) error {
	req := wire.SplitRequest{Scan: scanID, Seq: t.seqs[scanID], Splits: t.pending[scanID], NoMore: noMore}
	if err := t.w.post(t.base+"/splits", req, "post splits"); err != nil {
		return err
	}
	t.seqs[scanID]++
	delete(t.pending, scanID)
	return nil
}

// Output reads a partition with the same retry policy the workers' exchange
// clients use.
func (t *httpTask) Output(part int) shuffle.Fetcher {
	return &shuffle.RetryFetcher{
		Src: faultinject.WrapFetcher(t.w.c.cfg.FaultInject,
			&shuffle.HTTPFetcher{Client: t.w.client, URL: t.resultsURI(part)}),
		Retry: t.w.c.cfg.Task.FetchRetry,
	}
}

func (t *httpTask) Done() <-chan struct{} { return t.done }

// Wait asks the worker once unless the verdict is already in; a status that
// cannot be fetched is the liveness poll's to judge. Filters the task
// announces this late are left alone: the consumers have finished.
func (t *httpTask) Wait() error {
	select {
	case <-t.done:
	default:
		t.refresh(false)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// DeliverFilter is best-effort: a failed delivery degrades that task's scans
// to unfiltered, never fails the query.
func (t *httpTask) DeliverFilter(id int, s *dynfilter.Summary) {
	t.w.post(t.base+"/filters", wire.FilterRequest{Filters: []wire.FilterEntry{
		{ID: id, Summary: wire.EncodeFilterSummary(s)},
	}}, "post filters")
}

func (t *httpTask) Stats() exec.TaskStats {
	return exec.TaskStats{TaskID: t.id.String(), Fragment: t.id.Fragment, CPUNanos: t.cpuNanos.Load()}
}

func (t *httpTask) Abort() { t.shutdown(fmt.Errorf("task %s aborted", t.id)) }

func (t *httpTask) Close() { t.shutdown(nil) }

// shutdown stops the poll, settles the verdict if the poll had not, and
// deletes the remote task (which aborts it if still running) — exactly once
// however the query ends.
func (t *httpTask) shutdown(verdict error) {
	t.closeOnce.Do(func() {
		t.finish(verdict)
		req, err := http.NewRequest(http.MethodDelete, t.base, nil)
		if err != nil {
			return
		}
		if resp, err := t.w.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

func (t *httpTask) finish(err error) {
	t.doneOnce.Do(func() {
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		close(t.done)
	})
}

// Status polling (paper §III: the coordinator monitors task health).
const (
	statusPollInterval = 50 * time.Millisecond
	// statusFailureThreshold is how many consecutive unreachable polls mark
	// the task's worker dead.
	statusFailureThreshold = 40
)

// poll watches the task until it ends or the client shuts down. Transient
// scrape errors are tolerated; a task reporting failure, or unreachable for
// many consecutive polls, ends with that verdict.
func (t *httpTask) poll() {
	ticker := time.NewTicker(statusPollInterval)
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
		}
		if err := t.refresh(true); err != nil {
			if misses++; misses >= statusFailureThreshold {
				t.finish(fmt.Errorf("worker unreachable for task %s: %w", t.id, err))
				return
			}
		} else {
			misses = 0
		}
	}
}

// refresh fetches the task's status and acts on it: counters, the verdict,
// and with filters set (the poll goroutine only), newly published filters,
// each pulled once and handed to publish.
func (t *httpTask) refresh(filters bool) error {
	var st wire.TaskStatus
	if err := t.w.getJSON(t.base, &st); err != nil {
		return err
	}
	t.cpuNanos.Store(st.CPUNanos)
	for _, id := range st.FiltersReady {
		if !filters || t.publish == nil || t.fetched[id] {
			continue
		}
		// Pulled once, whatever comes of it: a summary that cannot be pulled
		// is a lost publication — the filter never completes and the probe
		// scans run unfiltered.
		t.fetched[id] = true
		var fs wire.FilterSummary
		err := retryTransient("fetch filter", func() error {
			return t.w.getJSON(fmt.Sprintf("%s/filter/%d", t.base, id), &fs)
		})
		if err != nil {
			continue
		}
		if sum, err := fs.Decode(); err == nil {
			t.publish([]int{id}, []*dynfilter.Summary{sum})
		}
	}
	switch st.State {
	case "failed":
		err := errors.New(st.Error)
		if st.Transient {
			err = &transientTaskError{err}
		}
		t.finish(err)
	case "finished":
		t.finish(nil)
	}
	return nil
}

// transientTaskError re-attaches the transient classification a remote
// task's failure lost crossing the wire as a string.
type transientTaskError struct{ err error }

func (e *transientTaskError) Error() string   { return e.err.Error() }
func (e *transientTaskError) Unwrap() error   { return e.err }
func (e *transientTaskError) Transient() bool { return true }
