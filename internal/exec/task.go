package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/shuffle"
)

// TaskID identifies a task: one execution of a fragment on one worker.
type TaskID struct {
	QueryID  string
	Fragment int
	Index    int // task index within the stage (= output partition consumed)
}

// String renders the id.
func (t TaskID) String() string {
	return fmt.Sprintf("%s.%d.%d", t.QueryID, t.Fragment, t.Index)
}

// TaskConfig tunes task execution. It is also the configuration's wire form:
// the coordinator sends it, JSON-encoded, in every create request, so a field
// added here reaches remote workers without further plumbing. What cannot
// cross a process boundary is tagged json:"-".
type TaskConfig struct {
	// PageSize is the target rows per page for accumulating operators.
	PageSize int `json:"pageSize,omitempty"`
	// OutputBufferBytes caps each output partition before backpressure.
	OutputBufferBytes int64 `json:"outputBufferBytes,omitempty"`
	// TargetSplitConcurrency is the initial number of concurrently running
	// leaf splits per task; the task adapts it down when output buffers
	// stay full (§IV-E2).
	TargetSplitConcurrency int `json:"targetSplitConcurrency,omitempty"`
	// MaxWriters bounds adaptive writer scaling (§IV-E3).
	MaxWriters int `json:"maxWriters,omitempty"`
	// SpillEnabled allows aggregations and join builds to spill under memory
	// pressure, unless Switches holds DisableSpill.
	SpillEnabled bool `json:"spillEnabled,omitempty"`
	// Interpreted forces interpreted expression evaluation (codegen
	// ablation).
	Interpreted bool `json:"interpreted,omitempty"`
	// Phased delays probe-side splits until the join build completes
	// (stage scheduling policy, §IV-D1), trading wall-clock time for peak
	// memory. All-at-once (false) is the latency-optimized default.
	Phased bool `json:"phased,omitempty"`
	// Switches is the query's switch set: on a coordinator's or worker's
	// template the cluster's, on a task the union with its session's.
	Switches Switches `json:"switches,omitempty"`
	// DynamicFilterWait bounds how long a subscribed scan holds its split
	// starts for filter delivery. 0 selects DefaultDynamicFilterWait,
	// negative disables waiting (filters still apply to late-opened splits).
	DynamicFilterWait time.Duration `json:"dynamicFilterWaitNs,omitempty"`
	// SharedScanWindow is how long a shared scan stays joinable after its
	// first open. 0 selects DefaultSharedScanWindow, negative disables the
	// hub on workers built from this config.
	SharedScanWindow time.Duration `json:"sharedScanWindowNs,omitempty"`
	// SpillDir is where spill files and materialized exchange segments are
	// written; empty selects the OS temp dir.
	SpillDir string `json:"spillDir,omitempty"`
	// WriteDelay simulates remote-storage write latency (benchmarks).
	WriteDelay func() `json:"-"`
	// Inject threads the chaos injector into task-level seams (morsel split
	// opens, dynamic-filter publication).
	Inject *faultinject.Injector `json:"-"`
	// Store is the worker's materialized-exchange segment store; required
	// when Switches holds MaterializedExchange.
	Store *shuffle.ExchangeStore `json:"-"`
}

// DefaultDynamicFilterWait is the bounded wait a subscribed scan applies to
// its first split starts when the session does not override it. Late or lost
// filters degrade to an unfiltered scan, never a hang.
const DefaultDynamicFilterWait = 100 * time.Millisecond

// ZeroCopyDynamicFilterWait is the dynamic-filter wait when the probe scan
// is a zero-copy in-memory source (connector.ZeroCopyScans) subscribed to a
// single filter: zero, meaning the gate is skipped entirely. Such scans cost
// nothing to start, a filter that arrives mid-scan still narrows every split
// opened afterwards, and with one downstream probe the row-level kernel
// catches whatever early splits let through — so any hold is a pure latency
// tax on short in-memory joins (BENCH_7 q37/q82).
const ZeroCopyDynamicFilterWait = 0 * time.Millisecond

// ZeroCopyChainDynamicFilterWait is the bounded wait for a zero-copy scan
// subscribed to multiple filters (a multi-join chain like Fig. 6 q64): rows
// an early unfiltered split lets through traverse every downstream probe, so
// the compounded selectivity makes a short hold worthwhile where a long one
// still is not.
const ZeroCopyChainDynamicFilterWait = 5 * time.Millisecond

// DefaultSharedScanWindow is the shared-scan joinability window when the
// task config does not override it.
const DefaultSharedScanWindow = 100 * time.Millisecond

// Task executes one plan fragment on a worker: it owns the fragment's
// pipelines, creates a driver per split for leaf pipelines, and produces
// into a partitioned output buffer (paper §IV-D, §IV-E).
type Task struct {
	ID TaskID

	nodeID       int
	executor     *Executor
	connectors   ConnectorRegistry
	queryMem     *memory.QueryContext
	nodePool     *memory.NodePool
	pageCache    *cache.PageCache
	sharedScans  *serving.ScanHub // worker scan hub (nil = sharing off)
	output       *shuffle.OutputBuffer
	handle       *TaskHandle
	cfg          TaskConfig
	spillEnabled bool
	writeDelay   func()

	compiled  []*pipelineSpec
	scanPipes map[int]*pipelineSpec // scanID → pipeline

	mu sync.Mutex
	// started is set by Start. Until then the task has no drivers yet, so
	// "no active drivers" must not read as "finished": the worker monitor
	// skips unstarted tasks.
	started       bool
	activeDrivers int
	pendingSplits map[int][]connector.Split // scanID → queued splits (static mode)
	morsels       map[int]*morselQueue      // scanID → shared work queue (morsel mode)
	runningSplits map[int]int               // scanID → running drivers
	noMoreSplits  map[int]bool
	splitsDone    map[int]int // scanID → completed split drivers (static mode)
	failed        error
	doneCh        chan struct{}
	doneOnce      sync.Once
	aborted       bool

	exchangeClients []*shuffle.ExchangeClient
	scalablePipes   []*scalablePipe

	// Dynamic-filter state. dynMu is a leaf lock (t.mu → dynMu is the only
	// permitted order) so split-open paths can snapshot arrived filters
	// whether or not they hold t.mu.
	dynMu         sync.Mutex
	dynFilters    map[int]*dynfilter.Summary // arrived summaries by filter id
	dynArrivals   atomic.Int64               // deliveries so far: drivers rebuild their row predicates when it moves
	dynPublished  map[int]*dynfilter.Summary // summaries this task's builds published
	filterPublish func(ids []int, sums []*dynfilter.Summary)

	dynGates map[int]*dynGate // scanID → bounded-wait state (guarded by mu)
	dynSkip  map[int]bool     // scanID → empty-build short circuit (guarded by mu)

	// cleanups run exactly once when the task reaches its terminal state
	// (finished, failed, or aborted): spill files and other disk-backed
	// operator state are released here, after every driver has stopped.
	cleanups []func()
}

// dynGate tracks one scan's bounded wait for dynamic-filter delivery.
type dynGate struct {
	start time.Time
	done  bool // released: filters arrived or the deadline passed
}

// scalablePipe tracks a writer pipeline eligible for adaptive scaling.
type scalablePipe struct {
	spec    *pipelineSpec
	client  *shuffle.ExchangeClient
	drivers int
}

// NewTask compiles a fragment and prepares (but does not start) execution.
// exchangeSources maps upstream fragment ids to this task's page fetchers.
func NewTask(id TaskID, f *plan.Fragment, nodeID int, ex *Executor, reg ConnectorRegistry,
	qmem *memory.QueryContext, pool *memory.NodePool, pageCache *cache.PageCache,
	outPartitions int, exchangeSources map[int][]shuffle.Fetcher, cfg TaskConfig) (*Task, error) {

	if cfg.PageSize <= 0 {
		cfg.PageSize = 1024
	}
	if cfg.TargetSplitConcurrency <= 0 {
		cfg.TargetSplitConcurrency = 4
	}
	if cfg.MaxWriters <= 0 {
		cfg.MaxWriters = 8
	}
	t := &Task{
		ID:            id,
		nodeID:        nodeID,
		executor:      ex,
		connectors:    reg,
		queryMem:      qmem,
		nodePool:      pool,
		pageCache:     pageCache,
		output:        shuffle.NewOutputBuffer(outPartitions, cfg.OutputBufferBytes),
		handle:        NewTaskHandle(id.QueryID),
		cfg:           cfg,
		spillEnabled:  cfg.SpillEnabled && !cfg.Switches.Has(DisableSpill),
		writeDelay:    cfg.WriteDelay,
		pendingSplits: map[int][]connector.Split{},
		morsels:       map[int]*morselQueue{},
		runningSplits: map[int]int{},
		splitsDone:    map[int]int{},
		noMoreSplits:  map[int]bool{},
		doneCh:        make(chan struct{}),
		scanPipes:     map[int]*pipelineSpec{},
	}
	if cfg.Switches.Has(MaterializedExchange) && cfg.Store != nil {
		// Key the entry by task ID: a re-placed task (same query, fragment,
		// index) resets the same entry, so consumers follow it transparently.
		// A sealed entry means a prior attempt already finished — its output
		// is durable and this attempt's pages are discarded on arrival; the
		// common replay path never even creates the replacement task.
		entry, _ := cfg.Store.Create(id.String(), outPartitions)
		t.output.AttachEntry(entry)
	}
	c := &compiler{task: t, pageSize: cfg.PageSize}
	if err := c.compileFragment(f); err != nil {
		return nil, err
	}
	t.compiled = c.pipelines
	for _, p := range t.compiled {
		if p.source == srcScan {
			t.scanPipes[p.scanID] = p
		}
	}

	// Wire exchange clients.
	for _, p := range t.compiled {
		if p.source != srcExchange {
			continue
		}
		var fetchers []shuffle.Fetcher
		for _, fid := range p.exchangeFragments {
			fetchers = append(fetchers, exchangeSources[fid]...)
		}
		client := shuffle.NewExchangeClient(fetchers, cfg.OutputBufferBytes)
		t.exchangeClients = append(t.exchangeClients, client)
		p.exchangeClient = client
	}

	// Unblock notifications: every structure a driver can park on kicks the
	// executor when its state changes, so parked drivers resume on the event
	// instead of the executor's fallback poll (§IV-F1 adaptation).
	kick := ex.Kick
	t.output.SetNotify(kick)
	for _, client := range t.exchangeClients {
		client.SetNotify(kick)
	}
	for _, p := range t.compiled {
		if p.buildBridge != nil {
			p.buildBridge.SetNotify(kick)
		}
		if p.localEx != nil {
			p.localEx.SetNotify(kick)
		}
	}
	return t, nil
}

// Output returns the task's partitioned output buffer.
func (t *Task) Output() *shuffle.OutputBuffer { return t.output }

// Start launches the task's non-split drivers.
func (t *Task) Start() error {
	for _, client := range t.exchangeClients {
		client.Start()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted {
		return t.failed // killed between registration and start
	}
	t.started = true
	for _, p := range t.compiled {
		switch p.source {
		case srcValues:
			src := operators.NewValuesOperator(p.values.Rows, p.values.Out.Types())
			if err := t.startDriverLocked(p, src, t.sourceCtx(p)); err != nil {
				return err
			}
			t.declareNoMoreDriversLocked(p)
		case srcExchange:
			sctx := t.sourceCtx(p)
			src := operators.NewExchangeSource(sctx, p.exchangeClient)
			if err := t.startDriverLocked(p, src, sctx); err != nil {
				return err
			}
			if t.isWriterPipe(p) {
				t.scalablePipes = append(t.scalablePipes, &scalablePipe{spec: p, client: p.exchangeClient, drivers: 1})
				// Writers may scale: more drivers can still be added.
			} else {
				t.declareNoMoreDriversLocked(p)
			}
		case srcLocalExchange:
			for i := 0; i < p.localWays; i++ {
				sctx := t.sourceCtx(p)
				src := operators.NewLocalExchangeSource(sctx, p.localEx, i)
				if err := t.startDriverLocked(p, src, sctx); err != nil {
					return err
				}
			}
			t.declareNoMoreDriversLocked(p)
		}
	}
	t.maybeFinishLocked()
	return nil
}

func (t *Task) isWriterPipe(p *pipelineSpec) bool { return p.hasWriter }

// sourceCtx builds the operator context for a pipeline's source position,
// sharing the pipeline's source stats slot across its drivers.
func (t *Task) sourceCtx(p *pipelineSpec) *operators.OpContext {
	return &operators.OpContext{
		Mem:   memory.NewLocalContext(t.queryMem, t.nodeID, memory.System),
		Stats: p.opStats[0],
	}
}

// newProcessor builds a page processor honoring the interpreted-mode
// ablation flag.
func (t *Task) newProcessor(pred expr.Expr, proj []expr.Expr) *expr.PageProcessor {
	if t.cfg.Interpreted {
		return expr.NewInterpretedPageProcessor(pred, proj)
	}
	pp := expr.NewPageProcessor(pred, proj)
	if t.cfg.Switches.Has(DisableVectorKernels) {
		pp.DisableVectorizedFilter()
	}
	return pp
}

func (t *Task) registerRevocable(r memory.Revocable) {
	if t.nodePool != nil {
		t.nodePool.RegisterRevocable(t.ID.QueryID, r)
	}
}

// registerCleanup schedules fn to run when the task reaches its terminal
// state. Called at compile time, before any driver runs.
func (t *Task) registerCleanup(fn func()) {
	t.cleanups = append(t.cleanups, fn)
}

// startDriverLocked instantiates the pipeline's operators behind src and
// enqueues the driver. srcCtx is the context the source was built with (its
// stats slot is the pipeline's shared source stats).
func (t *Task) startDriverLocked(p *pipelineSpec, src operators.Operator, srcCtx *operators.OpContext) error {
	dctx := &driverCtx{task: t}
	ops, err := p.mkOps(dctx)
	if err != nil {
		return err
	}
	all := append([]operators.Operator{src}, ops...)
	ctxs := append([]*operators.OpContext{srcCtx}, dctx.ctxs...)
	d := NewDriver(all).WithStats(ctxs)
	t.activeDrivers++
	p.driversStarted++
	pipe := p
	t.executor.Enqueue(d, t.handle, func(err error) {
		t.driverDone(pipe, err)
	})
	return nil
}

// declareNoMoreDriversLocked tells bridges attached to the pipeline that all
// its drivers now exist.
func (t *Task) declareNoMoreDriversLocked(p *pipelineSpec) {
	if p.noMoreDrivers {
		return
	}
	p.noMoreDrivers = true
	if p.buildBridge != nil {
		p.buildBridge.NoMoreBuilders()
	}
	for _, b := range p.probeBridges {
		b.NoMoreProbes()
	}
}

// AddSplit queues a split for the scan pipeline scanID. In morsel mode
// (default) the split joins the scan's shared work queue; in the static
// ablation it is owned end-to-end by one driver.
func (t *Task) AddSplit(scanID int, s connector.Split) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted || t.failed != nil {
		return nil
	}
	if p, ok := t.scanPipes[scanID]; !ok {
		return fmt.Errorf("task %s has no scan pipeline %d", t.ID, scanID)
	} else if t.dynSkip[scanID] {
		// Empty-build short circuit already proved this scan joins nothing.
		p.opStats[0].RecordDynSplitSkipped(1)
		return nil
	}
	if !t.cfg.Switches.Has(DisableMorsels) {
		q, err := t.morselQueueLocked(scanID)
		if err != nil {
			return err
		}
		q.addSplit(s)
	} else {
		t.pendingSplits[scanID] = append(t.pendingSplits[scanID], s)
	}
	return t.maybeStartSplitsLocked(scanID)
}

// morselQueueLocked returns (creating on first use) the shared work queue of
// a scan pipeline. The open function routes through the worker page cache
// exactly like the static path, and completed opens record cache hits on the
// pipeline's shared source stats.
func (t *Task) morselQueueLocked(scanID int) (*morselQueue, error) {
	if q, ok := t.morsels[scanID]; ok {
		return q, nil
	}
	p := t.scanPipes[scanID]
	conn, err := t.connectors.Connector(p.scanHandle.Catalog)
	if err != nil {
		return nil, err
	}
	pipe := p
	stats := p.opStats[0]
	q := newMorselQueue(t.cfg.TargetSplitConcurrency, DefaultMorselRows,
		func(s connector.Split) (connector.PageSource, error) {
			if err := t.cfg.Inject.Err(faultinject.SiteMorselOpen); err != nil {
				return nil, err
			}
			return t.openPageSource(conn, s, pipe, stats)
		})
	q.stats = stats
	q.onReady = t.executor.Kick
	q.onDrained = func() {
		t.mu.Lock()
		t.maybeDeclareScanDoneLocked(scanID)
		t.mu.Unlock()
	}
	t.morsels[scanID] = q
	return q, nil
}

// NoMoreSplits declares split enumeration complete for a scan.
func (t *Task) NoMoreSplits(scanID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noMoreSplits[scanID] = true
	if q, ok := t.morsels[scanID]; ok {
		q.noMoreSplits()
	}
	t.maybeDeclareScanDoneLocked(scanID)
	t.maybeFinishLocked()
}

// maybeDeclareScanDoneLocked declares a scan pipeline's drivers complete once
// none can be started any more: enumeration is over and nothing is left to
// hand a new driver. It does not wait for the running drivers to finish —
// a probe of a spilled join cannot finish before it hears this.
func (t *Task) maybeDeclareScanDoneLocked(scanID int) {
	if !t.noMoreSplits[scanID] {
		return
	}
	if q, ok := t.morsels[scanID]; ok {
		if !q.drained() {
			return
		}
	} else if len(t.pendingSplits[scanID]) > 0 {
		return
	}
	if p, ok := t.scanPipes[scanID]; ok {
		t.declareNoMoreDriversLocked(p)
	}
}

// maybeStartSplitsLocked starts pending split drivers up to the adaptive
// concurrency target: when output buffer utilization is consistently high,
// effective concurrency drops (§IV-E2).
func (t *Task) maybeStartSplitsLocked(scanID int) error {
	p := t.scanPipes[scanID]
	// Phased scheduling: hold probe splits until the build sides are ready.
	if t.cfg.Phased {
		for _, b := range p.probeBridges {
			if !b.Built() {
				return nil
			}
		}
	}
	// Dynamic filters: briefly hold a subscribed scan's split starts until
	// its filters arrive (bounded — see dynGateLocked).
	if t.dynGateLocked(p) {
		return nil
	}
	target := t.cfg.TargetSplitConcurrency
	if t.output.Utilization() > 0.5 {
		target = 1 // buffers full: lower effective concurrency
	}
	if q, ok := t.morsels[scanID]; ok {
		// Morsel mode: drivers are not tied to splits — start pullers up to
		// the adaptive target while the shared queue has any work at all, so
		// even a single oversized split fans out across every driver. A
		// puller beyond the executor's threads would only compile an operator
		// chain, find the queue drained and exit. (The static path below
		// keeps its split-per-driver count: a probe of a spilled join waits
		// for every driver of its pipeline to have been started.)
		if p.noMoreDrivers {
			return nil
		}
		target = min(target, t.executor.Threads())
		for t.runningSplits[scanID] < target && q.hasWork() {
			sctx := t.sourceCtx(p)
			src := operators.NewMorselScan(sctx, &morselStripe{q: q, stripe: q.claimStripe()})
			if err := t.startDriverLocked(p, src, sctx); err != nil {
				return err
			}
			t.runningSplits[scanID]++
		}
		return nil
	}
	for t.runningSplits[scanID] < target && len(t.pendingSplits[scanID]) > 0 {
		s := t.pendingSplits[scanID][0]
		t.pendingSplits[scanID] = t.pendingSplits[scanID][1:]
		conn, err := t.connectors.Connector(p.scanHandle.Catalog)
		if err != nil {
			return err
		}
		sctx := t.sourceCtx(p)
		srcReader, err := t.openPageSource(conn, s, p, sctx.Stats)
		if err != nil {
			return err
		}
		src := operators.NewTableScan(sctx, srcReader)
		if err := t.startDriverLocked(p, src, sctx); err != nil {
			srcReader.Close() // no driver owns the source: close it here
			return err
		}
		t.runningSplits[scanID]++
	}
	return nil
}

// openPageSource opens a split's PageSource, routing through the worker page
// cache when the connector supports cache keys for this read and the task's
// session has not disabled caching. Each cached open records a hit or miss
// on the scan operator's stats (surfaced by EXPLAIN ANALYZE).
//
// Dynamic filters that have arrived by open time narrow the table handle —
// the narrowed handle is both the connector read (stripe/split pruning) and
// the cache identity, so cached pages always match what the connector would
// produce for that constraint. Their row predicates run later, in the page
// processor on the scan (dynRowSelectors): the source hands on exactly what
// the connector, or the cache, produced.
func (t *Task) openPageSource(conn connector.Connector, s connector.Split,
	p *pipelineSpec, stats *operators.OpStats) (connector.PageSource, error) {

	handle := t.dynNarrowedHandle(p)
	// A connector is cached iff it says how: one that issues no key for this
	// read (resident tables, lazy reads) is opened directly.
	pc, ok := conn.(connector.PageCacheable)
	if !ok {
		return conn.PageSource(s, p.scanCols, handle)
	}
	key, haveKey := pc.PageCacheKey(s, p.scanCols, handle)
	open := func() (connector.PageSource, error) {
		return conn.PageSource(s, p.scanCols, handle)
	}
	// Shared scans layer under the page cache: the hub deduplicates the
	// connector reads that fill the cache (or that run uncached), while a
	// page-cache hit — already free — never round-trips through the hub.
	if haveKey && t.sharedScans != nil && !t.cfg.Switches.Has(DisableSharedScans) {
		raw := open
		open = func() (connector.PageSource, error) {
			return t.sharedScans.Open(key, raw)
		}
	}
	if haveKey && t.pageCache != nil && !t.cfg.Switches.Has(DisableCache) {
		cached, hit, err := t.pageCache.OpenThrough(key, open)
		if err != nil {
			return nil, err
		}
		stats.RecordCacheAccess(hit)
		return cached, nil
	}
	return open()
}

// driverDone is called by the executor when a driver completes.
func (t *Task) driverDone(p *pipelineSpec, err error) {
	t.mu.Lock()
	t.activeDrivers--
	p.driversDone++
	if p.source == srcScan {
		t.runningSplits[p.scanID]--
		if _, morsel := t.morsels[p.scanID]; !morsel {
			// Morsel-mode split completion is counted by the queue at source
			// exhaustion; a scan driver there is not one split.
			t.splitsDone[p.scanID]++
		}
		if err == nil && !t.aborted {
			if serr := t.maybeStartSplitsLocked(p.scanID); serr != nil && t.failed == nil {
				t.failed = serr
			}
		}
		t.maybeDeclareScanDoneLocked(p.scanID)
	}
	if err != nil && t.failed == nil {
		t.failed = err
		t.cancelPipelinesLocked()
	}
	t.maybeFinishLocked()
	t.mu.Unlock()
}

// cancelPipelinesLocked releases drivers parked on inter-pipeline handoffs so
// a failing or aborted task can wind down: join bridges are forced built (a
// dead build driver never drains the builder count, so probes would otherwise
// park forever) and local exchanges report done. Released drivers may run
// against partial state, but the task is already failed, so nothing they
// produce is ever surfaced as a result.
func (t *Task) cancelPipelinesLocked() {
	for _, p := range t.compiled {
		if p.buildBridge != nil {
			p.buildBridge.Cancel()
		}
		for _, b := range p.probeBridges {
			b.Cancel()
		}
		if p.localEx != nil {
			p.localEx.Cancel()
		}
	}
	for _, q := range t.morsels {
		q.cancel()
	}
}

// maybeFinishLocked finalizes the task when all drivers are done and no
// splits remain.
func (t *Task) maybeFinishLocked() {
	if t.activeDrivers > 0 {
		return
	}
	for id := range t.scanPipes {
		if !t.noMoreSplits[id] || len(t.pendingSplits[id]) > 0 {
			return
		}
		if q, ok := t.morsels[id]; ok && !q.drained() {
			return
		}
	}
	if t.failed != nil {
		t.output.Destroy()
	} else {
		t.output.SetNoMorePages()
	}
	t.doneOnce.Do(func() {
		for _, fn := range t.cleanups {
			fn()
		}
		close(t.doneCh)
	})
}

// Done returns a channel closed when the task finishes (or fails).
func (t *Task) Done() <-chan struct{} { return t.doneCh }

// Err returns the task failure, if any.
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// Abort cancels the task, dropping buffered output.
func (t *Task) Abort() {
	t.terminate(fmt.Errorf("task %s aborted", t.ID))
}

// ErrTaskLost marks a task whose worker died mid-query. Under materialized
// exchange the coordinator re-places lost tasks on surviving workers instead
// of failing the query; any other scheduler treats it like a plain failure.
var ErrTaskLost = errors.New("worker lost")

// IsLost reports whether a task error came from worker death (MarkLost).
func IsLost(err error) bool { return errors.Is(err, ErrTaskLost) }

// MarkLost terminates the task as lost to worker death. Identical wind-down
// to Abort, but the error is classified so a recovery-capable coordinator can
// re-place the work. A materialized output entry survives untouched: sealed
// segments keep serving consumers, unsealed ones are reset by the replacement.
func (t *Task) MarkLost() {
	t.terminate(fmt.Errorf("task %s: %w", t.ID, ErrTaskLost))
}

// terminate winds the task down with the given failure unless it already
// carries one.
func (t *Task) terminate(reason error) {
	t.mu.Lock()
	t.aborted = true
	t.pendingSplits = map[int][]connector.Split{}
	for id := range t.scanPipes {
		t.noMoreSplits[id] = true
	}
	if t.failed == nil {
		t.failed = reason
	}
	t.cancelPipelinesLocked()
	t.output.Destroy()
	for _, c := range t.exchangeClients {
		c.Close()
	}
	t.maybeFinishLocked()
	t.mu.Unlock()
}

// PumpSplits re-evaluates gated split starts (phased scheduling and
// adaptive concurrency); called periodically by the worker monitor.
func (t *Task) PumpSplits() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started || t.failed != nil || t.aborted {
		return
	}
	for id := range t.scanPipes {
		if err := t.maybeStartSplitsLocked(id); err != nil && t.failed == nil {
			t.failed = err
		}
	}
	t.maybeFinishLocked()
}

// ScaleWriters checks adaptive writer scaling: when a writer pipeline's
// input exchange buffer is persistently occupied, another writer driver is
// added up to MaxWriters (paper §IV-E3: writer concurrency increases when
// the producing stage exceeds a buffer utilization threshold). Called
// periodically by the worker's monitor.
func (t *Task) ScaleWriters() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started || t.failed != nil || t.aborted {
		return
	}
	for _, sp := range t.scalablePipes {
		if sp.drivers >= t.cfg.MaxWriters {
			t.declareNoMoreDriversLocked(sp.spec)
			continue
		}
		// Scale when the writer's input backlog persists past the
		// threshold (the paper's buffer-utilization trigger, §IV-E3).
		threshold := t.cfg.OutputBufferBytes / 2
		if threshold <= 0 || threshold > 32<<10 {
			threshold = 32 << 10
		}
		if sp.client.BufferedBytes() > threshold {
			// Exponential ramp: double the writer count each time the
			// backlog persists, up to the cap (§IV-E3).
			add := sp.drivers
			if sp.drivers+add > t.cfg.MaxWriters {
				add = t.cfg.MaxWriters - sp.drivers
			}
			for i := 0; i < add; i++ {
				sctx := t.sourceCtx(sp.spec)
				src := operators.NewExchangeSource(sctx, sp.client)
				if err := t.startDriverLocked(sp.spec, src, sctx); err != nil {
					break
				}
				sp.drivers++
			}
		}
	}
}

// CPUNanos reports task CPU time.
func (t *Task) CPUNanos() int64 { return t.handle.CPUNanos() }

// waitDone blocks until completion or timeout.
func (t *Task) waitDone(d time.Duration) bool {
	select {
	case <-t.doneCh:
		return true
	case <-time.After(d):
		return false
	}
}

// scanIsZeroCopy reports (and caches) whether a scan pipeline's connector
// advertises zero-copy scans. Caller holds t.mu (the flag lives on the
// pipeline spec).
func (t *Task) scanIsZeroCopy(p *pipelineSpec) bool {
	if p.zeroCopy == 0 {
		p.zeroCopy = -1
		if conn, err := t.connectors.Connector(p.scanHandle.Catalog); err == nil {
			if zc, ok := conn.(connector.ZeroCopyScans); ok && zc.ZeroCopy() {
				p.zeroCopy = 1
			}
		}
	}
	return p.zeroCopy == 1
}
