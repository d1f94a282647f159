package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/shuffle"
	"repro/internal/types"
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
	// DynamicFilterWait bounds how long a scan holds its split starts for the
	// filters it subscribes to from other fragments (one of its own task's
	// joins publishes is there before the scan's rows can reach the join). 0
	// selects DefaultDynamicFilterWait, negative disables waiting (filters
	// still apply to late-opened splits).
	DynamicFilterWait time.Duration `json:"dynamicFilterWaitNs,omitempty"`
	// SpillDir is where spill files are written; empty selects the OS temp
	// dir.
	SpillDir string `json:"spillDir,omitempty"`
	// StageTasks is a statement's task count per fragment id, which the
	// scheduler fills in: an aggregation divides its group estimate among the
	// instances of its stage (groupsPerInstance). Not a setting.
	StageTasks []int `json:"stageTasks,omitempty"`
	// WriteDelay simulates remote-storage write latency (benchmarks).
	WriteDelay func() `json:"-"`
	// Inject threads the chaos injector into task-level seams (morsel split
	// opens, dynamic-filter publication).
	Inject *faultinject.Injector `json:"-"`
}

// DefaultDynamicFilterWait is the bounded wait a scan applies to its first
// split starts for the filters it subscribes to from other fragments, when the
// session does not override it. Late or lost filters degrade to an unfiltered
// scan, never a hang.
const DefaultDynamicFilterWait = 100 * time.Millisecond

// Task executes one plan fragment on a worker: it owns the fragment's
// pipelines, queues each leaf scan's splits for the drivers that drain them,
// and produces into a partitioned output buffer (paper §IV-D, §IV-E).
type Task struct {
	ID TaskID

	nodeID     int
	executor   *Executor
	connectors ConnectorRegistry
	queryMem   *memory.QueryContext
	nodePool   *memory.NodePool
	output     *shuffle.OutputBuffer
	handle     *TaskHandle
	// cfg is the task's configuration; its SpillEnabled is false under
	// DisableSpill.
	cfg TaskConfig

	// params are the statement's literals as the compiled fragment's
	// parameters read them, shared read-only by every processor of the task;
	// bridges are its joins' (CompiledFragment.joins).
	params   []types.Value
	bridges  []*operators.JoinBridge
	compiled []*pipelineSpec
	single   bool // CompiledFragment.single

	mu            sync.Mutex
	activeDrivers int
	failed        error
	doneCh        chan struct{}
	doneOnce      sync.Once
	scanHeld      atomic.Bool // a scan start waits on a build or output space (see unblocked)

	exchangeClients []*shuffle.ExchangeClient

	// Dynamic-filter state. dynMu is a leaf lock (t.mu → dynMu and a join
	// bridge's mu → dynMu are the only permitted orders) so split-open paths
	// can snapshot arrived filters whether or not they hold t.mu, and a build
	// can install its summaries on its built transition.
	dynMu        sync.Mutex
	dynFilters   map[int]*dynfilter.Summary // arrived summaries by filter id
	dynArrivals  atomic.Int64               // deliveries so far: drivers rebuild their row predicates when it moves
	dynPublished map[int]*dynfilter.Summary // summaries this task's builds published
	relay        *FilterRelay               // set before Start; nil: nothing leaves the task

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

// writerScaleInterval spaces the looks at a writer pipeline's backlog.
const writerScaleInterval = 10 * time.Millisecond

// newTask prepares (but does not start) a task of a compiled fragment, with
// frag's literals (none: those the fragment was planned with).
// exchangeSources maps upstream fragment ids to the task's page fetchers.
func newTask(id TaskID, cf *CompiledFragment, frag *TaskFragment, nodeID int, ex *Executor, reg ConnectorRegistry,
	qmem *memory.QueryContext, pool *memory.NodePool,
	outPartitions int, exchangeSources map[int][]shuffle.Fetcher, cfg TaskConfig) (*Task, error) {

	cfg = cfg.withDefaults()
	cfg.SpillEnabled = cfg.SpillEnabled && !cfg.Switches.Has(DisableSpill)
	params, err := cf.bind(frag.Values)
	if err != nil {
		return nil, err
	}
	t := &Task{
		ID:         id,
		nodeID:     nodeID,
		executor:   ex,
		connectors: reg,
		queryMem:   qmem,
		nodePool:   pool,
		output:     shuffle.NewOutputBuffer(outPartitions, cfg.OutputBufferBytes),
		handle:     NewTaskHandle(id.QueryID),
		cfg:        cfg,
		doneCh:     make(chan struct{}),
		params:     params,
		bridges:    make([]*operators.JoinBridge, len(cf.joins)),
		compiled:   make([]*pipelineSpec, len(cf.pipes)),
		single:     cf.single,
	}
	for i, js := range cf.joins {
		t.bridges[i] = t.newBridge(js)
	}
	for i, pt := range cf.pipes {
		p, err := t.instantiate(pt, frag)
		if err != nil {
			return nil, err
		}
		t.compiled[i] = p
		if p.source != srcScan {
			continue
		}
		if err := t.attachMorselQueue(p); err != nil {
			return nil, err
		}
	}

	// Unblock notifications: every structure a driver can park on kicks the
	// executor when its state changes. The executor does not poll, so that
	// Kick is the only way a parked driver resumes (§IV-F1 adaptation).
	kick := ex.Kick
	t.output.SetNotify(t.unblocked)
	for _, p := range t.compiled {
		if p.buildBridge != nil {
			p.buildBridge.SetNotify(t.unblocked)
		}
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
		if p.hasWriter {
			client.SetNotify(func() { kick(); t.maybeScaleWriters(p) })
		} else {
			client.SetNotify(kick)
		}
	}
	return t, nil
}

// unblocked, the output buffer's and the join bridges' notification, also
// re-evaluates held scan starts. It can fire under t.mu (terminate cancels
// the bridges and destroys the buffer), hence the goroutine.
func (t *Task) unblocked() {
	t.executor.Kick()
	if t.scanHeld.CompareAndSwap(true, false) {
		go t.resumeScans()
	}
}

// Output returns the task's partitioned output buffer.
func (t *Task) Output() *shuffle.OutputBuffer { return t.output }

// Start launches the task's non-split drivers and declares their pipelines
// (a writer pipeline once it cannot scale).
func (t *Task) Start() error {
	for _, client := range t.exchangeClients {
		client.Start()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return t.failed // killed between registration and start
	}
	for _, p := range t.compiled {
		switch p.source {
		case srcValues:
			src := operators.NewValuesOperator(p.values.Rows, p.values.Out.Types())
			if err := t.startDriverLocked(p, src, t.sourceCtx(p)); err != nil {
				return err
			}
		case srcExchange:
			sctx := t.sourceCtx(p)
			src := operators.NewExchangeSource(sctx, p.exchangeClient)
			if err := t.startDriverLocked(p, src, sctx); err != nil {
				return err
			}
			if p.hasWriter && p.driversStarted < t.cfg.MaxWriters {
				continue
			}
		default:
			continue // a scan declares when its queue is drained
		}
		t.declareNoMoreDriversLocked(p)
	}
	return nil
}

// sourceCtx builds the operator context for a pipeline's source position,
// sharing the pipeline's source stats slot across its drivers.
func (t *Task) sourceCtx(p *pipelineSpec) *operators.OpContext {
	return &operators.OpContext{
		Mem:   memory.NewLocalContext(t.queryMem, t.nodeID, memory.System),
		Stats: p.opStats[0],
	}
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
	lendOutputs(all)
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

// declareNoMoreDriversLocked records that the pipeline starts no more drivers
// and tells its bridges so; it is one of the two places a task can finish.
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
	t.maybeFinishLocked()
}

// AddSplit queues a split on the morsel queue of the scan pipeline scanID.
func (t *Task) AddSplit(scanID int, s connector.Split) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return nil
	}
	p := t.scanPipe(scanID)
	if p == nil {
		return fmt.Errorf("task %s has no scan pipeline %d", t.ID, scanID)
	}
	if t.dynSkip[scanID] {
		// Empty-build short circuit already proved this scan joins nothing.
		p.opStats[0].RecordDynSplitSkipped(1)
		return nil
	}
	p.morsels.addSplit(s)
	return t.maybeStartScanDriversLocked(p)
}

// scanDrivers is how many drivers a scan pipeline runs at most: the split
// concurrency target, but no more than the executor has threads — a driver
// beyond them would only compile an operator chain to find the queue drained.
// A partial aggregation in the pipeline is sized for as many instances. A single
// fragment's scan runs one driver: its aggregations are single steps.
func (t *Task) scanDrivers() int {
	if t.single {
		return 1
	}
	return min(t.cfg.TargetSplitConcurrency, t.executor.Threads())
}

// attachMorselQueue gives a scan pipeline the queue its drivers drain. The
// open function opens each split from its connector; the queue records
// every source it closes on the pipeline's shared source stats.
func (t *Task) attachMorselQueue(p *pipelineSpec) error {
	conn, err := t.connectors.Connector(p.handle.Catalog)
	if err != nil {
		return err
	}
	stats := p.opStats[0]
	q := newMorselQueue(DefaultMorselRows,
		func(s connector.Split) (connector.PageSource, error) {
			if err := t.cfg.Inject.Err(faultinject.SiteMorselOpen); err != nil {
				return nil, err
			}
			return t.openPageSource(conn, s, p, stats)
		})
	q.stats = stats
	q.onReady = t.executor.Kick
	q.onDrained = func() {
		t.mu.Lock()
		t.maybeDeclareScanDoneLocked(p)
		t.mu.Unlock()
	}
	p.morsels = q
	return nil
}

// NoMoreSplits declares split enumeration complete for a scan.
func (t *Task) NoMoreSplits(scanID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.scanPipe(scanID); p != nil {
		p.morsels.noMoreSplits()
		t.maybeDeclareScanDoneLocked(p)
	}
}

// maybeDeclareScanDoneLocked declares a scan pipeline's drivers complete once
// none can be started any more: enumeration is over and nothing is left to
// hand a new driver. It does not wait for the running drivers to finish —
// a probe of a spilled join cannot finish before it hears this. A single
// fragment's scan that got no split still runs its one driver over the empty
// queue: a global aggregation over no rows answers one row.
func (t *Task) maybeDeclareScanDoneLocked(p *pipelineSpec) {
	if !p.morsels.drained() {
		return
	}
	if t.single && p.driversStarted == 0 && t.failed == nil {
		sctx := t.sourceCtx(p)
		src := operators.NewMorselScan(sctx, &morselDriver{q: p.morsels, id: p.morsels.claimDriver()})
		if err := t.startDriverLocked(p, src, sctx); err != nil {
			t.failLocked(err)
			return
		}
	}
	t.declareNoMoreDriversLocked(p)
}

// maybeStartScanDriversLocked starts drivers on a scan pipeline up to the
// adaptive concurrency target while its queue has any work at all, so even a
// single oversized split fans out across every driver. Drivers are not tied
// to splits. When output buffer utilization is consistently high, effective
// concurrency drops (§IV-E2). DESIGN.md "Task lifecycle" lists its events.
func (t *Task) maybeStartScanDriversLocked(p *pipelineSpec) error {
	if p.noMoreDrivers {
		return nil
	}
	// Phased scheduling: hold probe splits until the build sides are ready.
	if t.cfg.Phased && t.holding(func() bool { return slices.ContainsFunc(p.probeBridges, unbuilt) }) {
		return nil
	}
	// Dynamic filters: briefly hold a subscribed scan's split starts until
	// its filters arrive (bounded — see dynGateLocked).
	if t.dynGateLocked(p) {
		return nil
	}
	target := t.scanDrivers()
	if target > 1 && t.holding(func() bool { return t.output.Utilization() > 0.5 }) {
		target = 1 // buffers full: lower effective concurrency
	}
	for p.driversStarted-p.driversDone < target && p.morsels.hasWork() {
		sctx := t.sourceCtx(p)
		src := operators.NewMorselScan(sctx, &morselDriver{q: p.morsels, id: p.morsels.claimDriver()})
		if err := t.startDriverLocked(p, src, sctx); err != nil {
			return err
		}
	}
	return nil
}

// holding reports whether cond holds a scan start back. It marks the hold
// before reading cond again, so the event that ends it finds the mark.
func (t *Task) holding(cond func() bool) bool {
	if !cond() {
		return false
	}
	t.scanHeld.Store(true)
	return cond()
}

func unbuilt(b *operators.JoinBridge) bool { return !b.Built() }

// resumeScans re-evaluates scan starts off-lock: a gate's deadline, a hold's end.
func (t *Task) resumeScans() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.startScansLocked()
}

// scanPipe returns the pipeline of scan scanID, nil if none.
func (t *Task) scanPipe(scanID int) *pipelineSpec {
	for _, p := range t.compiled {
		if p.source == srcScan && p.scanID == scanID {
			return p
		}
	}
	return nil
}

// startScansLocked re-evaluates every scan's driver starts.
func (t *Task) startScansLocked() {
	for _, p := range t.compiled {
		if p.source != srcScan {
			continue
		}
		if err := t.maybeStartScanDriversLocked(p); err != nil {
			t.failLocked(err)
			return
		}
	}
}

// openPageSource opens a split's PageSource from its connector.
//
// A split of a scan an empty build short-circuits is not opened at all.
// Dynamic filters that have arrived by open time narrow the table handle,
// which the connector uses for stripe/split pruning. Their row predicates
// run later, in the page processor on the scan (dynArrived): the
// source hands on exactly what the connector produced.
func (t *Task) openPageSource(conn connector.Connector, s connector.Split,
	p *pipelineSpec, stats *operators.OpStats) (connector.PageSource, error) {

	if t.dynEmpty(p) {
		stats.RecordDynSplitSkipped(1)
		return emptySource{}, nil
	}
	return conn.PageSource(s, p.scanCols, t.dynNarrowedHandle(p))
}

// driverDone is called by the executor when a driver completes; it is one of
// the two places a task can finish.
func (t *Task) driverDone(p *pipelineSpec, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.activeDrivers--
	p.driversDone++
	switch {
	case err != nil:
		t.failLocked(err)
	case p.source == srcScan:
		if serr := t.maybeStartScanDriversLocked(p); serr != nil {
			t.failLocked(serr)
		}
		t.maybeDeclareScanDoneLocked(p)
	case p.source == srcExchange:
		t.declareNoMoreDriversLocked(p) // a writer's exchange is drained: no more writers
	}
	t.maybeFinishLocked()
}

// failLocked fails the task unless it has failed already: parked drivers are
// released and every pipeline declared, so the task finishes as drivers exit.
func (t *Task) failLocked(err error) {
	if t.failed != nil {
		return
	}
	t.failed = err
	t.cancelPipelinesLocked()
	for _, p := range t.compiled {
		t.declareNoMoreDriversLocked(p)
	}
}

// cancelPipelinesLocked releases drivers parked on inter-pipeline handoffs so
// a failing or aborted task can wind down: join bridges are forced built (a
// dead build driver never drains the builder count, so probes would otherwise
// park forever). Released drivers may run
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
		if p.morsels != nil {
			p.morsels.cancel()
		}
	}
}

// maybeFinishLocked finalizes the task when no driver is running and every
// pipeline has declared its last driver, which Start does for the non-scan
// ones: a task that has not started cannot finish. Its output tells readers
// how it ended only after the cleanups ran and Done closed.
func (t *Task) maybeFinishLocked() {
	if t.activeDrivers > 0 {
		return
	}
	for _, p := range t.compiled {
		if !p.noMoreDrivers {
			return
		}
	}
	t.doneOnce.Do(func() {
		for _, fn := range t.cleanups {
			fn()
		}
		close(t.doneCh)
	})
	if t.failed != nil {
		t.output.Destroy(t.failed)
	} else {
		t.output.SetNoMorePages()
	}
}

// Done returns a channel closed when the task finishes (or fails).
func (t *Task) Done() <-chan struct{} { return t.doneCh }

// Err returns the task failure, if any.
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// Abort cancels the task, dropping buffered output (its readers fail).
func (t *Task) Abort() {
	t.terminate(fmt.Errorf("task %s aborted", t.ID))
}

// ErrTaskLost marks a task whose worker died mid-query. The query fails with
// it (errors.Is finds it through the coordinator's wrapping), and the client
// may retry the statement on the surviving workers (§IV-G).
var ErrTaskLost = errors.New("worker lost")

// MarkLost terminates the task as lost to worker death. Identical wind-down
// to Abort, but the error is classified so the client can tell a lost worker
// from a failed statement.
func (t *Task) MarkLost() {
	t.terminate(fmt.Errorf("task %s: %w", t.ID, ErrTaskLost))
}

// terminate winds the task down with the given failure unless it already
// carries one, which is then what its readers fail with.
func (t *Task) terminate(reason error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(reason)
	t.output.Destroy(t.failed)
	for _, c := range t.exchangeClients {
		c.Close()
	}
}

// maybeScaleWriters runs on a writer pipeline's input arrivals (under t.mu
// when terminate closes the exchange): at most once a writerScaleInterval, a
// backlog past the threshold — half the output buffer, at most 32 KiB (the
// paper's buffer-utilization trigger) — scales the writers off-lock.
func (t *Task) maybeScaleWriters(p *pipelineSpec) {
	threshold := t.cfg.OutputBufferBytes / 2
	if threshold <= 0 || threshold > 32<<10 {
		threshold = 32 << 10
	}
	now, last := time.Now().UnixNano(), p.scaledAt.Load()
	if now-last >= int64(writerScaleInterval) && p.exchangeClient.BufferedBytes() > threshold &&
		p.scaledAt.CompareAndSwap(last, now) {
		go t.scaleWriters(p)
	}
}

// scaleWriters doubles a writer pipeline's drivers, up to MaxWriters, where
// the pipeline declares its last (§IV-E3: writer concurrency grows when the
// producing stage outruns the sink). A writer that cannot be built fails the
// task.
func (t *Task) scaleWriters(p *pipelineSpec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.noMoreDrivers {
		return
	}
	for range min(p.driversStarted, t.cfg.MaxWriters-p.driversStarted) {
		sctx := t.sourceCtx(p)
		if err := t.startDriverLocked(p, operators.NewExchangeSource(sctx, p.exchangeClient), sctx); err != nil {
			t.failLocked(err)
			return
		}
	}
	if p.driversStarted >= t.cfg.MaxWriters {
		t.declareNoMoreDriversLocked(p)
		return
	}
	// Producers that sent everything in a burst send no more arrivals while
	// the backlog lasts: the next look is due regardless, one per step.
	time.AfterFunc(writerScaleInterval, func() { t.maybeScaleWriters(p) })
}

// CPUNanos reports task CPU time.
func (t *Task) CPUNanos() int64 { return t.handle.CPUNanos() }
