package coordinator

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/queue"
	"repro/internal/serving"
	"repro/internal/sqlparser"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config tunes the coordinator.
type Config struct {
	// DefaultCatalog resolves unqualified table names.
	DefaultCatalog string
	// Optimizer configures the planner.
	Optimizer optimizer.Config
	// Task configures task execution on workers.
	Task exec.TaskConfig
	// MemoryLimits are the per-query defaults (§IV-F2).
	MemoryLimits memory.QueryLimits
	// QueuePolicies configure admission (group "" is the default).
	QueuePolicies []queue.Policy
	// SplitBatchSize is the lazy enumeration batch (§IV-D3).
	SplitBatchSize int
	// Topology maps worker node ids to rack names for rack-local split
	// placement (§IV-D2); empty disables topology awareness.
	Topology map[int]string
	// FaultInject, when non-nil, injects deterministic faults at the
	// engine's I/O seams (split enumeration, shuffle fetches, task
	// creation) for chaos testing; see internal/faultinject.
	FaultInject *faultinject.Injector
	// Registry tracks worker processes registered over HTTP. When set and
	// the coordinator has no in-process workers, queries are scheduled onto
	// registered workers through the task API (distributed mode).
	Registry *WorkerRegistry
	// WorkerClient issues coordinator-to-worker HTTP requests in
	// distributed mode (nil = shuffle.ClusterClient()).
	WorkerClient *http.Client
	// Serving holds the high-QPS serving tier (plan + result caches); nil
	// disables both.
	Serving *serving.Tier
}

// maxScheduleRetries bounds re-admissions after transient scheduling failures.
const maxScheduleRetries = 2

// Session carries per-query client settings.
type Session struct {
	Catalog string
	// Source selects the admission queue group.
	Source string
	// User identifies the client (informational).
	User string
	// Switches turns shipped defaults off for this query (the A/B toggles;
	// over HTTP, the headers of exec.SwitchHeaders). The coordinator adds the
	// cluster's own set when it admits the statement.
	Switches exec.Switches
}

// apply folds the session's switches into a task configuration.
func (s Session) apply(cfg *exec.TaskConfig) { cfg.Switches |= s.Switches }

// QueryState tracks lifecycle.
type QueryState int

// Query lifecycle states.
const (
	StateQueued QueryState = iota
	StatePlanning
	StateRunning
	StateFinished
	StateFailed
)

func (s QueryState) String() string {
	return [...]string{"QUEUED", "PLANNING", "RUNNING", "FINISHED", "FAILED"}[s]
}

// QueryInfo captures a query's progress and statistics.
type QueryInfo struct {
	ID         string
	SQL        string
	State      QueryState
	Err        error
	Queued     time.Time
	Started    time.Time
	Finished   time.Time
	CPUNanos   int64
	PeakMemory int64
	Rows       int64
}

// Coordinator admits, plans, schedules and tracks queries (paper §III).
type Coordinator struct {
	Catalog *CatalogManager
	workers []*exec.Worker
	cfg     Config

	queue   *queue.Manager
	arbiter *memory.Arbiter
	pools   map[int]*memory.NodePool

	mu sync.Mutex
	// queries holds every query not yet finished or failed — live, what
	// RunningQueries and reserved-pool promotion walk — and the last
	// maxFinishedQueries that did, whose ids retired holds in the order they
	// ended: a ring whose oldest is forgotten when one more query ends.
	queries     map[string]*Query
	live        map[string]*Query
	retired     [maxFinishedQueries]string
	nextRetired int
	nextID      atomic.Int64 // the last query id issued; advanced under mu
	// singleRR rotates one-task stages over the workers across statements,
	// so the output stages — and small statements, which are one task — do
	// not all land on the first worker.
	singleRR atomic.Uint64

	// Cumulative dynamic-filter effect counters across finished queries
	// (exposed as gauges on /v1/metrics).
	dynRowsFiltered  atomic.Int64
	dynSplitsSkipped atomic.Int64
	dynWaitNanos     atomic.Int64

	// What distributed mode's control plane did, cumulatively: summaries that
	// arrived in a worker's status channel, unions a worker acknowledged, and
	// query DELETEs that never got through.
	dynPublications atomic.Int64
	dynDeliveries   atomic.Int64
	deleteFailures  atomic.Int64

	// Cumulative vectorized-projection counters across finished queries
	// (exposed as gauges on /v1/metrics).
	vecProjEvals  atomic.Int64
	cseHits       atomic.Int64
	dictEvictions atomic.Int64
	// dictRows counts, per operator name, the rows finished queries handled by
	// dictionary entry (OpStatsSnapshot.DictRows); dictRowsMu guards it.
	dictRowsMu sync.Mutex
	dictRows   map[string]int64

	// stmtLatency is the end-to-end statement latency histogram (admission
	// through final page), over the most recent statements.
	stmtLatency *metrics.RingHistogram
	// stageSkew is the input skew of finished queries' scanning stages.
	stageSkew *metrics.BucketHistogram
	// scanRowsPerPage is the mean page size of finished queries' scans.
	scanRowsPerPage *metrics.BucketHistogram
}

// Query is a running or finished query.
type Query struct {
	Info    QueryInfo
	session Session            // client settings captured at admission
	cancel  context.CancelFunc // cancels admission (set before registration)
	mu      sync.Mutex
	tasks   []taskClient // in placement order: what stats walk
	groups  []taskGroup  // the same tasks by worker: what control talks to
	// final is the tasks' tallies, taken when the query finished. From then
	// on they stand for the tasks: tasks and groups are dropped, so a
	// finished query keeps counters and not its operators, buffers and plans.
	final  []exec.TaskTally
	remote bool // the workers are other processes (see eachWorker)
	qmem   *memory.QueryContext
	result *Result
	coord  *Coordinator

	// splitsTotal counts splits enumerated so far (live progress counter;
	// final total once enumeration completes).
	splitsTotal atomic.Int64
}

// New creates a coordinator over the given workers.
func New(catalog *CatalogManager, workers []*exec.Worker, cfg Config) *Coordinator {
	if cfg.SplitBatchSize <= 0 {
		cfg.SplitBatchSize = 16
	}
	if cfg.DefaultCatalog == "" {
		cfg.DefaultCatalog = "memory"
	}
	pools := map[int]*memory.NodePool{}
	for _, w := range workers {
		pools[w.ID] = w.Pool
	}
	return &Coordinator{
		Catalog:         catalog,
		workers:         workers,
		cfg:             cfg,
		queue:           queue.NewManager(cfg.QueuePolicies...),
		arbiter:         memory.NewArbiter(pools),
		pools:           pools,
		stmtLatency:     metrics.NewRingHistogram(0),
		stageSkew:       metrics.NewBucketHistogram(1.05, 1.15, 1.5, 2, 4),
		scanRowsPerPage: metrics.NewBucketHistogram(1, 16, 256, 1024, 4096),
		queries:         map[string]*Query{},
		live:            map[string]*Query{},
	}
}

// AddWorker admits a new worker into the cluster mid-flight (elastic
// scale-out): it joins the scheduling list, the memory arbiter, and future
// queries' pool maps. Queries already running keep their pool snapshot and
// simply don't charge the new node.
func (c *Coordinator) AddWorker(w *exec.Worker) {
	c.mu.Lock()
	ws := make([]*exec.Worker, len(c.workers), len(c.workers)+1)
	copy(ws, c.workers)
	c.workers = append(ws, w)
	c.pools[w.ID] = w.Pool
	c.mu.Unlock()
	c.arbiter.AddPool(w.ID, w.Pool)
}

// KillWorker abruptly removes a worker (elastic scale-in / simulated crash).
// The worker leaves the scheduling list before its tasks are failed, so a
// client's retry of a query that failed with exec.ErrTaskLost is placed only
// on survivors. Returns false for an unknown id.
func (c *Coordinator) KillWorker(id int) bool {
	c.mu.Lock()
	var victim *exec.Worker
	ws := make([]*exec.Worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.ID == id && victim == nil {
			victim = w
			continue
		}
		ws = append(ws, w)
	}
	if victim == nil {
		c.mu.Unlock()
		return false
	}
	c.workers = ws
	c.mu.Unlock()
	victim.Kill()
	return true
}

// aliveWorkers snapshots the current scheduling list. The slice is immutable:
// AddWorker/KillWorker replace it rather than mutating in place.
func (c *Coordinator) aliveWorkers() []*exec.Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers
}

// poolsSnapshot copies the node-pool map for a query's private use: elastic
// scale-out mutates c.pools concurrently with the query's memory accounting.
func (c *Coordinator) poolsSnapshot() map[int]*memory.NodePool {
	c.mu.Lock()
	defer c.mu.Unlock()
	pools := make(map[int]*memory.NodePool, len(c.pools))
	for id, p := range c.pools {
		pools[id] = p
	}
	return pools
}

// MetaCacheStats returns zero counters.
//
// Deprecated: the coordinator keeps no metadata cache; a scan's splits are in
// hand when its connector lists them in memory (connector.Listed).
func (c *Coordinator) MetaCacheStats() cache.MetaStats { return cache.MetaStats{} }

// writeTargets collects the (catalog, table) pairs a plan writes to.
func writeTargets(n plan.Node) [][2]string {
	var out [][2]string
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil {
			return
		}
		if w, ok := n.(*plan.TableWrite); ok {
			out = append(out, [2]string{w.Catalog, w.Table})
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(n)
	return out
}

// Workers exposes the cluster's workers (used by experiments).
func (c *Coordinator) Workers() []*exec.Worker { return c.aliveWorkers() }

// Registry exposes the remote worker registry (nil in embedded mode).
func (c *Coordinator) Registry() *WorkerRegistry { return c.cfg.Registry }

// Execute runs a SQL statement to a streaming result. DDL statements
// (CREATE TABLE without AS, DROP TABLE, SHOW TABLES) execute immediately.
func (c *Coordinator) Execute(sql string, session Session) (*Result, error) {
	return c.ExecuteCtx(context.Background(), sql, session)
}

// ExecuteCtx is Execute with a context governing the query's queued phase:
// cancelling ctx while the query waits for admission removes it from the
// queue and fails it. Once the query is running, cancellation goes through
// Cancel (or abandoning the Result), not ctx — the context typically belongs
// to the HTTP request that submitted the statement, which completes long
// before the streaming result is drained.
func (c *Coordinator) ExecuteCtx(ctx context.Context, sql string, session Session) (*Result, error) {
	start := time.Now()
	session = c.admitSession(session)
	// Serving front door: a validated plan-cache hit skips the parser,
	// analyzer and optimizer entirely (only plannable read statements are
	// ever stored, so statement dispatch is implicit in the hit). The hit is
	// the unbound template: execute asks the result cache before it binds.
	pre, tmpl := c.cachedPlan(sql, session)
	if pre != nil {
		res, _, err := c.execute(ctx, nil, pre, tmpl, sql, session, start, true)
		return res, err
	}
	var slots []int
	if tmpl != nil {
		slots = tmpl.Pos
	}
	stmt, err := sqlparser.ParseSlots(sql, slots)
	if err != nil {
		c.observeLatency(start)
		return nil, fmt.Errorf("parse error: %w", err)
	}
	switch s := stmt.(type) {
	case *sqlparser.Explain:
		if s.Analyze {
			return c.explainAnalyze(ctx, s, sql, session)
		}
		defer c.observeLatency(start)
		return c.explain(s, session)
	case *sqlparser.ShowTables:
		defer c.observeLatency(start)
		return c.showTables(s, session)
	case *sqlparser.ShowCatalogs:
		defer c.observeLatency(start)
		names := c.Catalog.Catalogs()
		sort.Strings(names)
		rows := make([][]types.Value, len(names))
		for i, n := range names {
			rows[i] = []types.Value{types.VarcharValue(n)}
		}
		return literalResult([]string{"catalog"}, rows), nil
	case *sqlparser.Describe:
		defer c.observeLatency(start)
		return c.describe(s, session)
	case *sqlparser.DropTable:
		defer c.observeLatency(start)
		return c.dropTable(s, session)
	case *sqlparser.CreateTable:
		if s.AsQuery == nil {
			defer c.observeLatency(start)
			return c.createTable(s, session)
		}
		if err := c.createTableFor(s, session); err != nil {
			c.observeLatency(start)
			return nil, err
		}
		res, _, err := c.execute(ctx, stmt, nil, nil, sql, session, start, true)
		return res, err
	default:
		// tmpl carries the miss's template so the fresh plan is stored under
		// it and its result keyed by it (nil when both caches are off for
		// this statement).
		res, _, err := c.execute(ctx, stmt, nil, tmpl, sql, session, start, true)
		return res, err
	}
}

// Plan parses, analyzes, and optimizes a statement without executing it.
func (c *Coordinator) Plan(sql string, session Session) (plan.Node, *plan.DistributedPlan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, fmt.Errorf("parse error: %w", err)
	}
	return c.planStatement(stmt, c.admitSession(session), nil)
}

// admitSession fills in what a session leaves to the cluster: the default
// catalog, and the cluster's switches unioned into the session's — the
// statement's effective set from here on, computed once.
func (c *Coordinator) admitSession(s Session) Session {
	if s.Catalog == "" {
		s.Catalog = c.cfg.DefaultCatalog
	}
	s.Switches |= c.cfg.Task.Switches
	return s
}

// planStatement plans a statement. A non-nil schemas records the schema
// version each table it reads was resolved at (schemaLog).
func (c *Coordinator) planStatement(stmt sqlparser.Statement, session Session, schemas map[[2]string]int64) (plan.Node, *plan.DistributedPlan, error) {
	var catalogs analyzer.Catalogs = c.Catalog
	if schemas != nil {
		catalogs = schemaLog{c.Catalog, schemas}
	}
	az := analyzer.New(catalogs, session.Catalog)
	logical, err := az.PlanStatement(stmt)
	if err != nil {
		return nil, nil, err
	}
	optCfg := c.cfg.Optimizer
	if session.Switches.Has(exec.DisableDynamicFilters) {
		optCfg.DisableDynamicFilters = true
	}
	opt := optimizer.New(c.Catalog, optCfg)
	optimized := opt.Optimize(logical)
	dp := opt.Fragment(optimized)
	return optimized, dp, nil
}

// execute admits, plans, schedules and tracks one plannable statement
// through the cluster. pre, when non-nil, is a validated plan-cache entry
// that replaces the parse→analyze→optimize phase; stmt may then be nil. A
// template entry is bound to the statement's literals only if the result
// cache misses, and a statement whose literals do not bind is parsed and
// planned afresh. tmpl is the statement's plan-cache template,
// which keys both serving caches (nil when both are off for the statement or
// never hold it). servable gates the serving caches: EXPLAIN ANALYZE passes
// false because it must genuinely execute, so it neither serves nor stores
// cached results (and never stores its plan).
//
// Scheduling failures classified as transient (injected chaos faults,
// dropped connections) are recovered by bounded full-query re-admission: the
// slot is released, the query rejoins the admission queue, and scheduling
// restarts from scratch — the paper's client-driven retry model (§III)
// applied one layer down — at most maxScheduleRetries times.
func (c *Coordinator) execute(ctx context.Context, stmt sqlparser.Statement, pre *serving.PlanEntry,
	tmpl *serving.Template, sql string, session Session, start time.Time, servable bool) (*Result, *Query, error) {

	qctx, cancel := context.WithCancel(ctx)
	q := &Query{coord: c, cancel: cancel, session: session}
	c.mu.Lock()
	id := fmt.Sprintf("q%d", c.nextID.Add(1))
	q.Info = QueryInfo{ID: id, SQL: sql, State: StateQueued, Queued: time.Now()}
	c.queries[id] = q
	c.live[id] = q
	c.mu.Unlock()

	tier := c.cfg.Serving
	var logical plan.Node
	var dp *plan.DistributedPlan
	var forms []wire.Form // nil until a cached plan runs again
	var tables [][2]string
	var resultKey string
	// binds holds the statement's literals, which a plan parsed with its
	// template's slots runs with (none: a plan runs its own), and binds its
	// scans' constraints to them.
	binds := &scanBinder{}
	if tmpl != nil {
		binds.vals = tmpl.Values
	}

	resultCacheOn := servable && tier != nil && tier.Results != nil && !session.Switches.Has(exec.DisableResultCache)
	if pre != nil && resultCacheOn {
		// Pre-admission result check: a repeat of a cached statement skips
		// the queue, binding and execution. The entry is served while no
		// write since the cached run could have changed it. (The plan cache
		// holds only plans whose results may be cached: PlanEntry.ResultOK.)
		resultKey = serving.ResultKey(pre.ResultBase, tmpl.Values)
		if e, ok := tier.Results.Get(resultKey, c.resultFresh); ok {
			cancel()
			return c.servedResult(q, e, start), q, nil
		}
	}

	// end is the query's one teardown, however it ends: with err, whatever
	// tasks exist are aborted (which also releases what their clients hold)
	// and the query is failed; then memory, the admission slot (nil while the
	// query holds none) and the context go.
	var release func()
	var err error
	end := func(err error) {
		if err != nil {
			q.abort()
			q.fail(err)
		}
		if q.qmem != nil {
			q.qmem.Close()
			c.arbiter.Clear(id)
		}
		if release != nil {
			release()
		}
		cancel()
		c.observeLatency(start)
		c.retire(q)
	}
	if pre != nil {
		if c.canBind(pre, binds) {
			logical, dp, tables, forms = pre.Logical, pre.Distributed, pre.Tables, pre.Forms(encodeForms)
		} else if stmt, err = sqlparser.ParseSlots(sql, tmpl.Pos); err != nil {
			err = fmt.Errorf("parse error: %w", err)
			end(err)
			return nil, nil, err
		} else {
			pre, resultKey = nil, "" // the fresh plan keys its own result
		}
	}
	if release, err = c.queue.Acquire(qctx, session.Source); err != nil {
		end(err)
		return nil, nil, err
	}

	q.setState(StatePlanning)
	var schemas map[[2]string]int64
	if pre == nil {
		schemas = map[[2]string]int64{}
		logical, dp, err = c.planStatement(stmt, session, schemas)
		if err != nil {
			end(err)
			return nil, nil, err
		}
	}
	// Writes through process-local connectors cannot run on remote workers:
	// each worker would insert into its own private copy (satellite of the
	// adaptive-execution PR; see connector.DistributedWriteCapable).
	targets := writeTargets(logical)
	for _, t := range targets {
		if err := c.checkDistributedWrite(t[0]); err != nil {
			end(err)
			return nil, nil, err
		}
	}
	if pre == nil && tmpl != nil && len(targets) == 0 {
		// Freshly planned read-only statement: offer it to the serving tier.
		entry := c.buildPlanEntry(logical, dp, tmpl, schemas)
		tables = entry.Tables
		if planCacheOn, _ := c.servingOn(session); planCacheOn && entry.ResultOK {
			key := tmpl.Key
			if !entry.Template {
				key = tmpl.LiteralKey()
			}
			tier.Plans.Put(key, entry)
		}
		if resultCacheOn && entry.ResultOK {
			resultKey = serving.ResultKey(entry.ResultBase, tmpl.Values)
			if e, ok := tier.Results.Get(resultKey, c.resultFresh); ok {
				release()
				cancel()
				return c.servedResult(q, e, start), q, nil
			}
		} else if resultCacheOn {
			tier.Results.Skip()
		}
	}

	limits := c.cfg.MemoryLimits
	limits.SpillEnabled = c.cfg.Task.SpillEnabled && !session.Switches.Has(exec.DisableSpill)
	q.qmem = memory.NewQueryContext(id, limits, c.poolsSnapshot())
	q.qmem.PromoteHook = c.promoteHook

	// The versions a captured result is stamped at are read before any
	// split is enumerated: the rows are of these versions or later ones.
	var reads []serving.TableRead
	var readVersions []int64
	if resultKey != "" {
		reads, readVersions = scanReads(logical, tables, binds), c.tableVersions(tables)
	}

	q.setState(StateRunning)
	q.Info.Started = time.Now()
	var result *Result
	for attempt := 0; ; attempt++ {
		var workers []workerClient
		if workers, err = c.workerClients(); err == nil {
			result, err = c.schedule(workers, q, statementPlan{dp: dp, forms: forms, binds: binds})
		}
		if err == nil {
			break
		}
		// schedule aborted and drained its created tasks before returning.
		if !faultinject.IsTransient(err) || attempt >= maxScheduleRetries || qctx.Err() != nil {
			end(err)
			return nil, nil, err
		}
		// Transient failure: re-admit through the queue and retry. Forget
		// the failed attempt's aborted tasks (stats and CPU rollups would
		// otherwise double-count them).
		q.mu.Lock()
		q.tasks, q.groups = nil, nil
		q.mu.Unlock()
		q.setState(StateQueued)
		release()
		if release, err = c.queue.Acquire(qctx, session.Source); err != nil {
			end(err)
			return nil, nil, err
		}
		q.setState(StateRunning)
	}
	var capture *serving.Capture
	if resultKey != "" {
		// Capture the streamed pages; a clean drain commits them under the
		// key both lookups above missed on.
		capture = tier.Results.NewCapture(resultKey, reads)
		result.tee = capture.Observe
	}
	q.mu.Lock()
	q.result = result // Cancel reads it
	q.mu.Unlock()
	result.QueryID = id
	result.onClose = func(resErr error) {
		// Commit only a fully drained stream: a client may Close a completed
		// result with pages still undelivered, and those never reached the
		// capture. And only stamped at versions it holds at: the rows are of
		// some version from readVersions on, so a write since then that its
		// scans could have read leaves the result of no one version.
		if capture != nil && resErr == nil && result.drained {
			if now, ok := c.resultFresh(reads, readVersions); ok {
				capture.Commit(result.Columns, now)
			} else {
				capture.Abandon()
			}
		} else if capture != nil {
			capture.Abandon()
		}
		if resErr == nil {
			c.accumulateDynStats(q.finish())
		}
		end(resErr)
	}
	return result, q, nil
}

// Cancel cancels a query by id: a queued query is removed from the admission
// queue; a running query's result is failed with ErrCancelled and then its
// tasks are aborted. The failure comes first: the client's next fetch ends
// with it at once, where an abort alone would leave that fetch waiting for
// every driver to exit — a driver blocked in its connector exits only when the
// call returns. Returns false for unknown or already finished queries.
func (c *Coordinator) Cancel(id string) bool {
	c.mu.Lock()
	q, ok := c.queries[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	q.mu.Lock()
	st, res := q.Info.State, q.result
	q.mu.Unlock()
	if st == StateFinished || st == StateFailed {
		return false
	}
	if q.cancel != nil {
		q.cancel()
	}
	if res != nil {
		res.setFailure(ErrCancelled)
	}
	q.abort()
	return true
}

// maxFinishedQueries is how many finished queries the coordinator remembers
// for their info and stats; the oldest is forgotten when one more ends.
const maxFinishedQueries = 1024

// retire moves a query that has finished or failed out of the live set and
// into the ring of remembered ones, forgetting the oldest there. A query
// retires once.
func (c *Coordinator) retire(q *Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := q.Info.ID
	if c.live[id] == nil {
		return
	}
	delete(c.live, id)
	if old := c.retired[c.nextRetired]; old != "" {
		delete(c.queries, old)
	}
	c.retired[c.nextRetired] = id
	c.nextRetired = (c.nextRetired + 1) % maxFinishedQueries
}

// Forgotten reports whether id names a query this coordinator issued and has
// since forgotten: it ended, and maxFinishedQueries more ended after it.
func (c *Coordinator) Forgotten(id string) bool {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "q"), 10, 64)
	if err != nil || id != fmt.Sprintf("q%d", n) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return n >= 1 && n <= c.nextID.Load() && c.queries[id] == nil
}

// promoteHook implements reserved-pool promotion (§IV-F2): when a node's
// general pool is exhausted, the query using the most memory on that node is
// promoted to the reserved pool on all nodes.
func (c *Coordinator) promoteHook(node int) bool {
	c.mu.Lock()
	pool, ok := c.pools[node]
	if !ok {
		c.mu.Unlock()
		return false
	}
	var biggest string
	var biggestBytes int64 = -1
	for id := range c.live {
		u, s := pool.QueryBytes(id)
		if u+s > biggestBytes {
			biggestBytes = u + s
			biggest = id
		}
	}
	c.mu.Unlock()
	if biggest == "" {
		return false
	}
	return c.arbiter.TryPromote(biggest)
}

func (q *Query) setState(s QueryState) {
	q.mu.Lock()
	q.Info.State = s
	q.mu.Unlock()
}

func (q *Query) fail(err error) {
	q.mu.Lock()
	q.Info.State = StateFailed
	q.Info.Err = err
	q.Info.Finished = time.Now()
	q.mu.Unlock()
}

// finish marks the query finished, releases its task groups — every worker
// at once — and returns the tasks' tallies for the lifetime-counter rollups;
// the query keeps them in place of its tasks. The tallies are taken after the
// release, whose answer brings in a remote task's final CPU time.
func (q *Query) finish() []exec.TaskTally {
	q.mu.Lock()
	q.Info.State = StateFinished
	q.Info.Finished = time.Now()
	tasks, groups, remote := q.tasks, q.groups, q.remote
	q.mu.Unlock()
	eachWorker(len(groups), remote, func(i int) { groups[i].Close() })
	var cpu int64
	stats := make([]exec.TaskTally, len(tasks))
	for i, t := range tasks {
		stats[i] = t.Tally()
		cpu += stats[i].CPUNanos
	}
	q.mu.Lock()
	q.final, q.tasks, q.groups = stats, nil, nil
	q.Info.CPUNanos = cpu
	if q.qmem != nil {
		q.Info.PeakMemory = q.qmem.PeakBytes()
	}
	q.mu.Unlock()
	return stats
}

// abort cancels every task placed, every worker at once; a group's Abort also
// releases whatever it holds outside this process, exactly once.
func (q *Query) abort() {
	q.mu.Lock()
	groups, remote := q.groups, q.remote
	q.mu.Unlock()
	eachWorker(len(groups), remote, func(i int) { groups[i].Abort() })
}

// QueryInfo returns a snapshot of a query's state.
func (c *Coordinator) QueryInfo(id string) (QueryInfo, bool) {
	c.mu.Lock()
	q, ok := c.queries[id]
	c.mu.Unlock()
	if !ok {
		return QueryInfo{}, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.Info, true
}

// RunningQueries counts queries in the running state.
func (c *Coordinator) RunningQueries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, q := range c.live {
		q.mu.Lock()
		if q.Info.State == StateRunning {
			n++
		}
		q.mu.Unlock()
	}
	return n
}

// --- DDL ---

// remoteOnly reports that queries schedule onto remote worker processes
// (distributed mode: no in-process workers, a registry of remote ones).
func (c *Coordinator) remoteOnly() bool {
	return len(c.workers) == 0 && c.cfg.Registry != nil
}

// checkDistributedWrite rejects writes into process-local catalogs when tasks
// run on remote workers: such a connector's PageSink lands rows in the
// worker's private memory, so the "written" table would be empty (or
// per-worker garbage) everywhere else. Connectors whose storage is visible
// cluster-wide opt in via connector.DistributedWriteCapable.
func (c *Coordinator) checkDistributedWrite(catalog string) error {
	if !c.remoteOnly() {
		return nil
	}
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return err
	}
	if dw, ok := conn.(connector.DistributedWriteCapable); ok && dw.DistributedWrites() {
		return nil
	}
	return fmt.Errorf("catalog %q does not support writes in distributed mode: "+
		"its storage is process-local, so rows written on a remote worker would be "+
		"invisible to the rest of the cluster (CREATE TABLE/INSERT require a "+
		"distributed-write-capable connector here)", catalog)
}

func (c *Coordinator) createTable(s *sqlparser.CreateTable, session Session) (*Result, error) {
	catalog, table := splitName(s.Name, session.Catalog)
	if err := c.checkDistributedWrite(catalog); err != nil {
		return nil, err
	}
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return nil, err
	}
	if s.IfNotExists && conn.Table(table) != nil {
		return literalResult([]string{"result"}, [][]types.Value{{types.VarcharValue("OK")}}), nil
	}
	var cols []connectorColumn
	for _, cd := range s.Columns {
		t, err := types.ParseType(cd.Type)
		if err != nil {
			return nil, err
		}
		cols = append(cols, connectorColumn{Name: strings.ToLower(cd.Name), T: t})
	}
	if err := conn.CreateTable(table, toConnectorCols(cols)); err != nil {
		return nil, err
	}
	return literalResult([]string{"result"}, [][]types.Value{{types.VarcharValue("OK")}}), nil
}

// createTableFor registers the target table of CREATE TABLE AS before the
// insert plan runs.
func (c *Coordinator) createTableFor(s *sqlparser.CreateTable, session Session) error {
	catalog, table := splitName(s.Name, session.Catalog)
	if err := c.checkDistributedWrite(catalog); err != nil {
		return err
	}
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return err
	}
	if conn.Table(table) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("table %s.%s already exists", catalog, table)
	}
	// Derive the schema from the query.
	az := analyzer.New(c.Catalog, session.Catalog)
	out, err := az.PlanQuery(s.AsQuery)
	if err != nil {
		return err
	}
	var cols []connectorColumn
	for _, f := range out.Schema() {
		cols = append(cols, connectorColumn{Name: strings.ToLower(f.Name), T: f.T})
	}
	return conn.CreateTable(table, toConnectorCols(cols))
}

func (c *Coordinator) dropTable(s *sqlparser.DropTable, session Session) (*Result, error) {
	catalog, table := splitName(s.Name, session.Catalog)
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return nil, err
	}
	if conn.Table(table) == nil {
		if s.IfExists {
			return literalResult([]string{"result"}, [][]types.Value{{types.VarcharValue("OK")}}), nil
		}
		return nil, fmt.Errorf("table %s.%s does not exist", catalog, table)
	}
	if err := conn.DropTable(table); err != nil {
		return nil, err
	}
	return literalResult([]string{"result"}, [][]types.Value{{types.VarcharValue("OK")}}), nil
}

func (c *Coordinator) showTables(s *sqlparser.ShowTables, session Session) (*Result, error) {
	catalog := session.Catalog
	if s.Catalog != "" {
		catalog = s.Catalog
	}
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return nil, err
	}
	names := conn.Tables()
	sort.Strings(names)
	rows := make([][]types.Value, len(names))
	for i, n := range names {
		rows[i] = []types.Value{types.VarcharValue(n)}
	}
	return literalResult([]string{"table"}, rows), nil
}

// describe renders a table's schema.
func (c *Coordinator) describe(s *sqlparser.Describe, session Session) (*Result, error) {
	_, meta, err := c.Catalog.Resolve(s.Name, session.Catalog)
	if err != nil {
		return nil, err
	}
	rows := make([][]types.Value, len(meta.Columns))
	for i, col := range meta.Columns {
		rows[i] = []types.Value{types.VarcharValue(col.Name), types.VarcharValue(col.T.String())}
	}
	return literalResult([]string{"column", "type"}, rows), nil
}

// explainAnalyze executes the statement and reports the plan annotated with
// run statistics (wall time, aggregate task CPU, peak memory, output rows)
// and the switches it ran under.
func (c *Coordinator) explainAnalyze(ctx context.Context, s *sqlparser.Explain, sql string, session Session) (*Result, error) {
	logical, dp, err := c.planStatement(s.Stmt, session, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, q, err := c.execute(ctx, s.Stmt, nil, nil, sql, session, start, false)
	if err != nil {
		return nil, err
	}
	var outRows int64
	for {
		p, err := res.NextPage()
		if err != nil {
			return nil, err
		}
		if p == nil {
			break
		}
		outRows += int64(p.RowCount())
	}
	wall := time.Since(start)
	q.mu.Lock()
	info := q.Info
	q.mu.Unlock()
	text := plan.Format(logical) + "\n" + dp.Format()
	text += fmt.Sprintf("\nwall: %s  task CPU: %s  peak memory: %d bytes  output rows: %d\n",
		wall.Round(time.Millisecond), time.Duration(info.CPUNanos).Round(time.Millisecond),
		info.PeakMemory, outRows)
	text += "switches: " + session.Switches.String() + "\n"
	if st, ok := c.QueryStats(info.ID); ok {
		text += "\n" + FormatOperatorTable(st)
	}
	var rows [][]types.Value
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, []types.Value{types.VarcharValue(line)})
	}
	lr := literalResult([]string{"plan"}, rows)
	lr.QueryID = info.ID
	return lr, nil
}

func (c *Coordinator) explain(s *sqlparser.Explain, session Session) (*Result, error) {
	logical, dp, err := c.planStatement(s.Stmt, session, nil)
	if err != nil {
		return nil, err
	}
	text := plan.Format(logical) + "\n" + dp.Format()
	var rows [][]types.Value
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, []types.Value{types.VarcharValue(line)})
	}
	return literalResult([]string{"plan"}, rows), nil
}

func splitName(n sqlparser.QualifiedName, defaultCatalog string) (string, string) {
	if len(n.Parts) >= 2 {
		return strings.ToLower(n.Parts[0]), strings.ToLower(n.Parts[len(n.Parts)-1])
	}
	return defaultCatalog, strings.ToLower(n.Parts[0])
}

// Serving exposes the serving tier (nil when disabled).
func (c *Coordinator) Serving() *serving.Tier { return c.cfg.Serving }

// ServingStats snapshots the plan- and result-cache counters.
func (c *Coordinator) ServingStats() serving.TierStats { return c.cfg.Serving.Stats() }

// StatementLatency exposes the end-to-end statement latency histogram.
func (c *Coordinator) StatementLatency() *metrics.RingHistogram { return c.stmtLatency }

// AdmissionStats snapshots per-group admission queue depths.
func (c *Coordinator) AdmissionStats() []queue.GroupStats { return c.queue.AllStats() }
