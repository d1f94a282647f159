// Package presto is a from-scratch Go implementation of the architecture
// described in "Presto: SQL on Everything" (ICDE 2019): a distributed SQL
// query engine with a coordinator, cooperative multi-tasking workers,
// columnar paged execution, a rule- and cost-based optimizer, pluggable
// connectors, integrated memory management, and buffered streaming shuffles.
//
// The primary entry point is Cluster, an in-process cluster of N worker
// nodes plus a coordinator:
//
//	c := presto.NewCluster(presto.ClusterConfig{Workers: 4})
//	defer c.Close()
//	c.Register(memconn.New("memory"))
//	res, err := c.Execute("SELECT 1 + 2")
//
// The same engine also runs as real network services: cmd/prestod starts a
// coordinator or worker speaking the HTTP protocol, and cmd/presto-cli is an
// interactive client.
package presto

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/queue"
	"repro/internal/serving"
	"repro/internal/types"
)

// Re-exported types so applications can use the engine without importing
// internal packages directly.
type (
	// Value is a boxed SQL value.
	Value = types.Value
	// Type is a SQL type.
	Type = types.Type
	// Connector integrates an external data source (the Connector API).
	Connector = connector.Connector
	// Column describes a connector table column.
	Column = connector.Column
	// Result streams query output.
	Result = coordinator.Result
	// Session carries per-query settings.
	Session = coordinator.Session
	// QueryInfo reports query state and statistics.
	QueryInfo = coordinator.QueryInfo
	// QueryStats is the live per-operator statistics rollup.
	QueryStats = coordinator.QueryStats
	// QueuePolicy bounds a resource group's admission.
	QueuePolicy = queue.Policy
)

// SQL type constants.
const (
	Boolean = types.Boolean
	Bigint  = types.Bigint
	Double  = types.Double
	Varchar = types.Varchar
	Date    = types.Date
)

// ClusterConfig sizes an in-process cluster.
type ClusterConfig struct {
	// Workers is the number of worker nodes (default 4).
	Workers int
	// ThreadsPerWorker sizes each worker's executor (default 4).
	ThreadsPerWorker int
	// Quanta is the cooperative scheduling quanta (default 20ms; the paper
	// uses 1s at production scale).
	Quanta time.Duration
	// FIFOScheduler disables the multi-level feedback queue (ablation).
	FIFOScheduler bool
	// DefaultCatalog resolves unqualified table names (default "memory"; a
	// memconn catalog of that name is registered automatically).
	DefaultCatalog string
	// NodeMemoryBytes is each worker's general pool (default 1 GiB).
	NodeMemoryBytes int64
	// QueryMemoryBytes is the per-query global user limit (default
	// unlimited).
	QueryMemoryBytes int64
	// PerNodeQueryMemoryBytes is the per-query per-node user limit.
	PerNodeQueryMemoryBytes int64
	// SpillEnabled lets aggregations and join builds spill to disk under
	// memory pressure (per-query opt-out: the DisableSpill switch).
	SpillEnabled bool
	// SpillDir is where spill files land (empty = OS temp dir).
	SpillDir string
	// DisableStats turns off cost-based optimization (Figure 6's
	// "no stats" configuration).
	DisableStats bool
	// DisableColocated turns off co-located join planning (ablation).
	DisableColocated bool
	// Interpreted forces interpreted expression evaluation (the codegen
	// ablation, §V-B).
	Interpreted bool
	// DisableVectorKernels and DisableVectorProjections are kept only because
	// the frozen benchmark names them; the only path without the kernels left
	// is the interpreter, so either means Interpreted.
	//
	// Deprecated: set Interpreted.
	DisableVectorKernels, DisableVectorProjections bool
	// DisableMorsels is kept only because the frozen benchmark names it. It
	// does nothing: the morsel queue runs every scan.
	//
	// Deprecated: there is no other scan scheduler.
	DisableMorsels bool
	// DisableSharedScans is kept only because the frozen benchmark names it.
	// It does nothing: no two queries share a scan.
	//
	// Deprecated: there are no shared scans to disable.
	DisableSharedScans bool
	// DisableDynamicFilters turns off runtime dynamic join filters
	// cluster-wide (the adaptive-execution ablation; per-query: the switch of
	// the same name, as for every Disable* field below that has one).
	DisableDynamicFilters bool
	// DynamicFilterWait bounds how long a probe scan waits for a dynamic
	// filter built in another fragment before running unfiltered (default
	// 100ms; negative disables waiting — late filters still narrow later
	// splits). A filter its own task builds never keeps a scan waiting.
	DynamicFilterWait time.Duration
	// Phased enables phased stage scheduling (§IV-D1); default is
	// all-at-once.
	Phased bool
	// QueuePolicies configure admission control.
	QueuePolicies []QueuePolicy
	// TargetSplitConcurrency is the per-task concurrent split target.
	TargetSplitConcurrency int
	// OutputBufferBytes sizes shuffle buffers (default 16 MiB).
	OutputBufferBytes int64
	// PageSize is the target rows per page (default 1024).
	PageSize int
	// MaxWriters bounds adaptive writer scaling per task (§IV-E3).
	MaxWriters int
	// WriteDelay simulates remote-storage write latency per page (used by
	// the adaptive-writers experiment).
	WriteDelay func()
	// FaultInjector, when non-nil, injects deterministic faults at the
	// cluster's I/O seams (split enumeration, page fetch, shuffle fetch, task
	// creation) — see internal/faultinject. Nil means no faults.
	FaultInjector *faultinject.Injector
	// PageCacheBytes is kept only because the frozen benchmark names it. It
	// does nothing: workers keep no page cache.
	//
	// Deprecated: there is no page cache to size.
	PageCacheBytes int64
	// MetadataCacheTTL bounds how long the coordinator metadata/split cache
	// keeps an entry (default 30s; negative disables metadata caching). It
	// does not keep entries fresh: each key names the version of the table
	// it describes, so a change to the table, made through the engine or
	// outside it, is a miss at once.
	MetadataCacheTTL time.Duration
	// DisablePlanCache turns off the serving tier's parse→plan cache
	// cluster-wide.
	DisablePlanCache bool
	// DisableResultCache turns off the serving tier's versioned result cache
	// cluster-wide.
	DisableResultCache bool
}

// Cluster is an in-process Presto-style cluster: one coordinator and N
// workers sharing the process, connected by in-memory shuffles.
type Cluster struct {
	Coordinator *coordinator.Coordinator
	workers     []*exec.Worker
	catalog     *coordinator.CatalogManager

	// workerCfg templates elastically added workers; guarded by mu together
	// with workers and nextWorkerID.
	workerCfg    exec.WorkerConfig
	mu           sync.Mutex
	nextWorkerID int
}

// NewCluster creates and starts a cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.ThreadsPerWorker <= 0 {
		cfg.ThreadsPerWorker = 4
	}
	if cfg.DefaultCatalog == "" {
		cfg.DefaultCatalog = "memory"
	}
	catalog := coordinator.NewCatalogManager()
	catalog.Register(memconn.New(cfg.DefaultCatalog))

	taskCfg := exec.TaskConfig{
		PageSize:               cfg.PageSize,
		OutputBufferBytes:      cfg.OutputBufferBytes,
		TargetSplitConcurrency: cfg.TargetSplitConcurrency,
		SpillEnabled:           cfg.SpillEnabled,
		SpillDir:               cfg.SpillDir,
		Interpreted:            cfg.Interpreted || cfg.DisableVectorKernels || cfg.DisableVectorProjections,
		DynamicFilterWait:      cfg.DynamicFilterWait,
		Phased:                 cfg.Phased,
		MaxWriters:             cfg.MaxWriters,
		WriteDelay:             cfg.WriteDelay,
	}
	// The cluster's switches are folded once, before anything is built from
	// them: workers, coordinator and every task read this one set.
	fold := func(on bool, s exec.Switches) {
		if on {
			taskCfg.Switches |= s
		}
	}
	fold(cfg.DisableDynamicFilters, exec.DisableDynamicFilters)
	fold(cfg.DisablePlanCache, exec.DisablePlanCache)
	fold(cfg.DisableResultCache, exec.DisableResultCache)
	wcfg := exec.WorkerConfig{
		Threads:          cfg.ThreadsPerWorker,
		Quanta:           cfg.Quanta,
		FIFO:             cfg.FIFOScheduler,
		GeneralPoolBytes: cfg.NodeMemoryBytes,
		FaultInject:      cfg.FaultInjector,
		Task:             taskCfg,
	}
	workers := make([]*exec.Worker, cfg.Workers)
	for i := range workers {
		workers[i] = exec.NewWorker(i, catalog, wcfg)
	}
	optCfg := optimizer.DefaultConfig()
	optCfg.UseStats = !cfg.DisableStats
	optCfg.DisableColocated = cfg.DisableColocated

	// The caches exist whatever the switches say: the coordinator consults a
	// statement's effective set before either, as it does for every switch.
	tier := &serving.Tier{
		Plans: serving.NewPlanCache(serving.PlanCacheConfig{}),
		Results: serving.NewResultCache(serving.ResultCacheConfig{
			Accountant: serving.NewPoolAccountant(workers[0].Pool, serving.ResultPoolOwner),
			Inject:     cfg.FaultInjector,
		}),
	}

	coord := coordinator.New(catalog, workers, coordinator.Config{
		DefaultCatalog: cfg.DefaultCatalog,
		Optimizer:      optCfg,
		Task:           taskCfg,
		MemoryLimits: memory.QueryLimits{
			GlobalUser:  cfg.QueryMemoryBytes,
			PerNodeUser: cfg.PerNodeQueryMemoryBytes,
		},
		QueuePolicies: cfg.QueuePolicies,
		FaultInject:   cfg.FaultInjector,
		MetadataTTL:   cfg.MetadataCacheTTL,
		Serving:       tier,
	})
	return &Cluster{
		Coordinator:  coord,
		workers:      workers,
		catalog:      catalog,
		workerCfg:    wcfg,
		nextWorkerID: cfg.Workers,
	}
}

// AddWorker starts a fresh worker from the cluster's configuration template
// and admits it into the coordinator's scheduling list mid-flight (elastic
// scale-out).
func (c *Cluster) AddWorker() *exec.Worker {
	c.mu.Lock()
	id := c.nextWorkerID
	c.nextWorkerID++
	wcfg := c.workerCfg
	c.mu.Unlock()
	w := exec.NewWorker(id, c.catalog, wcfg)
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.Coordinator.AddWorker(w)
	return w
}

// KillWorker abruptly kills a worker by id (simulated crash / elastic
// scale-in): its tasks fail as lost, so every query running on it fails with
// exec.ErrTaskLost and the client may retry it on the survivors (§IV-G).
// Returns false for an unknown id.
func (c *Cluster) KillWorker(id int) bool {
	return c.Coordinator.KillWorker(id)
}

// Register adds a connector catalog to the cluster.
func (c *Cluster) Register(conn Connector) { c.catalog.Register(conn) }

// Execute runs a SQL statement with default session settings, returning a
// streaming result.
func (c *Cluster) Execute(sql string) (*Result, error) {
	return c.Coordinator.Execute(sql, Session{})
}

// ExecuteSession runs a SQL statement with explicit session settings.
func (c *Cluster) ExecuteSession(sql string, s Session) (*Result, error) {
	return c.Coordinator.Execute(sql, s)
}

// ExecuteCtx runs a SQL statement; ctx cancellation abandons the query while
// it is queued for admission (a running query keeps going — use Cancel or
// Result.Close to stop it).
func (c *Cluster) ExecuteCtx(ctx context.Context, sql string, s Session) (*Result, error) {
	return c.Coordinator.ExecuteCtx(ctx, sql, s)
}

// Cancel cancels a query by its id (Result.QueryID): a queued query leaves
// the admission queue, a running one aborts its tasks. Returns false for an
// unknown or already-finished query.
func (c *Cluster) Cancel(id string) bool { return c.Coordinator.Cancel(id) }

// Query runs a statement and collects all rows (convenience).
func (c *Cluster) Query(sql string) ([][]Value, error) {
	res, err := c.Execute(sql)
	if err != nil {
		return nil, err
	}
	rows, err := res.All()
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// QueryRow runs a statement expected to yield a single row.
func (c *Cluster) QueryRow(sql string) ([]Value, error) {
	rows, err := c.Query(sql)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("expected 1 row, got %d", len(rows))
	}
	return rows[0], nil
}

// Explain returns the optimized logical and distributed plans as text.
func (c *Cluster) Explain(sql string) (string, error) {
	res, err := c.Execute("EXPLAIN " + sql)
	if err != nil {
		return "", err
	}
	rows, err := res.All()
	if err != nil {
		return "", err
	}
	out := ""
	for _, r := range rows {
		out += r[0].S + "\n"
	}
	return out, nil
}

// Workers exposes worker nodes (for experiments and tests). The returned
// slice is a snapshot; elastic AddWorker/KillWorker do not mutate it.
func (c *Cluster) Workers() []*exec.Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*exec.Worker(nil), c.workers...)
}

// MetaCacheStats snapshots the coordinator metadata/split cache counters.
func (c *Cluster) MetaCacheStats() cache.MetaStats {
	return c.Coordinator.MetaCacheStats()
}

// ServingStats snapshots the serving tier's plan- and result-cache counters
// (zero when the tier is disabled).
func (c *Cluster) ServingStats() serving.TierStats {
	return c.Coordinator.ServingStats()
}

// ClearServingCaches drops every cached plan and result (cold-start for
// benchmarks and A/B runs).
func (c *Cluster) ClearServingCaches() {
	if t := c.Coordinator.Serving(); t != nil {
		t.Clear()
	}
}

// QueryStats snapshots a query's live statistics rollup: splits done/total,
// rows/bytes read, and per-stage operator timing and memory. The id comes
// from Result.QueryID; it remains valid after the query finishes.
func (c *Cluster) QueryStats(id string) (QueryStats, bool) {
	return c.Coordinator.QueryStats(id)
}

// FormatOperatorTable renders QueryStats as the per-operator text table used
// by EXPLAIN ANALYZE and presto-cli --stats.
func FormatOperatorTable(st QueryStats) string {
	return coordinator.FormatOperatorTable(st)
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	ws := append([]*exec.Worker(nil), c.workers...)
	c.mu.Unlock()
	for _, w := range ws {
		w.Close()
	}
}
