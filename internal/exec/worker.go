package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/shuffle"
)

// Worker is one node of the cluster: a cooperative executor, a node memory
// pool, and the tasks currently assigned to it (paper §III). Multiple
// queries share the worker's long-lived process, mirroring Presto's shared
// JVM design.
type Worker struct {
	ID   int
	Exec *Executor
	Pool *memory.NodePool

	connectors ConnectorRegistry
	cfg        TaskConfig
	inject     *faultinject.Injector

	mu     sync.Mutex
	tasks  map[TaskID]*Task
	killed bool
}

// WorkerConfig sizes a worker.
type WorkerConfig struct {
	Threads           int
	Quanta            time.Duration
	FIFO              bool
	GeneralPoolBytes  int64
	ReservedPoolBytes int64
	// FaultInject threads the cluster's injector into the task-start seam.
	FaultInject *faultinject.Injector
	Task        TaskConfig
}

// NewWorker creates and starts a worker node.
func NewWorker(id int, reg ConnectorRegistry, cfg WorkerConfig) *Worker {
	if cfg.GeneralPoolBytes <= 0 {
		cfg.GeneralPoolBytes = 1 << 30
	}
	if cfg.ReservedPoolBytes <= 0 {
		cfg.ReservedPoolBytes = 256 << 20
	}
	return &Worker{
		ID:         id,
		Exec:       NewExecutor(ExecutorConfig{Threads: cfg.Threads, Quanta: cfg.Quanta, FIFO: cfg.FIFO}),
		Pool:       memory.NewNodePool(cfg.GeneralPoolBytes, cfg.ReservedPoolBytes),
		connectors: reg,
		cfg:        cfg.Task,
		inject:     cfg.FaultInject,
		tasks:      map[TaskID]*Task{},
	}
}

// CacheStats returns zero: workers keep no page cache.
//
// Deprecated: it stays only because the benchmark module calls it.
func (w *Worker) CacheStats() cache.Stats { return cache.Stats{} }

// CreateTask instantiates and starts a task for a fragment. relay routes the
// dynamic-filter summaries its joins build for other fragments' scans (the
// zero value: none leave the task).
func (w *Worker) CreateTask(id TaskID, f *plan.Fragment, qmem *memory.QueryContext,
	outPartitions int, exchangeSources map[int][]shuffle.Fetcher, overrides *TaskConfig, relay FilterRelay) (*Task, error) {

	cfg := w.cfg
	if overrides != nil {
		cfg = *overrides
	}
	if cfg.Inject == nil {
		cfg.Inject = w.inject
	}
	t, err := NewTask(id, f, w.ID, w.Exec, w.connectors, qmem, w.Pool, outPartitions, exchangeSources, cfg)
	if err != nil {
		return nil, err
	}
	t.setRelay(relay)
	// Liveness is checked in the critical section that registers the task:
	// Kill marks the worker dead and snapshots w.tasks under the same lock,
	// so a task is either refused here or lost with its worker — never
	// started on an executor that Kill has already closed.
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		t.Abort()
		return nil, fmt.Errorf("worker %d is dead: %w", w.ID, ErrTaskLost)
	}
	w.tasks[id] = t
	w.mu.Unlock()
	// Reap the task when done — including a task whose Start fails.
	go func() {
		<-t.Done()
		w.mu.Lock()
		delete(w.tasks, id)
		w.mu.Unlock()
	}()
	if err := cfg.Inject.Err(faultinject.SiteTaskStart); err != nil {
		t.Abort()
		return nil, err
	}
	if err := t.Start(); err != nil {
		t.Abort()
		return nil, err
	}
	return t, nil
}

// TaskCount returns the number of live tasks (for scheduling metrics).
func (w *Worker) TaskCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tasks)
}

// OutputBufferUtilization reports the worst (maximum) shuffle output-buffer
// fill fraction across the worker's live tasks, the backpressure signal the
// /v1/metrics endpoint exposes.
func (w *Worker) OutputBufferUtilization() float64 {
	w.mu.Lock()
	ts := make([]*Task, 0, len(w.tasks))
	for _, t := range w.tasks {
		ts = append(ts, t)
	}
	w.mu.Unlock()
	max := 0.0
	for _, t := range ts {
		if u := t.Output().Utilization(); u > max {
			max = u
		}
	}
	return max
}

// Kill simulates abrupt worker death for elastic scale-in and crash tests:
// every live task fails with ErrTaskLost (so its query fails and the client
// may retry), and the worker refuses new tasks. Unlike Close, Kill does not
// wait for tasks to drain — that is the point.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	ts := make([]*Task, 0, len(w.tasks))
	for _, t := range w.tasks {
		ts = append(ts, t)
	}
	w.mu.Unlock()
	for _, t := range ts {
		t.MarkLost()
	}
	w.Exec.Close()
}

// Close stops the worker.
func (w *Worker) Close() {
	w.Exec.Close()
}

// String renders the worker for logs.
func (w *Worker) String() string { return fmt.Sprintf("worker-%d", w.ID) }
