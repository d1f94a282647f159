package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Executor is one worker node's cooperative multi-tasking engine
// (paper §IV-F1): a fixed set of threads runs drivers from a multi-level
// feedback queue. A driver runs for at most one quanta before relinquishing
// its thread; blocked drivers (full output buffers, empty input buffers,
// joins waiting on builds) yield immediately. As a task accumulates CPU time
// it moves to higher (lower-priority) levels, each with a configurable
// fraction of thread time — so short, inexpensive queries exit quickly while
// long queries share the rest.
type Executor struct {
	cfg ExecutorConfig

	mu      sync.Mutex
	cond    *sync.Cond
	levels  [nLevels][]*driverRunner
	blocked []*driverRunner
	closed  bool
	// kicks counts Kicks: a parked runner whose count is behind it may have
	// been unblocked.
	kicks uint64

	// levelScheduled tracks thread-time given to each level for the
	// weighted selection policy. It decays periodically so the fair-share
	// comparison reflects recent history: without decay, a level that was
	// busy in the past would outrank fresh level-0 arrivals forever.
	levelScheduled [nLevels]int64
	decayBudget    int64

	busyNanos  atomic.Int64
	startTime  time.Time
	wg         sync.WaitGroup
	activeRuns atomic.Int64
}

// ExecutorConfig tunes the executor. A parked driver has no timer: it comes
// back when an unblock source Kicks the executor, and at no other time.
type ExecutorConfig struct {
	// Threads is the number of concurrent driver slots (default 4).
	Threads int
	// Quanta is the maximum uninterrupted run per slot. The paper uses one
	// second; the scaled-down default here is 20ms.
	Quanta time.Duration
	// FIFO disables the multi-level feedback queue (scheduler ablation):
	// drivers run in arrival order with no level priorities.
	FIFO bool
}

const nLevels = 5

// levelWeights gives each level its fraction of thread time: level 0
// (youngest tasks) gets the largest share.
var levelWeights = [nLevels]int64{16, 8, 4, 2, 1}

// levelThresholds move a task up a level as its aggregate CPU grows (the
// paper's 1s-quanta boundaries scaled down 10x).
var levelThresholds = [nLevels]time.Duration{
	0,
	100 * time.Millisecond,
	1 * time.Second,
	6 * time.Second,
	30 * time.Second,
}

// TaskHandle aggregates CPU across the drivers of one task so MLFQ level
// selection is per task, not per split (§IV-F1).
type TaskHandle struct {
	cpuNanos atomic.Int64
	queryID  string
}

// NewTaskHandle creates the per-task accounting shared by its drivers.
func NewTaskHandle(queryID string) *TaskHandle { return &TaskHandle{queryID: queryID} }

// CPUNanos returns the task's accumulated processing time.
func (t *TaskHandle) CPUNanos() int64 { return t.cpuNanos.Load() }

type driverRunner struct {
	driver *Driver
	task   *TaskHandle
	done   func(error)
	// kicks is the executor's Kick count when the runner was last picked or
	// looked at while parked: a parked runner is looked at again only once
	// a later Kick has come.
	kicks uint64
}

// NewExecutor creates and starts an executor.
func NewExecutor(cfg ExecutorConfig) *Executor {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Quanta <= 0 {
		cfg.Quanta = 20 * time.Millisecond
	}
	e := &Executor{cfg: cfg, startTime: time.Now()}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Threads; i++ {
		e.wg.Add(1)
		go e.run()
	}
	return e
}

// Enqueue submits a driver for execution; done is invoked exactly once when
// the driver finishes or fails.
func (e *Executor) Enqueue(d *Driver, task *TaskHandle, done func(error)) {
	r := &driverRunner{driver: d, task: task, done: done}
	e.mu.Lock()
	lvl := e.levelOf(task)
	e.levels[lvl] = append(e.levels[lvl], r)
	e.cond.Signal()
	e.mu.Unlock()
}

func (e *Executor) levelOf(task *TaskHandle) int {
	if e.cfg.FIFO {
		return 0
	}
	cpu := time.Duration(task.CPUNanos())
	lvl := 0
	for i := nLevels - 1; i >= 1; i-- {
		if cpu >= levelThresholds[i] {
			lvl = i
			break
		}
	}
	return lvl
}

// pick selects the next runner using weighted level selection: the non-empty
// level with the smallest scheduled-time/weight ratio runs next.
func (e *Executor) pick() *driverRunner {
	// Look again at the parked runners a Kick has come for since they were
	// last looked at, and re-admit those no longer blocked. A Kick during a
	// runner's own fruitless quantum brings it straight back.
	stillBlocked := e.blocked[:0]
	for _, r := range e.blocked {
		if r.kicks == e.kicks {
			stillBlocked = append(stillBlocked, r)
			continue
		}
		r.kicks = e.kicks
		if r.driver.Blocked() {
			stillBlocked = append(stillBlocked, r)
			continue
		}
		lvl := e.levelOf(r.task)
		e.levels[lvl] = append(e.levels[lvl], r)
	}
	// A runner taken off a list leaves no pointer behind in its array: a
	// finished driver must not keep its task, and the task its query's
	// pipelines and tables, reachable from an idle executor.
	clear(e.blocked[len(stillBlocked):])
	e.blocked = stillBlocked

	best := -1
	var bestRatio float64
	for lvl := 0; lvl < nLevels; lvl++ {
		if len(e.levels[lvl]) == 0 {
			continue
		}
		ratio := float64(e.levelScheduled[lvl]) / float64(levelWeights[lvl])
		if best < 0 || ratio < bestRatio {
			best = lvl
			bestRatio = ratio
		}
	}
	if best < 0 {
		return nil
	}
	r := e.levels[best][0]
	e.levels[best][0] = nil
	e.levels[best] = e.levels[best][1:]
	r.kicks = e.kicks
	return r
}

func (e *Executor) run() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		var r *driverRunner
		for {
			if e.closed {
				e.mu.Unlock()
				return
			}
			r = e.pick()
			if r != nil {
				break
			}
			// Nothing runnable: sleep until Enqueue, Kick or Close.
			e.cond.Wait()
		}
		e.mu.Unlock()

		e.activeRuns.Add(1)
		start := time.Now()
		progress, err := r.driver.Process(e.cfg.Quanta)
		elapsed := time.Since(start)
		e.activeRuns.Add(-1)

		// Charge actual thread time to the task (§IV-F1: if an operator
		// exceeds the quanta, the scheduler charges actual thread time).
		r.task.cpuNanos.Add(elapsed.Nanoseconds())
		e.busyNanos.Add(elapsed.Nanoseconds())

		e.mu.Lock()
		lvl := e.levelOf(r.task)
		e.levelScheduled[lvl] += elapsed.Nanoseconds()
		e.decayBudget += elapsed.Nanoseconds()
		if e.decayBudget > int64(100*time.Millisecond) {
			for i := range e.levelScheduled {
				e.levelScheduled[i] /= 2
			}
			e.decayBudget = 0
		}
		switch {
		case err != nil:
			e.mu.Unlock()
			r.done(err)
			e.mu.Lock()
		case r.driver.Finished():
			e.mu.Unlock()
			r.done(nil)
			e.mu.Lock()
		case !progress:
			// Blocked or starved: park until a Kick.
			e.blocked = append(e.blocked, r)
		default:
			nl := e.levelOf(r.task)
			e.levels[nl] = append(e.levels[nl], r)
		}
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// Utilization returns the fraction of thread capacity used since start.
func (e *Executor) Utilization() float64 {
	wall := time.Since(e.startTime).Nanoseconds() * int64(e.cfg.Threads)
	if wall == 0 {
		return 0
	}
	u := float64(e.busyNanos.Load()) / float64(wall)
	if u > 1 {
		u = 1
	}
	return u
}

// BusyNanos returns total thread-nanoseconds spent running drivers.
func (e *Executor) BusyNanos() int64 { return e.busyNanos.Load() }

// Kick wakes the scheduling loop: an external event (bridge built, exchange
// data arrived, buffer space freed, morsel queued) may have unblocked a
// parked driver. It is the only way a parked driver comes back, so every
// state a driver can park on Kicks after it changes.
func (e *Executor) Kick() {
	e.mu.Lock()
	e.kicks++
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Threads returns the number of driver slots.
func (e *Executor) Threads() int { return e.cfg.Threads }

// LevelOccupancy returns the number of runnable drivers queued at each MLFQ
// level plus the number parked as blocked/starved (for /v1/metrics).
func (e *Executor) LevelOccupancy() (levels [nLevels]int, blocked int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, l := range e.levels {
		levels[i] = len(l)
	}
	return levels, len(e.blocked)
}

// ErrExecutorClosed reports a driver abandoned because its executor shut
// down (worker death or node shutdown) before the driver could finish.
var ErrExecutorClosed = errors.New("executor closed")

// Close stops the worker threads after current quanta complete. Drivers
// still queued or parked are completed with ErrExecutorClosed so their
// tasks' driver accounting reaches zero — without this, a task lost to
// worker death would wait forever on drivers that can never run again.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()

	e.mu.Lock()
	var orphans []*driverRunner
	for i, l := range e.levels {
		orphans = append(orphans, l...)
		e.levels[i] = nil
	}
	orphans = append(orphans, e.blocked...)
	e.blocked = nil
	e.mu.Unlock()
	for _, r := range orphans {
		r.done(ErrExecutorClosed)
	}
}
