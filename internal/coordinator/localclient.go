package coordinator

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/shuffle"
)

// The in-process client: tasks are *exec.Task objects in this process, and
// every call is a method call — nothing is encoded. Under materialized
// exchange the worker hands out recovery slots instead (recovery.go):
// re-placement needs the coordinator-shared exchange store, which only
// in-process workers write to.

// localWorker places tasks on one in-process worker.
type localWorker struct {
	c *Coordinator
	w *exec.Worker
}

func (lw localWorker) NodeID() int { return lw.w.ID }

func (lw localWorker) CachesPages() bool { return lw.w.Cache != nil }

func (lw localWorker) Remote() bool { return false }

// CreateTasks is a loop: every call below is a method call in this process.
func (lw localWorker) CreateTasks(specs []*taskSpec) (taskGroup, error) {
	g := &localGroup{tasks: make([]localTaskClient, 0, len(specs)), fragments: make([]int, 0, len(specs))}
	for _, spec := range specs {
		task, err := lw.c.startLocal(lw.w, spec)
		if err == nil {
			var t localTaskClient = localTask{task}
			if spec.Config.Switches.Has(exec.MaterializedExchange) {
				t = newRecoveryTask(lw.c, spec, task)
			}
			err = g.add(t, spec)
		}
		if err != nil {
			abortAndDrain([]taskGroup{g}, false)
			return nil, fmt.Errorf("task %s: %w", spec.ID, err)
		}
	}
	return g, nil
}

// startLocal instantiates spec on w: first placement and every re-placement.
func (c *Coordinator) startLocal(w *exec.Worker, spec *taskSpec) (*exec.Task, error) {
	sources := make(map[int][]shuffle.Fetcher, len(spec.Sources))
	for pid, producers := range spec.Sources {
		for _, p := range producers {
			sources[pid] = append(sources[pid],
				faultinject.WrapFetcher(c.cfg.FaultInject, &placedOutput{p: p, part: spec.ID.Index}))
		}
	}
	cfg := *spec.Config
	cfg.Store = c.store
	task, err := w.CreateTask(spec.ID, spec.Fragment, spec.Mem, spec.OutPartitions, sources, &cfg)
	if err != nil {
		return nil, err
	}
	if spec.Publish != nil {
		// Installed after the task started: a build that completes inside
		// the window self-delivers, which is safe (its own scans filter;
		// sibling tasks stay unfiltered).
		task.SetFilterPublisher(spec.Publish)
	}
	return task, nil
}

// placedOutput reads one output partition of a placed producer p. Workers
// create their tasks concurrently, so the producer's buffer may not exist
// when its consumer first asks: the first fetch waits out the statement's
// creates — a loop of method calls in this process, which cannot hang. Like
// every Fetcher, one fetch at a time.
type placedOutput struct {
	p    *taskSpec
	part int
	out  shuffle.Fetcher // p.client's, once it is there
}

func (o *placedOutput) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	if o.out == nil {
		<-o.p.created
		if o.p.client == nil {
			return nil, token, false, fmt.Errorf("producer task %s was never created", o.p.ID)
		}
		o.out = o.p.client.Output(o.part)
	}
	return o.out.Fetch(token, maxBytes, wait)
}

// localTaskClient is a task this process can be told about one at a time.
type localTaskClient interface {
	taskClient
	Wait() error
	DeliverFilter(id int, s *dynfilter.Summary)
	Abort()
	Close()
}

// localGroup is the tasks of one statement on one in-process worker: a worker
// in this process has nothing to batch, so every group operation is a loop.
type localGroup struct {
	tasks     []localTaskClient
	fragments []int // fragment id by task
}

// add admits a new task and hands it the splits its spec carries.
func (g *localGroup) add(t localTaskClient, spec *taskSpec) error {
	g.tasks, g.fragments = append(g.tasks, t), append(g.fragments, spec.ID.Fragment)
	for scanID, splits := range spec.Splits {
		for _, s := range splits {
			if err := t.AddSplit(scanID, s); err != nil {
				return err
			}
		}
		if spec.NoMore[scanID] {
			if err := t.NoMoreSplits(scanID); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *localGroup) Tasks() []taskClient {
	ts := make([]taskClient, len(g.tasks))
	for i, t := range g.tasks {
		ts[i] = t
	}
	return ts
}

func (g *localGroup) Flush() error { return nil }

func (g *localGroup) DeliverFilter(f *unionFilter, fragments []int) {
	for i, t := range g.tasks {
		if slices.Contains(fragments, g.fragments[i]) {
			t.DeliverFilter(f.ID, f.Summary)
		}
	}
}

func (g *localGroup) Monitor(fail func(error)) {
	for _, t := range g.tasks {
		go func() {
			if err := t.Wait(); err != nil {
				fail(err)
			}
		}()
	}
}

func (g *localGroup) Wait() error {
	for _, t := range g.tasks {
		if err := t.Wait(); err != nil {
			return err
		}
	}
	return nil
}

func (g *localGroup) Abort() {
	for _, t := range g.tasks {
		t.Abort()
	}
}

func (g *localGroup) Close() {
	for _, t := range g.tasks {
		t.Close()
	}
}

// localTask is the client of one in-process task.
type localTask struct{ task *exec.Task }

func (t localTask) AddSplit(scanID int, s connector.Split) error { return t.task.AddSplit(scanID, s) }

func (t localTask) NoMoreSplits(scanID int) error {
	t.task.NoMoreSplits(scanID)
	return nil
}

func (t localTask) Output(part int) shuffle.Fetcher {
	return &shuffle.LocalFetcher{Buf: t.task.Output().Partition(part)}
}

func (t localTask) Done() <-chan struct{} { return t.task.Done() }

func (t localTask) Wait() error {
	<-t.task.Done()
	return t.task.Err()
}

func (t localTask) DeliverFilter(id int, s *dynfilter.Summary) { t.task.DeliverFilter(id, s) }

func (t localTask) Stats() exec.TaskStats { return t.task.Stats() }

func (t localTask) Abort() { t.task.Abort() }

// Close has nothing to release: the task lives in this process, and its
// finished state is what stats read.
func (t localTask) Close() {}
