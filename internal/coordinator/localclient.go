package coordinator

import (
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

func (lw localWorker) CreateTask(spec taskSpec) (taskClient, error) {
	task, err := lw.c.startLocal(lw.w, spec)
	if err != nil {
		return nil, err
	}
	if spec.Config.MaterializedExchange {
		return newRecoveryTask(lw.c, spec, task), nil
	}
	return localTask{task}, nil
}

// startLocal instantiates spec on w: first placement and every re-placement.
func (c *Coordinator) startLocal(w *exec.Worker, spec taskSpec) (*exec.Task, error) {
	sources := make(map[int][]shuffle.Fetcher, len(spec.Sources))
	for pid, producers := range spec.Sources {
		for _, p := range producers {
			sources[pid] = append(sources[pid],
				faultinject.WrapFetcher(c.cfg.FaultInject, p.Output(spec.ID.Index)))
		}
	}
	cfg := spec.Config
	if cfg.MaterializedExchange {
		cfg.Store = c.store
	}
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
