package coordinator

import (
	"fmt"
	"sync"

	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/shuffle"
)

// maxReplaceAttempts bounds how many times one task slot may be re-placed
// after worker loss before the query fails.
const maxReplaceAttempts = 3

// recoveryTask is the in-process client under materialized exchange: a slot
// that re-places its task when the worker running it dies, so only the lost
// tasks re-run (paper §III: Presto restarts whole queries on failure;
// recoverable exchanges narrow the blast radius to the lost tasks). The
// mechanism leans entirely on seal-before-read: a lost task whose store entry
// sealed has durable output and is simply skipped; an unsealed one re-runs
// from scratch on a surviving worker, with its full split log replayed —
// correct because creating the task reset the entry, discarding every partial
// page the dead attempt produced. The scheduler sees none of it: the slot's
// Done closes on its final verdict, after any re-placements.
type recoveryTask struct {
	c    *Coordinator
	spec *taskSpec

	mu  sync.Mutex
	cur localTask // the live attempt; only replace changes it
	// attempts counts re-placements of this slot (not the initial placement).
	attempts int
	// splits/noMore log every split delivery so a replacement can replay the
	// slot's entire input.
	splits map[int][]connector.Split
	noMore map[int]bool
	// stopped: the query aborted or ended, so a lost attempt stays lost.
	// Abort and Close set it under the lock replace holds while it creates
	// a task, and the query sweeps its store entries only after them — so
	// no entry can be created after the sweep.
	stopped bool

	done chan struct{}
	err  error // the verdict; written before done closes
}

func newRecoveryTask(c *Coordinator, spec *taskSpec, first *exec.Task) *recoveryTask {
	t := &recoveryTask{
		c:      c,
		spec:   spec,
		cur:    localTask{first},
		splits: map[int][]connector.Split{},
		noMore: map[int]bool{},
		done:   make(chan struct{}),
	}
	go t.watch()
	return t
}

func (t *recoveryTask) current() localTask {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// AddSplit logs and delivers under the slot lock: a split must never land
// only on an attempt that was already condemned.
func (t *recoveryTask) AddSplit(scanID int, s connector.Split) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.splits[scanID] = append(t.splits[scanID], s)
	return t.cur.AddSplit(scanID, s)
}

func (t *recoveryTask) NoMoreSplits(scanID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noMore[scanID] = true
	return t.cur.NoMoreSplits(scanID)
}

// Output fetches by store key, not through the task object: a re-placed
// producer repopulates the same entry, so consumers — the client stream
// included — need no re-pointing.
func (t *recoveryTask) Output(part int) shuffle.Fetcher {
	return &shuffle.StoreFetcher{Store: t.c.store, Key: t.spec.ID.String(), Part: part}
}

func (t *recoveryTask) Done() <-chan struct{} { return t.done }

func (t *recoveryTask) Wait() error {
	<-t.done
	return t.err
}

// DeliverFilter is never called: recoverable queries run without dynamic
// filters (see schedule).
func (t *recoveryTask) DeliverFilter(int, *dynfilter.Summary) {}

func (t *recoveryTask) Stats() exec.TaskStats { return t.current().Stats() }

func (t *recoveryTask) Abort() {
	t.Close()
	t.current().Abort()
}

// Close stops re-placement; the live attempt is left to finish.
func (t *recoveryTask) Close() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// watch follows the slot across placements to its verdict: clean completion
// (with no sticky store failure — in-memory fetch paths cannot carry one), a
// plain failure, or worker loss that re-placement could not absorb.
func (t *recoveryTask) watch() {
	for {
		cur := t.current().task
		<-cur.Done()
		err := cur.Err()
		if exec.IsLost(err) {
			replaced, verdict := t.replace(err)
			if replaced {
				continue
			}
			err = verdict
		}
		if err == nil {
			if e := t.c.store.Entry(t.spec.ID.String()); e != nil {
				err = e.Err()
			}
		}
		t.err = err
		close(t.done)
		return
	}
}

// replace re-places a lost slot onto a surviving worker and replays its
// split log. replaced=false ends the slot with the returned verdict: nil
// when the lost attempt's output already sealed (consumers replay it from
// disk and the task need not re-run), the loss itself once the query stopped,
// or the reason no replacement was possible.
func (t *recoveryTask) replace(lost error) (replaced bool, verdict error) {
	id := t.spec.ID
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.c.store.Entry(id.String()); e != nil && e.Sealed() {
		return false, nil
	}
	if t.stopped {
		return false, lost
	}
	t.attempts++
	if t.attempts > maxReplaceAttempts {
		return false, fmt.Errorf("task %s: %d replacements exhausted: %w",
			id, maxReplaceAttempts, exec.ErrTaskLost)
	}
	workers := t.c.aliveWorkers()
	if len(workers) == 0 {
		return false, fmt.Errorf("task %s: no workers left to re-place onto: %w",
			id, exec.ErrTaskLost)
	}
	var nt *exec.Task
	var err error
	for k := range workers {
		w := workers[(id.Index+t.attempts+k)%len(workers)]
		if err = t.c.cfg.FaultInject.Err(faultinject.SiteTaskCreate); err == nil {
			nt, err = t.c.startLocal(w, t.spec)
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		return false, fmt.Errorf("re-placing task %s: %w", id, err)
	}
	t.cur = localTask{nt}
	// Replay the full input log. Correct from scratch: creating the task
	// reset its unsealed store entry, discarding the lost attempt's pages.
	for scanID, splits := range t.splits {
		for _, s := range splits {
			if err := nt.AddSplit(scanID, s); err != nil {
				return false, err
			}
		}
	}
	for scanID := range t.noMore {
		nt.NoMoreSplits(scanID)
	}
	return true, nil
}
