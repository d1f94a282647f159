package coordinator

import (
	"sync"

	"repro/internal/dynfilter"
	"repro/internal/plan"
)

// filterHub is the per-query dynamic-filter exchange: every task of the
// fragment containing a publishing join contributes one summary per filter id
// (a partitioned build sees only its partition's keys), the hub unions them,
// and the completed union fans out to the tasks whose scans subscribe to it.
// How a publication reaches the hub is the task client's business — an
// in-process task calls publish from its build driver, a remote one is seen
// published by the status poll. Incomplete publications — a task failed or
// was aborted before its build finished — simply never complete the filter,
// degrading to unfiltered scans.
type filterHub struct {
	// publishers are the fragments whose tasks publish; subscribers maps a
	// filter id to the fragments whose scans apply it.
	publishers  map[int]bool
	subscribers map[int][]int

	// placed closes once every task is created (or placement failed): tasks
	// (by fragment, nil after a failure) are then fixed, and publications
	// that arrived earlier proceed.
	placed chan struct{}
	tasks  [][]taskClient

	mu sync.Mutex
	// expect counts outstanding publications per filter id.
	expect map[int]int
	merged map[int]*dynfilter.Summary
}

// newFilterHub inspects the distributed plan for published filters. Returns
// nil when the plan publishes none (the common case — no hub, no overhead).
// counts[f] is the task count of fragment f.
func newFilterHub(dp *plan.DistributedPlan, counts []int) *filterHub {
	h := &filterHub{publishers: map[int]bool{}, subscribers: map[int][]int{},
		placed: make(chan struct{}), expect: map[int]int{}, merged: map[int]*dynfilter.Summary{}}
	for _, f := range dp.Fragments {
		fid := f.ID
		plan.Walk(f.Root, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.Join:
				for _, df := range n.DynFilters {
					h.publishers[fid] = true
					h.expect[df.ID] = counts[fid]
				}
			case *plan.Scan:
				for _, df := range n.DynFilters {
					// One entry per fragment, however many of its scans subscribe.
					if subs := h.subscribers[df.ID]; len(subs) == 0 || subs[len(subs)-1] != fid {
						h.subscribers[df.ID] = append(subs, fid)
					}
				}
			}
		})
	}
	if len(h.expect) == 0 {
		return nil
	}
	return h
}

// deliverTo names the receivers — the query's tasks by fragment, nil when
// placement failed — and releases the publishers. A nil hub ignores it.
func (h *filterHub) deliverTo(tasks [][]taskClient) {
	if h != nil {
		h.tasks = tasks
		close(h.placed)
	}
}

// publish takes one task's summaries — one per id, none nil: a publisher with
// no collector sends a Disabled one (exec.Task.publishFilters) — and fans
// every union they complete out to the subscribed fragments' tasks. Runs on
// the publishing client's goroutine, which it holds until every task is
// placed; delivery happens outside the hub lock.
func (h *filterHub) publish(ids []int, sums []*dynfilter.Summary) {
	<-h.placed
	if h.tasks == nil {
		return
	}
	ready := map[int]*dynfilter.Summary{}
	h.mu.Lock()
	for i, id := range ids {
		if h.expect[id] == 0 {
			continue // unknown id, or already completed (duplicate publish)
		}
		m := h.merged[id]
		if m == nil {
			// Union into a fresh summary: the publisher's object is also its
			// task's PublishedFilters snapshot and must not be mutated here.
			m = dynfilter.NewSummary(sums[i].T)
			h.merged[id] = m
		}
		m.Merge(sums[i]) // a Disabled contribution disables the union
		h.expect[id]--
		if h.expect[id] == 0 {
			ready[id] = m // complete: never merged into again
		}
	}
	h.mu.Unlock()
	for id, sum := range ready {
		for _, fid := range h.subscribers[id] {
			for _, t := range h.tasks[fid] {
				t.DeliverFilter(id, sum)
			}
		}
	}
}
