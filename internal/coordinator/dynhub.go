package coordinator

import (
	"slices"
	"sync"

	"repro/internal/dynfilter"
	"repro/internal/plan"
)

// filterHub is the per-query dynamic-filter exchange: every task of the
// fragment containing a publishing join contributes one summary per filter id
// (a partitioned build sees only its partition's keys), the hub unions them,
// and the completed union fans out to the tasks whose scans subscribe to it.
// How a publication reaches the hub is the task client's business — an
// in-process task calls publish from its build driver, a remote one's arrives
// in its worker's status channel. Incomplete publications — a task failed or
// was aborted before its build finished — simply never complete the filter,
// degrading to unfiltered scans.
type filterHub struct {
	// publisherOf maps a filter id to the fragment whose tasks publish it,
	// subscribers to the fragments whose scans apply it.
	publisherOf map[int]int
	subscribers map[int][]int

	// placed closes once every task is created (or placement failed): groups
	// (one per worker, nil after a failure) are then fixed, and publications
	// that arrived earlier proceed.
	placed chan struct{}
	groups []taskGroup

	mu sync.Mutex
	// expect counts outstanding publications per filter id.
	expect map[int]int
	merged map[int]*dynfilter.Summary
}

// newFilterHub inspects the distributed plan for published filters. Returns
// nil when the plan publishes none (the common case — no hub, no overhead:
// nothing is allocated until a filter is found). counts[f] is the task count
// of fragment f.
func newFilterHub(dp *plan.DistributedPlan, counts []int) *filterHub {
	var h *filterHub
	hub := func() *filterHub {
		if h == nil {
			h = &filterHub{publisherOf: map[int]int{}, subscribers: map[int][]int{},
				placed: make(chan struct{}), expect: map[int]int{}, merged: map[int]*dynfilter.Summary{}}
		}
		return h
	}
	for _, f := range dp.Fragments {
		fid := f.ID
		plan.Walk(f.Root, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.Join:
				for _, df := range n.DynFilters {
					hub().publisherOf[df.ID] = fid
					h.expect[df.ID] = counts[fid]
				}
			case *plan.Scan:
				for _, df := range n.DynFilters {
					// One entry per fragment, however many of its scans subscribe.
					if subs := hub().subscribers[df.ID]; len(subs) == 0 || subs[len(subs)-1] != fid {
						h.subscribers[df.ID] = append(subs, fid)
					}
				}
			}
		})
	}
	if h == nil || len(h.expect) == 0 {
		return nil
	}
	return h
}

// relayed reports whether fragment fid's tasks publish filters, and lists
// those of them a fragment other than fid subscribes to: the only summaries
// that have to leave the process that built them. A task's own scans take its
// summary directly (see httpGroup.DeliverFilter for why that is all they
// need).
func (h *filterHub) relayed(fid int) (ids []int, publishes bool) {
	for id, pub := range h.publisherOf {
		if pub == fid {
			publishes = true
			if slices.ContainsFunc(h.subscribers[id], func(sub int) bool { return sub != fid }) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	return ids, publishes
}

// deliverTo names the receivers — the query's task groups, nil when placement
// failed — and releases the publishers. A nil hub ignores it.
func (h *filterHub) deliverTo(groups []taskGroup) {
	if h != nil {
		h.groups = groups
		close(h.placed)
	}
}

// unionFilter is one completed union on its way to the subscribed tasks.
// In-process tasks share Summary; its wire form is encoded once, by the first
// worker it has to cross a process boundary for, and the same bytes go to all.
type unionFilter struct {
	ID        int
	Publisher int // the fragment whose tasks built it
	Summary   *dynfilter.Summary

	once  sync.Once
	frame []byte
}

// Frame returns the union's wire frame (dynfilter.AppendSummary).
func (f *unionFilter) Frame() []byte {
	f.once.Do(func() { f.frame = dynfilter.AppendSummary(nil, f.Summary) })
	return f.frame
}

// publish takes one task's summaries — one per id, none nil: a publisher with
// no collector sends a Disabled one (exec.Task.publishFilters) — and fans
// every union they complete out to the subscribed fragments' tasks. Runs on
// the publishing client's goroutine, which it holds until every task is
// placed; delivery happens outside the hub lock.
func (h *filterHub) publish(ids []int, sums []*dynfilter.Summary) {
	<-h.placed
	if h.groups == nil {
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
		f := &unionFilter{ID: id, Publisher: h.publisherOf[id], Summary: sum}
		for _, g := range h.groups {
			g.DeliverFilter(f, h.subscribers[id])
		}
	}
}
