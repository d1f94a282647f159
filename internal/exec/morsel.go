package exec

import (
	"sync"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/operators"
)

// DefaultMorselRows is the target morsel size: drivers pull batches of at
// most this many rows from the shared per-pipeline queue, so one oversized
// split is consumed cooperatively by every driver of the pipeline instead of
// serializing on whichever driver it was statically assigned to (the
// work-stealing, morsel-driven scheme of "Fast OLAP Query Execution in Main
// Memory"; see DESIGN.md §IV-F).
const DefaultMorselRows = 64 << 10

// morselQueue is the shared split/page queue of one scan pipeline. Splits are
// dealt round-robin onto per-driver stripes; a driver whose stripe is empty
// steals from the stripe with the most pending work. Open page sources are
// shared: any driver may pull the next page from any non-busy source, so the
// pages of a single giant split fan out across all drivers of the pipeline.
//
// Lock order: q.mu is a leaf lock, except that onReady (the executor kick) is
// always invoked after q.mu is released — executor threads call into
// available()/drained() while holding the executor mutex.
type morselQueue struct {
	mu      sync.Mutex
	stripes [][]connector.Split // per-driver pending splits
	pending int                 // total pending splits across stripes
	open    []*openSplit
	opening int // splits taken off pending whose source is still being opened
	noMore  bool
	stopped bool // canceled: pending dropped, sources closed
	rr      int  // round-robin split dealing
	claimed int  // stripe ids handed to drivers
	done    int  // splits fully consumed (source exhausted or failed)

	// hungry records that a driver found no work since the last ready
	// signal, so state changes that create work (or drain the queue) wake
	// the executor exactly when someone is parked on it.
	hungry bool

	morselRows int
	openFn     func(connector.Split) (connector.PageSource, error)
	// stats is the scan's source stats: every source the queue drops gives
	// it the bytes it read.
	stats   *operators.OpStats
	onReady func()
	// onDrained is called, outside q.mu and possibly more than once, by a
	// driver that finds the queue drained: no driver started after that could
	// find work, which the task needs to know before the running ones finish.
	onDrained func()
}

// openSplit is one split's page source while it is being drained. busy
// serializes NextPage calls (PageSources are not concurrency-safe); rem holds
// the unreturned tail of a page larger than one morsel.
type openSplit struct {
	src    connector.PageSource
	stripe int
	busy   bool
	rem    *block.Page
}

func newMorselQueue(stripes, morselRows int, openFn func(connector.Split) (connector.PageSource, error)) *morselQueue {
	if stripes <= 0 {
		stripes = 1
	}
	return &morselQueue{
		stripes:    make([][]connector.Split, stripes),
		morselRows: morselRows,
		openFn:     openFn,
	}
}

// claimStripe hands out the stripe id for the next driver.
func (q *morselQueue) claimStripe() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.claimed % len(q.stripes)
	q.claimed++
	return s
}

// addSplit deals a split onto the next stripe.
func (q *morselQueue) addSplit(s connector.Split) {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	i := q.rr % len(q.stripes)
	q.rr++
	q.stripes[i] = append(q.stripes[i], s)
	q.pending++
	wake := q.wakeLocked()
	q.mu.Unlock()
	if wake {
		q.onReady()
	}
}

// noMoreSplits declares enumeration complete; starved drivers can now observe
// the drained state and exit.
func (q *morselQueue) noMoreSplits() {
	q.mu.Lock()
	q.noMore = true
	wake := q.wakeLocked()
	q.mu.Unlock()
	if wake {
		q.onReady()
	}
}

// cancel drops pending splits and closes open sources; drivers parked on the
// queue observe it drained and finish.
func (q *morselQueue) cancel() {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	q.stopped = true
	srcs := make([]connector.PageSource, 0, len(q.open))
	for _, os := range q.open {
		if !os.busy { // a busy source is closed by its reader on return
			q.stats.RecordSourceClosed(os.src)
			srcs = append(srcs, os.src)
		}
	}
	q.open = nil
	for i := range q.stripes {
		q.stripes[i] = nil
	}
	q.pending = 0
	q.hungry = false
	q.mu.Unlock()
	for _, s := range srcs {
		s.Close()
	}
	if q.onReady != nil {
		q.onReady()
	}
}

// dropPending discards all queued (not yet opened) splits, returning how
// many were dropped. Open sources keep draining; the caller uses this for the
// dynamic-filter empty-build short circuit, where those sources' rows are
// filtered to zero anyway.
func (q *morselQueue) dropPending() int {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return 0
	}
	n := q.pending
	for i := range q.stripes {
		q.stripes[i] = nil
	}
	q.pending = 0
	wake := q.wakeLocked()
	q.mu.Unlock()
	if wake {
		q.onReady()
	}
	return n
}

// wakeLocked consumes the hungry flag: the caller just changed state in a way
// that may unblock a parked driver, and fires onReady after releasing q.mu.
func (q *morselQueue) wakeLocked() bool {
	if q.hungry && q.onReady != nil {
		q.hungry = false
		return true
	}
	return false
}

// hasWork reports whether starting another driver could find anything to do:
// pending splits, or open sources whose remaining pages drivers can share.
func (q *morselQueue) hasWork() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.stopped && (q.pending > 0 || q.opening > 0 || len(q.open) > 0)
}

// drained reports that no morsel will ever be produced again.
func (q *morselQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drainedLocked()
}

func (q *morselQueue) drainedLocked() bool {
	return q.stopped || (q.noMore && q.pending == 0 && q.opening == 0 && len(q.open) == 0)
}

// starved reports that no work is available right now but more may appear
// (splits still enumerating, or every open source busy under a sibling).
// This is the operator's IsBlocked state.
func (q *morselQueue) starved() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.drainedLocked() {
		return false
	}
	if q.pending > 0 {
		return false
	}
	for _, os := range q.open {
		if !os.busy || os.rem != nil {
			return false
		}
	}
	return true
}

// next returns the next morsel for the given stripe: a remainder of an
// oversized page, the next page of a shared open source (own stripe's
// preferred), or the first page of a pending split (stolen from the longest
// sibling stripe when the own stripe is empty). Returns (nil, nil) when no
// work is available right now — the caller distinguishes starvation from
// completion via drained().
func (q *morselQueue) next(stripe int) (*block.Page, error) {
	q.mu.Lock()
	for {
		if q.stopped {
			q.mu.Unlock()
			return nil, nil
		}
		// Oversized-page remainders are ready without touching a source.
		if os := q.pickRemainder(stripe); os != nil {
			m := os.rem
			if m.RowCount() > q.morselRows {
				os.rem = m.SlicePage(q.morselRows, m.RowCount())
				m = m.SlicePage(0, q.morselRows)
			} else {
				os.rem = nil
			}
			wake := q.wakeLocked()
			q.mu.Unlock()
			if wake {
				q.onReady()
			}
			return m, nil
		}
		// Pull the next page from a free open source.
		if os := q.pickSource(stripe); os != nil {
			os.busy = true
			q.mu.Unlock()
			p, err := os.src.NextPage()
			q.mu.Lock()
			os.busy = false
			if q.stopped {
				q.stats.RecordSourceClosed(os.src)
				q.mu.Unlock()
				os.src.Close()
				return nil, nil
			}
			if err != nil {
				q.removeLocked(os)
				q.mu.Unlock()
				os.src.Close()
				return nil, err
			}
			if p == nil || p.RowCount() == 0 {
				if p == nil { // source exhausted
					q.removeLocked(os)
					wake := q.wakeLocked() // removal may drain the queue
					q.mu.Unlock()
					os.src.Close()
					if wake {
						q.onReady()
					}
					q.mu.Lock()
				}
				continue
			}
			if p.RowCount() > q.morselRows {
				os.rem = p.SlicePage(q.morselRows, p.RowCount())
				p = p.SlicePage(0, q.morselRows)
			}
			// The source (and any remainder) is available to siblings again.
			wake := q.wakeLocked()
			q.mu.Unlock()
			if wake {
				q.onReady()
			}
			return p, nil
		}
		// Open a pending split: own stripe first, then steal.
		if s, ok := q.takeSplitLocked(stripe); ok {
			q.opening++ // neither pending nor open: the queue is not drained
			q.mu.Unlock()
			src, err := q.openFn(s)
			q.mu.Lock()
			q.opening--
			if err != nil {
				q.mu.Unlock()
				return nil, err
			}
			if q.stopped {
				q.mu.Unlock()
				src.Close()
				return nil, nil
			}
			q.open = append(q.open, &openSplit{src: src, stripe: stripe})
			continue
		}
		// Nothing available: starved (or drained — caller checks).
		drained := q.drainedLocked()
		if !drained {
			q.hungry = true
		}
		q.mu.Unlock()
		if drained && q.onDrained != nil {
			q.onDrained()
		}
		return nil, nil
	}
}

// pickRemainder finds an open source holding an unreturned page tail,
// preferring the caller's own stripe.
func (q *morselQueue) pickRemainder(stripe int) *openSplit {
	var any *openSplit
	for _, os := range q.open {
		if os.rem == nil {
			continue
		}
		if os.stripe == stripe {
			return os
		}
		if any == nil {
			any = os
		}
	}
	return any
}

// pickSource finds a non-busy open source, preferring the caller's stripe.
func (q *morselQueue) pickSource(stripe int) *openSplit {
	var any *openSplit
	for _, os := range q.open {
		if os.busy {
			continue
		}
		if os.stripe == stripe {
			return os
		}
		if any == nil {
			any = os
		}
	}
	return any
}

// takeSplitLocked pops a pending split: the front of the caller's stripe, or
// — when that stripe is empty — the tail of the longest sibling stripe (the
// steal path; stealing from the tail keeps the victim's locality at its
// front).
func (q *morselQueue) takeSplitLocked(stripe int) (connector.Split, bool) {
	if own := q.stripes[stripe]; len(own) > 0 {
		s := own[0]
		q.stripes[stripe] = own[1:]
		q.pending--
		return s, true
	}
	victim, max := -1, 0
	for i, st := range q.stripes {
		if len(st) > max {
			victim, max = i, len(st)
		}
	}
	if victim < 0 {
		return nil, false
	}
	st := q.stripes[victim]
	s := st[len(st)-1]
	q.stripes[victim] = st[:len(st)-1]
	q.pending--
	return s, true
}

// removeLocked drops an exhausted source from the open list. In morsel mode
// drivers outnumber splits, so split progress is counted here — at source
// exhaustion — rather than at driver completion; so are the source's bytes,
// before the queue can be seen drained and the task finish.
func (q *morselQueue) removeLocked(os *openSplit) {
	q.stats.RecordSourceClosed(os.src)
	for i, o := range q.open {
		if o == os {
			q.open = append(q.open[:i], q.open[i+1:]...)
			q.done++
			return
		}
	}
}

// splitStats reports queued/running/done split counts for task stats.
func (q *morselQueue) splitStats() (queued, running, done int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending, len(q.open), q.done
}

// morselStripe adapts one driver's view of the queue to the scan operator's
// MorselSource interface.
type morselStripe struct {
	q      *morselQueue
	stripe int
}

func (m *morselStripe) NextMorsel() (*block.Page, error) { return m.q.next(m.stripe) }
func (m *morselStripe) Drained() bool                    { return m.q.drained() }
func (m *morselStripe) Starved() bool                    { return m.q.starved() }
