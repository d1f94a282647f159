package exec

import (
	"sort"
	"time"

	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
)

// Runtime-adaptive execution, probe side (see internal/dynfilter): a task
// receives build-side key summaries for the filter ids its scans subscribed
// to (plan.ScanDynFilter), briefly gates subscribed split starts on their
// arrival, and applies arrived summaries twice: at split-open time as a
// narrowed table handle for connector-side pruning, and page by page as
// vectorized row predicates in the page processor placed on the scan.
// Everything is best-effort: a summary that never arrives leaves the scan
// unfiltered and row-for-row identical.

// dynMaxPushdownPoints caps the IN-list size pushed into a scan's constraint;
// larger exact sets fall back to min/max range pushdown (the full set still
// filters row-level). Keeps cache keys and connector prune checks small.
const dynMaxPushdownPoints = 100

// SetFilterPublisher installs the cross-task delivery hook (the
// coordinator's per-query filter hub). Install before splits arrive; without
// a publisher, published summaries deliver to this task's own scans only.
func (t *Task) SetFilterPublisher(fn func(ids []int, sums []*dynfilter.Summary)) {
	t.dynMu.Lock()
	t.filterPublish = fn
	t.dynMu.Unlock()
}

// publishFilters routes a join build's completed summaries out of the task.
// It runs asynchronously: the built transition can fire under task or bridge
// locks, and delivery fans out into coordinator code. The fault seam models
// delayed or lost delivery — a dropped publication leaves probe scans
// unfiltered, which is always safe.
func (t *Task) publishFilters(ids []int, sums []*dynfilter.Summary) {
	// A publisher with no collector still publishes — "never filter" — so
	// the merged filter completes and gated probe scans stop waiting,
	// whichever way the publication travels (hub callback or status poll).
	full := make([]*dynfilter.Summary, len(ids))
	for i := range ids {
		if i < len(sums) && sums[i] != nil {
			full[i] = sums[i]
		} else {
			full[i] = &dynfilter.Summary{Disabled: true}
		}
	}
	go func() {
		if err := t.cfg.Inject.Err(faultinject.SiteFilterPublish); err != nil {
			return // injected loss
		}
		t.dynMu.Lock()
		if t.dynPublished == nil {
			t.dynPublished = map[int]*dynfilter.Summary{}
		}
		for i, id := range ids {
			t.dynPublished[id] = full[i]
		}
		fn := t.filterPublish
		t.dynMu.Unlock()
		if fn != nil {
			fn(ids, full)
			return
		}
		// No publisher (single-task execution, or a remote worker between
		// coordinator polls): deliver to our own subscribed scans. Safe in
		// every strategy — broadcast and colocated builds see exactly the
		// build rows their own probe rows can match, and partitioned builds
		// have no probe scan in the same fragment.
		for i, id := range ids {
			t.DeliverFilter(id, full[i])
		}
	}()
}

// PublishedFilters snapshots the summaries this task's join builds have
// published (the remote-mode coordinator polls these via the task API).
func (t *Task) PublishedFilters() map[int]*dynfilter.Summary {
	t.dynMu.Lock()
	defer t.dynMu.Unlock()
	out := make(map[int]*dynfilter.Summary, len(t.dynPublished))
	for id, s := range t.dynPublished {
		out[id] = s
	}
	return out
}

// DeliverFilter hands one dynamic-filter summary to the task. Split starts
// gated on the filter resume immediately; an empty summary short-circuits
// subscribed INNER/SEMI scans by dropping their remaining splits. Late
// delivery (after the bounded wait expired and splits opened unfiltered)
// still narrows every split opened afterwards and filters every page read
// afterwards, of open splits too. Safe at any point in the task lifecycle,
// including after completion.
func (t *Task) DeliverFilter(id int, s *dynfilter.Summary) {
	if s == nil {
		return
	}
	// Under t.mu from before the summary becomes visible: a split added
	// between the publication and the short circuit below would find the
	// filter present, skip the gate and open, and the empty summary would then
	// filter its every row instead of the split never being read.
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dynMu.Lock()
	if t.dynFilters == nil {
		t.dynFilters = map[int]*dynfilter.Summary{}
	}
	t.dynFilters[id] = s
	t.dynArrivals.Add(1)
	t.dynMu.Unlock()
	if t.aborted || t.failed != nil {
		return
	}
	if s.Empty() {
		for _, p := range t.scanPipes {
			if p.scanNode == nil {
				continue
			}
			for _, df := range p.scanNode.DynFilters {
				if df.ID == id && df.ShortCircuit {
					t.dropScanSplitsLocked(p)
				}
			}
		}
	}
	for _, p := range t.scanPipes {
		if err := t.maybeStartScanDriversLocked(p); err != nil && t.failed == nil {
			t.failed = err
		}
	}
	t.maybeFinishLocked()
}

// dropScanSplitsLocked discards a scan's remaining splits (empty-build short
// circuit): already-open sources finish naturally — their rows are filtered
// to zero by the same empty summary — and future splits are rejected at
// AddSplit. Caller holds t.mu.
func (t *Task) dropScanSplitsLocked(p *pipelineSpec) {
	if t.dynSkip[p.scanID] {
		return
	}
	if t.dynSkip == nil {
		t.dynSkip = map[int]bool{}
	}
	t.dynSkip[p.scanID] = true
	p.opStats[0].RecordDynSplitSkipped(int64(p.morsels.dropPending()))
	t.maybeDeclareScanDoneLocked(p)
}

// dynGateLocked reports whether a scan's split starts are still held waiting
// for subscribed filters. The wait is bounded by DynamicFilterWait: a timer
// re-pumps at the deadline (the worker monitor also re-pumps every 10ms), so
// a lost filter costs at most the wait budget, never a hang. Caller holds
// t.mu.
func (t *Task) dynGateLocked(p *pipelineSpec) bool {
	sc := p.scanNode
	if sc == nil || len(sc.DynFilters) == 0 {
		return false
	}
	if g := t.dynGates[p.scanID]; g != nil && g.done {
		return false
	}
	wait := t.cfg.DynamicFilterWait
	if wait == 0 {
		wait = DefaultDynamicFilterWait
		if t.scanIsZeroCopy(p) {
			// Zero-copy in-memory probes start for free; holding them costs
			// more latency than the pruning saves (EXPERIMENTS.md, "What the
			// one-off benchmark files said": q37 and q82), and
			// filters arriving mid-scan still narrow later-opened splits.
			// Multi-filter subscriptions feed join chains where unpruned
			// rows compound downstream, so those keep a short bounded hold.
			wait = ZeroCopyDynamicFilterWait
			if len(sc.DynFilters) > 1 {
				wait = ZeroCopyChainDynamicFilterWait
			}
		}
	}
	if wait <= 0 {
		return false
	}
	missing := false
	t.dynMu.Lock()
	for _, df := range sc.DynFilters {
		if _, ok := t.dynFilters[df.ID]; !ok {
			missing = true
			break
		}
	}
	t.dynMu.Unlock()
	g := t.dynGates[p.scanID]
	if g == nil {
		if !missing {
			return false
		}
		g = &dynGate{start: time.Now()}
		if t.dynGates == nil {
			t.dynGates = map[int]*dynGate{}
		}
		t.dynGates[p.scanID] = g
		time.AfterFunc(wait+time.Millisecond, t.PumpSplits)
	}
	if !missing || time.Since(g.start) >= wait {
		g.done = true
		p.opStats[0].RecordDynWait(time.Since(g.start).Nanoseconds())
		return false
	}
	return true
}

// appliedFilter is one of a scan's subscriptions whose summary has arrived and
// filters.
type appliedFilter struct {
	df  plan.ScanDynFilter
	sum *dynfilter.Summary
}

// dynApplied snapshots the filters applicable to a scan pipeline right now.
// Called from split opens (with or without t.mu) and from drivers — it takes
// only dynMu.
func (t *Task) dynApplied(p *pipelineSpec) []appliedFilter {
	sc := p.scanNode
	if sc == nil || len(sc.DynFilters) == 0 {
		return nil
	}
	var fs []appliedFilter
	t.dynMu.Lock()
	for _, df := range sc.DynFilters {
		if s := t.dynFilters[df.ID]; s != nil && !s.Disabled {
			fs = append(fs, appliedFilter{df, s})
		}
	}
	t.dynMu.Unlock()
	return fs
}

// dynRowSelectors returns what a driver's page processor asks before every
// page of a subscribed scan: the vectorized row predicates of the summaries
// that have arrived, rebuilt only when another one has.
func (t *Task) dynRowSelectors(p *pipelineSpec) func() []expr.SelVector {
	var sels []expr.SelVector
	seen := int64(-1) // the arrival count sels was built at
	return func() []expr.SelVector {
		if n := t.dynArrivals.Load(); n != seen {
			seen, sels = n, sels[:0]
			for _, f := range t.dynApplied(p) {
				sels = append(sels, expr.DynFilterSel(f.df.Col, p.scanNode.Out[f.df.Col].T, f.sum))
			}
		}
		return sels
	}
}

// dynNarrowedHandle returns the scan's table handle narrowed, for connector
// pruning, by the summaries that have arrived at split-open time.
func (t *Task) dynNarrowedHandle(p *pipelineSpec) plan.TableHandle {
	h := p.scanHandle
	fs := t.dynApplied(p)
	if len(fs) == 0 {
		return h
	}
	sc := p.scanNode
	add := map[string]*plan.ColumnDomain{}
	for _, f := range fs {
		name := sc.Columns[f.df.Col]
		// Only same-type summaries (cross-type equality folding stays in the
		// row kernels, where it is exact) and only for columns the pushed-down
		// constraint does not already bound.
		if f.sum.T != sc.Out[f.df.Col].T || add[name] != nil {
			continue
		}
		if h.Constraint != nil && h.Constraint.Columns[name] != nil {
			continue
		}
		if cd := summaryDomain(f.sum); cd != nil {
			add[name] = cd
		}
	}
	if len(add) > 0 {
		nc := &plan.Domain{Columns: make(map[string]*plan.ColumnDomain, len(add))}
		if h.Constraint != nil {
			for k, v := range h.Constraint.Columns {
				nc.Columns[k] = v
			}
		}
		for k, v := range add {
			nc.Columns[k] = v
		}
		h.Constraint = nc
	}
	return h
}

// summaryDomain converts a summary to a connector-evaluable column domain:
// small exact sets become IN-lists (sorted, so the derived cache key is
// deterministic), everything else degrades to the observed [min,max] range.
// NULL never joins, so NullAllowed stays false.
func summaryDomain(s *dynfilter.Summary) *plan.ColumnDomain {
	if n := s.ExactLen(); n > 0 && n <= dynMaxPushdownPoints {
		vals := s.ExactValues()
		sort.Slice(vals, func(i, j int) bool { return vals[i].String() < vals[j].String() })
		return &plan.ColumnDomain{T: s.T, Points: vals}
	}
	if min, max, ok := s.Bounds(); ok {
		return &plan.ColumnDomain{
			T:      s.T,
			Ranges: []plan.Range{{Lo: &min, Hi: &max, LoClosed: true, HiClosed: true}},
		}
	}
	return nil
}
