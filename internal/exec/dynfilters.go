package exec

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/operators"
	"repro/internal/plan"
)

// Runtime-adaptive execution, probe side (see internal/dynfilter): a task
// receives build-side key summaries for the filter ids its scans subscribed
// to (plan.ScanDynFilter) and applies them at split-open time as a narrowed
// table handle for connector-side pruning, and — on a scan whose rows meet
// the publishing join only after another operator that a dropped row saves
// work in — page by page as vectorized row predicates in the page processor
// placed on the scan. Where the summary comes from decides how long a scan
// waits for it: a join of the same task installs it before its probes run, so
// such a subscription never waits; one built in another fragment arrives
// through the coordinator, and the scan holds its split starts for it, for at
// most DynamicFilterWait. Everything is best-effort: a summary that never
// arrives leaves the scan unfiltered and row-for-row identical.

// FilterRelay is how a task's dynamic-filter summaries reach the scans of
// other fragments: IDs are the filters its joins publish that another
// fragment subscribes to, and Publish takes their summaries (the
// coordinator's filter hub). A task's own scans take its summaries directly,
// whatever the relay.
type FilterRelay struct {
	IDs     []int
	Publish func(ids []int, sums []*dynfilter.Summary)
}

// dynSub is one of a scan's dynamic-filter subscriptions as the task runs it.
type dynSub struct {
	plan.ScanDynFilter
	// own: a join of this fragment publishes the filter, so the task installs
	// it before that join's probes run and the scan never waits for it.
	own bool
	// rowTested: the scan's rows pass an operator other than Filter/Project,
	// or a pipeline boundary, before they reach the publishing join, so a row
	// the filter drops saves that operator's work; the processor on the scan
	// tests every row. Otherwise the join's own lookup is the same test, and
	// the subscription only prunes splits and stripes (and short-circuits an
	// empty build).
	rowTested bool
	stats     *dynCounter
}

// dynCounter counts what one subscription did: the rows its row test read
// and passed, and the time the scan's split starts waited for it. The rows it
// drops are the scan's too (scan, its stats).
type dynCounter struct {
	tested, passed, waitNanos atomic.Int64
	scan                      *operators.OpStats
}

func (c *dynCounter) recordRows(in, out int) {
	c.tested.Add(int64(in))
	c.passed.Add(int64(out))
	c.scan.RecordDynFiltered(int64(in - out))
}

// dynFilterStats snapshots the work of a scan pipeline's subscriptions, in
// plan order (nil when it has none).
func dynFilterStats(p *pipelineSpec) []operators.DynFilterStats {
	var out []operators.DynFilterStats
	for _, sub := range p.dynSubs {
		out = append(out, operators.DynFilterStats{ID: sub.ID, RowTested: sub.rowTested,
			RowsTested: sub.stats.tested.Load(), RowsPassed: sub.stats.passed.Load(), WaitNanos: sub.stats.waitNanos.Load()})
	}
	return out
}

// setRelay installs the task's relay before it starts.
func (t *Task) setRelay(r FilterRelay) {
	if len(r.IDs) > 0 {
		t.relay = &r
	}
}

// relayed reports whether the task relays filter id.
func (t *Task) relayed(id int) bool {
	return t.relay != nil && slices.Contains(t.relay.IDs, id)
}

// publishFilters takes a join build's completed summaries. It runs on the
// built transition, under the join bridge's lock, before any probe of the
// join can run (operators.JoinBridge.SetFilterCollector), and takes only
// dynMu: the task's own scans have the summaries from then on. Those another
// fragment subscribes to go to the relay on a goroutine — delivery fans out
// into coordinator code — through the fault seam that models delayed or lost
// delivery: a dropped publication leaves those probe scans unfiltered, which
// is always safe.
func (t *Task) publishFilters(ids []int, sums []*dynfilter.Summary) {
	// A build with no collector still publishes — "never filter" — so the
	// merged filter completes and gated probe scans stop waiting.
	full := make([]*dynfilter.Summary, len(ids))
	empty := false
	for i := range ids {
		if i < len(sums) && sums[i] != nil {
			full[i] = sums[i]
		} else {
			full[i] = &dynfilter.Summary{Disabled: true}
		}
		empty = empty || full[i].Empty()
	}
	t.dynMu.Lock()
	if t.dynFilters == nil {
		t.dynFilters = map[int]*dynfilter.Summary{}
	}
	if t.dynPublished == nil {
		t.dynPublished = map[int]*dynfilter.Summary{}
	}
	for i, id := range ids {
		t.dynFilters[id], t.dynPublished[id] = full[i], full[i]
	}
	t.dynArrivals.Add(1)
	t.dynMu.Unlock()
	if empty {
		// Splits not yet opened are dropped off the bridge's lock; until
		// then, a split opened is skipped (openPageSource).
		go func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.shortCircuitLocked()
		}()
	}
	var rids []int
	var rsums []*dynfilter.Summary
	for i, id := range ids {
		if t.relayed(id) {
			rids, rsums = append(rids, id), append(rsums, full[i])
		}
	}
	if len(rids) == 0 || t.relay.Publish == nil {
		return
	}
	go func() {
		if err := t.cfg.Inject.Err(faultinject.SiteFilterPublish); err != nil {
			return // injected loss
		}
		t.relay.Publish(rids, rsums)
	}()
}

// PublishedFilters snapshots the summaries this task's join builds have
// published.
func (t *Task) PublishedFilters() map[int]*dynfilter.Summary {
	t.dynMu.Lock()
	defer t.dynMu.Unlock()
	out := make(map[int]*dynfilter.Summary, len(t.dynPublished))
	for id, s := range t.dynPublished {
		out[id] = s
	}
	return out
}

// DeliverFilter hands the task one dynamic-filter summary built in another
// fragment. Split starts gated on the filter resume immediately; an empty
// summary short-circuits subscribed INNER/SEMI scans by dropping their
// remaining splits. Late delivery (after the bounded wait expired and splits
// opened unfiltered) still narrows every split opened afterwards and filters
// every page read afterwards, of open splits too. Safe at any point in the
// task lifecycle, including after completion.
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
	if t.failed != nil {
		return
	}
	if s.Empty() {
		t.shortCircuitLocked()
	}
	t.startScansLocked()
}

// shortCircuitLocked drops the remaining splits of every scan an empty build
// proved joins nothing. Caller holds t.mu.
func (t *Task) shortCircuitLocked() {
	for _, p := range t.compiled {
		if p.source == srcScan && t.dynEmpty(p) {
			t.dropScanSplitsLocked(p)
		}
	}
}

// dynEmpty reports whether a summary a scan short-circuits on (INNER/SEMI
// subscriptions) has arrived empty. It takes only dynMu.
func (t *Task) dynEmpty(p *pipelineSpec) bool {
	if len(p.dynSubs) == 0 {
		return false
	}
	t.dynMu.Lock()
	defer t.dynMu.Unlock()
	for _, sub := range p.dynSubs {
		if s := t.dynFilters[sub.ID]; sub.ShortCircuit && s != nil && s.Empty() {
			return true
		}
	}
	return false
}

// dropScanSplitsLocked discards a scan's remaining splits (empty-build short
// circuit): already-open sources finish naturally — their rows join nothing
// — and future splits are rejected at AddSplit. Caller holds t.mu.
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

// emptySource is the page source of a split an empty build made pointless.
type emptySource struct{}

func (emptySource) NextPage() (*block.Page, error) { return nil, nil }
func (emptySource) BytesRead() int64               { return 0 }
func (emptySource) Close()                         {}

var _ connector.PageSource = emptySource{}

// dynGateLocked reports whether a scan's split starts are still held waiting
// for the filters it subscribes to from other fragments. The wait is bounded
// by DynamicFilterWait: a timer re-evaluates the scan's starts at the
// deadline, so a lost filter costs at most the wait budget, never a hang.
// Caller holds t.mu.
func (t *Task) dynGateLocked(p *pipelineSpec) bool {
	if !slices.ContainsFunc(p.dynSubs, func(sub dynSub) bool { return !sub.own }) {
		return false
	}
	if g := t.dynGates[p.scanID]; g != nil && g.done {
		return false
	}
	wait := t.cfg.DynamicFilterWait
	if wait == 0 {
		wait = DefaultDynamicFilterWait
	}
	if wait <= 0 {
		return false
	}
	missing := false
	t.dynMu.Lock()
	for _, sub := range p.dynSubs {
		if _, ok := t.dynFilters[sub.ID]; !ok && !sub.own {
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
		time.AfterFunc(wait+time.Millisecond, t.resumeScans)
	}
	if !missing || time.Since(g.start) >= wait {
		g.done = true
		waited := time.Since(g.start).Nanoseconds()
		p.opStats[0].RecordDynWait(waited)
		for _, sub := range p.dynSubs {
			if !sub.own {
				sub.stats.waitNanos.Add(waited)
			}
		}
		return false
	}
	return true
}

// appliedFilter is one of a scan's subscriptions whose summary has arrived and
// filters.
type appliedFilter struct {
	sub dynSub
	sum *dynfilter.Summary
}

// dynApplied snapshots the filters applicable to a scan pipeline right now,
// the row-tested ones only when rowTested is set. Called from split opens
// (with or without t.mu) and from drivers — it takes only dynMu.
func (t *Task) dynApplied(p *pipelineSpec, rowTested bool) []appliedFilter {
	if len(p.dynSubs) == 0 {
		return nil
	}
	var fs []appliedFilter
	t.dynMu.Lock()
	for _, sub := range p.dynSubs {
		if s := t.dynFilters[sub.ID]; s != nil && !s.Disabled && (sub.rowTested || !rowTested) {
			fs = append(fs, appliedFilter{sub, s})
		}
	}
	t.dynMu.Unlock()
	return fs
}

// dynArrived returns what the page processor on a scan with row-tested
// subscriptions asks whenever dynArrivals moves: the row-tested filters whose
// summaries have arrived, each counting on its subscription's stats.
func (t *Task) dynArrived(p *pipelineSpec) func() []expr.DynFilter {
	return func() []expr.DynFilter {
		var fs []expr.DynFilter
		for _, f := range t.dynApplied(p, true) {
			fs = append(fs, expr.DynFilter{Col: f.sub.Col, T: p.scanNode.Out[f.sub.Col].T, Summary: f.sum, Count: f.sub.stats.recordRows})
		}
		return fs
	}
}

// dynNarrowedHandle returns the scan's table handle narrowed, for connector
// pruning, by the summaries that have arrived at split-open time.
func (t *Task) dynNarrowedHandle(p *pipelineSpec) plan.TableHandle {
	h := p.handle
	h.Constraint = p.constraint
	fs := t.dynApplied(p, false)
	if len(fs) == 0 {
		return h
	}
	sc := p.scanNode
	add := map[string]*plan.ColumnDomain{}
	for _, f := range fs {
		name := sc.Columns[f.sub.Col]
		// Only same-type summaries (cross-type equality folding stays in the
		// row kernels and the join, where it is exact) and only for columns
		// the pushed-down constraint does not already bound.
		if f.sum.T != sc.Out[f.sub.Col].T || add[name] != nil {
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
// small exact sets become IN-lists (sorted, so the narrowed handle is
// deterministic), everything else degrades to the observed [min,max] range.
// NULL never joins, so NullAllowed stays false.
func summaryDomain(s *dynfilter.Summary) *plan.ColumnDomain {
	if n := s.ExactLen(); n > 0 && n <= dynfilter.MaxPushdownPoints {
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
