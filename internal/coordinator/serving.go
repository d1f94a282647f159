package coordinator

// Serving-tier integration: the coordinator's front door consults the plan
// cache before parsing and the result cache before admission, stores fresh
// plans and captured results after planning and clean drains, and routes the
// same write-invalidation hook the metadata cache uses into both caches.

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/serving"
)

// scanTables collects the distinct (catalog, table) pairs a plan reads, in
// first-visit order.
func scanTables(n plan.Node) [][2]string {
	var out [][2]string
	seen := map[[2]string]bool{}
	plan.Walk(n, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			t := [2]string{sc.Handle.Catalog, sc.Handle.Table}
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	})
	return out
}

// tableVersions snapshots the current connector version of each table (0 for
// unversioned connectors).
func (c *Coordinator) tableVersions(tables [][2]string) []int64 {
	out := make([]int64, len(tables))
	for i, t := range tables {
		out[i] = c.Catalog.TableVersion(t[0], t[1])
	}
	return out
}

// allVersioned reports that every table's connector tracks data versions —
// the precondition for result caching, where staleness must be detectable
// rather than merely TTL-bounded.
func (c *Coordinator) allVersioned(tables [][2]string) bool {
	for _, t := range tables {
		if conn, err := c.Catalog.Connector(t[0]); err != nil || !isVersioned(conn) {
			return false
		}
	}
	return true
}

// historyGen is the optimizer history generation this session plans under (0
// when the store is absent, non-generational, or HBO is off for the session).
func (c *Coordinator) historyGen(session Session) uint64 {
	if session.Switches.Has(exec.DisableHBO) {
		return 0
	}
	if g, ok := c.cfg.Optimizer.History.(serving.Generational); ok {
		return g.Gen()
	}
	return 0
}

// cachedPlan looks up and validates a plan-cache entry for the statement,
// keyed on its text, its catalog and the switches that change planning;
// execution-only switches (cache, kernels, morsels) share entries. The key
// is returned even on a miss so the planning path can store under it. A
// version or history-generation mismatch drops the entry and replans:
// statistics, pushdown pruning, and history salts may all have changed.
func (c *Coordinator) cachedPlan(sql string, session Session) (*serving.PlanEntry, string, bool) {
	tier := c.cfg.Serving
	if tier == nil || tier.Plans == nil || session.Switches.Has(exec.DisablePlanCache) {
		return nil, "", false
	}
	key := serving.PlanKey(sql, session.Catalog, strconv.Itoa(int(session.Switches.Planning())))
	e, ok := tier.Plans.Get(key)
	if !ok {
		return nil, key, false
	}
	for i, t := range e.Tables {
		if c.Catalog.TableVersion(t[0], t[1]) != e.Versions[i] {
			tier.Plans.Remove(key)
			return nil, key, false
		}
	}
	if e.HistoryGen != c.historyGen(session) {
		tier.Plans.Remove(key)
		return nil, key, false
	}
	return e, key, true
}

// buildPlanEntry packages a freshly optimized read-only plan for the caches.
// Deterministic means repeat executions produce identical rows (no random());
// ResultOK additionally requires every table to be versioned.
func (c *Coordinator) buildPlanEntry(logical plan.Node, dp *plan.DistributedPlan,
	session Session) (*serving.PlanEntry, bool) {

	planText := plan.Format(logical)
	deterministic := !strings.Contains(planText, "random(")
	tables := scanTables(logical)
	var cols []string
	for _, f := range logical.Schema() {
		cols = append(cols, f.Name)
	}
	e := &serving.PlanEntry{
		Logical:     logical,
		Distributed: dp,
		Tables:      tables,
		Versions:    c.tableVersions(tables),
		HistoryGen:  c.historyGen(session),
		ResultBase:  serving.ResultBase(planText, cols),
		ResultOK:    deterministic && c.allVersioned(tables),
	}
	return e, deterministic
}

// servedResult completes a query straight from the result cache: no
// admission, no planning, no tasks. The pages are immutable and shared with
// the cache entry.
func (c *Coordinator) servedResult(q *Query, e *serving.ResultEntry, start time.Time) *Result {
	now := time.Now()
	q.mu.Lock()
	q.Info.State = StateRunning
	q.Info.Started = now
	q.mu.Unlock()
	r := &Result{Columns: e.Columns, QueryID: q.Info.ID, pages: e.Pages, done: true}
	q.result = r
	r.onClose = func(resErr error) {
		if resErr != nil {
			q.fail(resErr)
		} else {
			q.finish()
		}
		c.observeLatency(start)
	}
	return r
}

func isVersioned(conn connector.Connector) bool {
	_, ok := conn.(connector.Versioned)
	return ok
}

// observeLatency records one statement's end-to-end latency.
func (c *Coordinator) observeLatency(start time.Time) {
	if c.stmtLatency != nil {
		c.stmtLatency.Record(time.Since(start))
	}
}
