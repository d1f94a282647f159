package coordinator

// Serving-tier integration: the coordinator's front door consults the plan
// cache before parsing and the result cache before admission, and stores
// fresh plans and captured results after planning and clean drains. Each
// entry holds the table versions it read, and a lookup checks them against
// the connectors' (planValid, resultFresh): no write invalidates an entry.

import (
	"slices"
	"strconv"
	"time"

	"repro/internal/connector"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/types"
	"repro/internal/wire"
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

// tableVersions snapshots the current connector version of each table.
func (c *Coordinator) tableVersions(tables [][2]string) []int64 {
	out := make([]int64, len(tables))
	for i, t := range tables {
		out[i] = c.Catalog.TableVersion(t[0], t[1])
	}
	return out
}

// cachedPlan builds the statement's template — its text with the literals of
// value positions lifted out, its catalog and the switches that change
// planning (execution-only switches — cache, spill — share entries) — and
// looks up a plan under it. A template hit comes back unbound: the result
// cache is asked first, and bindPlan binds the statement's literals only when
// the statement executes. The template is returned even on a miss, so the
// planning path can parse with its slots and store under its key, and the
// result cache can key by it; it is nil when both caches are off for the
// statement or never hold it.
//
// An entry whose tables changed schema, or grew or shrank past
// serving.RowDrift since planning, is dropped and the statement replanned: the
// statistics that chose its join order no longer hold.
func (c *Coordinator) cachedPlan(sql string, session Session) (*serving.PlanEntry, *serving.Template) {
	tier := c.cfg.Serving
	plans, results := c.servingOn(session)
	if !plans && !results {
		return nil, nil
	}
	tmpl, ok := serving.PlanKey(sql, session.Catalog, strconv.Itoa(int(session.Switches.Planning())))
	if !ok {
		return nil, nil
	}
	if !plans {
		return nil, &tmpl
	}
	e, _ := tier.Plans.Lookup(&tmpl, c.planValid)
	return e, &tmpl
}

// servingOn reports which serving caches a statement of the session uses.
func (c *Coordinator) servingOn(session Session) (plans, results bool) {
	tier := c.cfg.Serving
	if tier == nil {
		return false, false
	}
	return tier.Plans != nil && !session.Switches.Has(exec.DisablePlanCache),
		tier.Results != nil && !session.Switches.Has(exec.DisableResultCache)
}

// planValid reports whether each table a cached plan reads has the schema
// version and, within serving.RowDrift, the row count it was planned at.
func (c *Coordinator) planValid(e *serving.PlanEntry) bool {
	for i, t := range e.Tables {
		if c.Catalog.SchemaVersion(t[0], t[1]) != e.Schemas[i] ||
			!serving.RowsWithin(e.Rows[i], c.Catalog.Stats(t[0], t[1]).RowCount) {
			return false
		}
	}
	return true
}

// canBind reports whether a cache entry runs with the literals vals, as a
// prepared statement runs with its parameters: join order, distribution and
// estimates stay as planned, and nothing is copied. The plan runs unbound —
// its tasks read vals as parameters, and a scan's constraint is bound where it
// is read (split enumeration, a worker's page sources) — so what is checked
// here is that every value coerces to each type the plan holds its slot at,
// and that the connectors' pushdown answers the bound constraints as it
// answered the planned ones (a sharded connector routes by them). false: the
// statement is planned afresh.
func (c *Coordinator) canBind(e *serving.PlanEntry, b *scanBinder) bool {
	if !e.Template || serving.SameValues(e.Values, b.vals) {
		return true
	}
	for _, st := range e.Coercions {
		if _, err := b.vals[st.Slot-1].Coerce(st.T); err != nil {
			return false
		}
	}
	pd, err := c.pushdown(e.Logical, b)
	return err == nil && slices.EqualFunc(pd, e.Pushdown, slices.Equal)
}

// scanBinder binds scan constraints to a statement's literals vals (none: the
// plan's own), each distinct constraint once for the statement: a template's
// fragments share their scans' constraints with its logical plan.
type scanBinder struct {
	vals     []types.Value
	from, to []*plan.Domain
}

// bind returns d bound: d itself when it holds no lifted bound.
func (b *scanBinder) bind(d *plan.Domain) (*plan.Domain, error) {
	if len(b.vals) == 0 || d.All() {
		return d, nil
	}
	i := slices.Index(b.from, d)
	if i < 0 {
		bound, err := d.Bind(b.vals)
		if err != nil {
			return nil, err
		}
		b.from, b.to, i = append(b.from, d), append(b.to, bound), len(b.from)
	}
	return b.to[i], nil
}

// scan returns sc with its constraint bound: sc itself when it holds no
// lifted bound.
func (b *scanBinder) scan(sc *plan.Scan) (*plan.Scan, error) {
	d, err := b.bind(sc.Handle.Constraint)
	if err != nil || d == sc.Handle.Constraint {
		return sc, err
	}
	cp := *sc
	cp.Handle.Constraint = d
	return &cp, nil
}

// pushdown asks each constrained scan's connector which constraint columns it
// enforces, in plan.Walk order, with the constraints bound by b.
func (c *Coordinator) pushdown(n plan.Node, b *scanBinder) ([][]string, error) {
	var out [][]string
	var err error
	plan.Walk(n, func(n plan.Node) {
		sc, ok := n.(*plan.Scan)
		if !ok || sc.Handle.Constraint.All() || err != nil {
			return
		}
		var d *plan.Domain
		if d, err = b.bind(sc.Handle.Constraint); err == nil {
			out = append(out, c.Catalog.Pushdown(sc.Handle.Catalog, sc.Handle.Table, d))
		}
	})
	return out, err
}

// buildPlanEntry packages a freshly optimized read-only plan for the caches,
// with the schema versions its tables were resolved at (planStatement's
// schemas). The plan is a template when every literal tmpl lifted is still
// traced in both plans and no constraint's shape depended on their values.
// ResultOK means repeat executions produce identical rows (no expression
// calls random()): only such a plan is cached, and its results too.
func (c *Coordinator) buildPlanEntry(logical plan.Node, dp *plan.DistributedPlan, tmpl *serving.Template, schemas map[[2]string]int64) *serving.PlanEntry {
	deterministic := true
	plan.WalkExprs(logical, func(e expr.Expr) {
		deterministic = deterministic && expr.IsDeterministic(e)
	})
	tables := scanTables(logical)
	var cols []string
	for _, f := range logical.Schema() {
		cols = append(cols, f.Name)
	}
	pushdown, _ := c.pushdown(logical, &scanBinder{})
	e := &serving.PlanEntry{
		Logical:     logical,
		Distributed: dp,
		Template:    isTemplate(logical, dp, len(tmpl.Values)),
		Values:      tmpl.Values,
		Tables:      tables,
		Schemas:     make([]int64, len(tables)),
		Rows:        make([]int64, len(tables)),
		Pushdown:    pushdown,
		ResultBase:  serving.ResultBase(tmpl.Key, cols),
		ResultOK:    deterministic,
	}
	for _, f := range dp.Fragments {
		e.Coercions = plan.SlotTypes(f.Root, e.Coercions)
	}
	for i, t := range tables {
		e.Schemas[i] = schemas[t]
		e.Rows[i] = c.Catalog.Stats(t[0], t[1]).RowCount
	}
	return e
}

// encodeForms encodes each fragment of dp, for the life of a plan entry
// (serving.PlanEntry.Forms): nil when one does not encode.
func encodeForms(dp *plan.DistributedPlan) []wire.Form {
	forms := make([]wire.Form, len(dp.Fragments))
	for _, f := range dp.Fragments {
		form, err := wire.EncodeFragment(f)
		if err != nil {
			return nil
		}
		forms[f.ID] = form
	}
	return forms
}

// isTemplate reports whether each of the statement's slots is traced in the
// logical plan and in every fragment, and no constraint is value-shaped.
func isTemplate(logical plan.Node, dp *plan.DistributedPlan, slots int) bool {
	traced := make([]bool, slots)
	if !plan.TraceSlots(logical, traced) || slices.Contains(traced, false) {
		return false
	}
	clear(traced)
	for _, f := range dp.Fragments {
		if !plan.TraceSlots(f.Root, traced) {
			return false
		}
	}
	return !slices.Contains(traced, false)
}

// servedResult completes a query straight from the result cache: no
// admission, no planning, no tasks. The pages are immutable and shared with
// the cache entry.
func (c *Coordinator) servedResult(q *Query, e *serving.ResultEntry, start time.Time) *Result {
	now := time.Now()
	r := &Result{Columns: e.Columns, QueryID: q.Info.ID, pages: e.Pages, done: true}
	q.mu.Lock()
	q.Info.State = StateRunning
	q.Info.Started = now
	q.result = r
	q.mu.Unlock()
	r.onClose = func(resErr error) {
		if resErr != nil {
			q.fail(resErr)
		} else {
			q.finish()
		}
		c.observeLatency(start)
		c.retire(q)
	}
	return r
}

// scanReads records, for each of tables (a plan's scanTables), the
// constraint of every scan of it in n, bound by b: what a result of n may
// depend on.
func scanReads(n plan.Node, tables [][2]string, b *scanBinder) []serving.TableRead {
	reads := make([]serving.TableRead, len(tables))
	for i, t := range tables {
		reads[i] = serving.TableRead{Catalog: t[0], Table: t[1]}
	}
	plan.Walk(n, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			i := slices.Index(tables, [2]string{sc.Handle.Catalog, sc.Handle.Table})
			// canBind has bound every constraint before.
			d, err := b.bind(sc.Handle.Constraint)
			if err != nil {
				d = sc.Handle.Constraint
			}
			reads[i].Scans = append(reads[i].Scans, d)
		}
	})
	return reads
}

// appendLog returns the catalog's connector.AppendLog, or nil.
func (c *Coordinator) appendLog(catalog string) connector.AppendLog {
	conn, err := c.Catalog.Connector(catalog)
	if err != nil {
		return nil
	}
	log, _ := conn.(connector.AppendLog)
	return log
}

// resultFresh is the result cache's serving.Freshness: a result stamped at
// stamp still holds while each table it read is at its stamped version, or
// moved from it only by appends its connector logged and no scan of the table
// admits a row of. It then holds at the versions those appends reached.
func (c *Coordinator) resultFresh(reads []serving.TableRead, stamp []int64) ([]int64, bool) {
	now := stamp
	for i, r := range reads {
		if c.Catalog.TableVersion(r.Catalog, r.Table) == stamp[i] {
			continue
		}
		log := c.appendLog(r.Catalog)
		if log == nil {
			return nil, false
		}
		disjoint := true
		to, ok := log.Appends(r.Table, stamp[i], func(s *connector.AppendSummary) bool {
			for _, d := range r.Scans {
				if !s.Disjoint(d) {
					disjoint = false
					return false
				}
			}
			return true
		})
		if !ok || !disjoint {
			return nil, false
		}
		if &now[0] == &stamp[0] {
			now = slices.Clone(stamp)
		}
		now[i] = to
	}
	return now, true
}

// observeLatency records one statement's end-to-end latency.
func (c *Coordinator) observeLatency(start time.Time) {
	if c.stmtLatency != nil {
		c.stmtLatency.Record(time.Since(start))
	}
}

// CachedPlan returns the plans a plan-cache hit would run the statement with
// and the literals it would run them with, and false when the cache has none
// for it (a lookup counts as one like a statement's). Tests compare them, the
// literals substituted, with a fresh Plan.
func (c *Coordinator) CachedPlan(sql string, session Session) (plan.Node, *plan.DistributedPlan, []types.Value, bool) {
	e, tmpl := c.cachedPlan(sql, c.admitSession(session))
	if e == nil || !c.canBind(e, &scanBinder{vals: tmpl.Values}) {
		return nil, nil, nil, false
	}
	return e.Logical, e.Distributed, tmpl.Values, true
}
