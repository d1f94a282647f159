package optimizer

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// foldConstantFilter simplifies constant predicates: Filter(TRUE) vanishes,
// Filter(FALSE/NULL) becomes an empty Values.
func foldConstantFilter(o *Optimizer, n plan.Node) (plan.Node, bool) {
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, false
	}
	c, ok := f.Predicate.(*expr.Const)
	if !ok {
		return n, false
	}
	if !c.Val.Null && c.Val.B {
		return f.Input, true
	}
	return &plan.Values{Rows: nil, Out: f.Schema()}, true
}

// mergeFilters fuses stacked filters into one conjunction.
func mergeFilters(o *Optimizer, n plan.Node) (plan.Node, bool) {
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, false
	}
	inner, ok := f.Input.(*plan.Filter)
	if !ok {
		return n, false
	}
	return &plan.Filter{
		Input:     inner.Input,
		Predicate: &expr.And{L: inner.Predicate, R: f.Predicate},
	}, true
}

// pushFilterThroughProject moves a filter below a projection by substituting
// the projection expressions into the predicate (only for deterministic
// projections).
func pushFilterThroughProject(o *Optimizer, n plan.Node) (plan.Node, bool) {
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, false
	}
	p, ok := f.Input.(*plan.Project)
	if !ok {
		return n, false
	}
	for _, e := range p.Exprs {
		if !expr.IsDeterministic(e) {
			return n, false
		}
	}
	substituted := expr.Rewrite(f.Predicate, func(e expr.Expr) expr.Expr {
		if cr, ok := e.(*expr.ColumnRef); ok {
			return p.Exprs[cr.Index]
		}
		return nil
	})
	return &plan.Project{
		Input: &plan.Filter{Input: p.Input, Predicate: substituted},
		Exprs: p.Exprs,
		Out:   p.Out,
	}, true
}

// pushFilterIntoJoin pushes conjuncts that reference only one side of a join
// below the join (for sides where that preserves semantics).
func pushFilterIntoJoin(o *Optimizer, n plan.Node) (plan.Node, bool) {
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, false
	}
	j, ok := f.Input.(*plan.Join)
	if !ok {
		return n, false
	}
	leftW := len(j.Left.Schema())
	var leftPush, rightPush, keep []expr.Expr
	for _, cj := range expr.Conjuncts(f.Predicate) {
		cols := expr.Columns(cj)
		onlyLeft, onlyRight := true, true
		for _, c := range cols {
			if c >= leftW {
				onlyLeft = false
			} else {
				onlyRight = false
			}
		}
		// Pushing below the null-producing side of an outer join changes
		// semantics; restrict appropriately.
		canLeft := j.Type == plan.InnerJoin || j.Type == plan.CrossJoin ||
			j.Type == plan.LeftJoin || j.Type == plan.SemiJoin || j.Type == plan.AntiJoin
		canRight := j.Type == plan.InnerJoin || j.Type == plan.CrossJoin || j.Type == plan.RightJoin
		switch {
		case onlyLeft && len(cols) > 0 && canLeft:
			leftPush = append(leftPush, cj)
		case onlyRight && len(cols) > 0 && canRight:
			shifted := expr.Rewrite(cj, func(e expr.Expr) expr.Expr {
				if cr, ok := e.(*expr.ColumnRef); ok {
					return &expr.ColumnRef{Index: cr.Index - leftW, T: cr.T, Name: cr.Name}
				}
				return nil
			})
			rightPush = append(rightPush, shifted)
		default:
			keep = append(keep, cj)
		}
	}
	if len(leftPush) == 0 && len(rightPush) == 0 {
		return n, false
	}
	newJoin := *j
	if len(leftPush) > 0 {
		newJoin.Left = &plan.Filter{Input: j.Left, Predicate: expr.AndAll(leftPush)}
	}
	if len(rightPush) > 0 {
		newJoin.Right = &plan.Filter{Input: j.Right, Predicate: expr.AndAll(rightPush)}
	}
	var out plan.Node = &newJoin
	if len(keep) > 0 {
		out = &plan.Filter{Input: out, Predicate: expr.AndAll(keep)}
	}
	return out, true
}

// pushFilterIntoScan converts sargable conjuncts over a scan into a Domain
// pushed into the table handle (paper §IV-C2). The filter is retained above
// the scan unless the connector reports it fully enforces the column's
// constraint.
func pushFilterIntoScan(o *Optimizer, n plan.Node) (plan.Node, bool) {
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, false
	}
	scan, ok := f.Input.(*plan.Scan)
	if !ok {
		return n, false
	}
	domain, _ := ExtractDomain(f.Predicate, scan)
	if domain.All() {
		return n, false
	}
	merged := domain
	if scan.Handle.Constraint != nil {
		merged = scan.Handle.Constraint.Intersect(domain)
	}
	// Idempotence: if nothing new was learned, stop.
	if scan.Handle.Constraint != nil && merged.String() == scan.Handle.Constraint.String() {
		return n, false
	}
	newScan := *scan
	newScan.Handle.Constraint = merged

	var remaining []expr.Expr
	enforced := map[string]bool{}
	if o.Meta != nil {
		for _, col := range o.Meta.Pushdown(scan.Handle.Catalog, scan.Handle.Table, merged) {
			enforced[col] = true
		}
	}
	for _, cj := range expr.Conjuncts(f.Predicate) {
		if col, ok := conjunctColumn(cj, scan); ok && enforced[col] {
			continue // the connector guarantees this conjunct
		}
		remaining = append(remaining, cj)
	}
	if len(remaining) == 0 {
		return &newScan, true
	}
	return &plan.Filter{Input: &newScan, Predicate: expr.AndAll(remaining)}, true
}

// conjunctColumn returns the scan column name a simple sargable conjunct
// constrains, if any.
func conjunctColumn(e expr.Expr, scan *plan.Scan) (string, bool) {
	cols := expr.Columns(e)
	if len(cols) != 1 {
		return "", false
	}
	switch e.(type) {
	case *expr.Compare, *expr.Between, *expr.In:
		return scan.Columns[cols[0]], true
	}
	return "", false
}

// ExtractDomain derives a connector Domain from sargable conjuncts of a
// predicate over a scan. The second result lists the conjuncts that were
// representable.
func ExtractDomain(pred expr.Expr, scan *plan.Scan) (*plan.Domain, []expr.Expr) {
	d := plan.AllDomain()
	var used []expr.Expr
	for _, cj := range expr.Conjuncts(pred) {
		cd, colIdx, ok := conjunctDomain(cj)
		if !ok {
			continue
		}
		name := scan.Columns[colIdx]
		if prev, exists := d.Columns[name]; exists {
			d.Columns[name] = prev.Intersect(cd)
		} else {
			d.Columns[name] = cd
		}
		used = append(used, cj)
	}
	return d, used
}

// conjunctDomain converts one conjunct into a column domain when possible.
func conjunctDomain(e expr.Expr) (*plan.ColumnDomain, int, bool) {
	switch x := e.(type) {
	case *expr.Compare:
		cr, cok := x.L.(*expr.ColumnRef)
		c, vok := x.R.(*expr.Const)
		op := x.Op
		if !cok || !vok {
			// value <op> column: flip.
			cr, cok = x.R.(*expr.ColumnRef)
			c, vok = x.L.(*expr.Const)
			if !cok || !vok {
				return nil, 0, false
			}
			switch op {
			case expr.CmpLt:
				op = expr.CmpGt
			case expr.CmpLe:
				op = expr.CmpGe
			case expr.CmpGt:
				op = expr.CmpLt
			case expr.CmpGe:
				op = expr.CmpLe
			}
		}
		if c.Val.Null {
			return nil, 0, false
		}
		// A lifted literal's slot follows its value into the domain, so a
		// template's constraint binds with its filter.
		v, s := c.Val, c.Slot
		switch op {
		case expr.CmpEq:
			return plan.PointDomain(cr.T, v).WithSlots(s, 0), cr.Index, true
		case expr.CmpLt:
			return plan.RangeDomain(cr.T, nil, &v, false, false).WithSlots(0, s), cr.Index, true
		case expr.CmpLe:
			return plan.RangeDomain(cr.T, nil, &v, false, true).WithSlots(0, s), cr.Index, true
		case expr.CmpGt:
			return plan.RangeDomain(cr.T, &v, nil, false, false).WithSlots(s, 0), cr.Index, true
		case expr.CmpGe:
			return plan.RangeDomain(cr.T, &v, nil, true, false).WithSlots(s, 0), cr.Index, true
		default:
			return nil, 0, false
		}
	case *expr.Between:
		if x.Negate {
			return nil, 0, false
		}
		cr, cok := x.E.(*expr.ColumnRef)
		lo, lok := x.Lo.(*expr.Const)
		hi, hok := x.Hi.(*expr.Const)
		if !cok || !lok || !hok || lo.Val.Null || hi.Val.Null {
			return nil, 0, false
		}
		lv, hv := lo.Val, hi.Val
		return plan.RangeDomain(cr.T, &lv, &hv, true, true).WithSlots(lo.Slot, hi.Slot), cr.Index, true
	case *expr.In:
		if x.Negate {
			return nil, 0, false
		}
		cr, cok := x.E.(*expr.ColumnRef)
		if !cok {
			return nil, 0, false
		}
		cd := &plan.ColumnDomain{T: cr.T}
		for _, le := range x.List {
			c, ok := le.(*expr.Const)
			if !ok {
				return nil, 0, false
			}
			if !c.Val.Null {
				cd.AddPoint(c.Val, c.Slot)
			}
		}
		if len(cd.Points) == 0 {
			return nil, 0, false
		}
		return cd, cr.Index, true
	case *expr.IsNull:
		// col IS NULL: a NULL point, which no value equals.
		cr, cok := x.E.(*expr.ColumnRef)
		if x.Negate || !cok {
			return nil, 0, false
		}
		return &plan.ColumnDomain{T: cr.T, Points: []types.Value{types.NullValue(cr.T)}, NullAllowed: true}, cr.Index, true
	case *expr.Or:
		// col = c OR col IS NULL (an IN list too, either side first): the
		// points and the NULL point.
		l, r := x.L, x.R
		if _, ok := l.(*expr.IsNull); ok {
			l, r = r, l
		}
		if _, ok := r.(*expr.IsNull); !ok {
			return nil, 0, false
		}
		cd, col, ok := conjunctDomain(l)
		null, ncol, nok := conjunctDomain(r)
		if !ok || !nok || col != ncol || len(cd.Points) == 0 || cd.NullAllowed {
			return nil, 0, false
		}
		cd.AddPoint(null.Points[0], 0)
		cd.NullAllowed = true
		return cd, col, true
	case *expr.Like:
		// Prefix patterns become ranges: col LIKE 'abc%' → ['abc','abd').
		if x.Negate {
			return nil, 0, false
		}
		cr, cok := x.E.(*expr.ColumnRef)
		pat, pok := x.Pattern.(*expr.Const)
		// A lifted pattern would bind without the range derived from it.
		if !cok || !pok || pat.Val.Null || pat.Slot > 0 {
			return nil, 0, false
		}
		prefix := expr.LikePrefix(pat.Val.S)
		if prefix == "" || prefix == pat.Val.S {
			if prefix == pat.Val.S { // no wildcards: equality
				return plan.PointDomain(types.Varchar, types.VarcharValue(prefix)), cr.Index, true
			}
			return nil, 0, false
		}
		lo := types.VarcharValue(prefix)
		hiBytes := []byte(prefix)
		hiBytes[len(hiBytes)-1]++
		hi := types.VarcharValue(string(hiBytes))
		return plan.RangeDomain(types.Varchar, &lo, &hi, true, false), cr.Index, true
	default:
		return nil, 0, false
	}
}

// fuseTopN turns Limit(Sort(x)) into TopN(x).
func fuseTopN(o *Optimizer, n plan.Node) (plan.Node, bool) {
	l, ok := n.(*plan.Limit)
	if !ok || l.Offset != 0 {
		return n, false
	}
	s, ok := l.Input.(*plan.Sort)
	if !ok {
		return n, false
	}
	if l.N > 1_000_000 {
		return n, false // too large for a heap; keep full sort
	}
	return &plan.TopN{Input: s.Input, Keys: s.Keys, N: l.N}, true
}

// mergeLimits collapses stacked limits.
func mergeLimits(o *Optimizer, n plan.Node) (plan.Node, bool) {
	l, ok := n.(*plan.Limit)
	if !ok {
		return n, false
	}
	inner, ok := l.Input.(*plan.Limit)
	if !ok || inner.Offset != 0 || l.Offset != 0 {
		return n, false
	}
	m := l.N
	if inner.N < m {
		m = inner.N
	}
	return &plan.Limit{Input: inner.Input, N: m}, true
}

// removeIdentityProject drops projections that pass all columns through
// unchanged.
func removeIdentityProject(o *Optimizer, n plan.Node) (plan.Node, bool) {
	p, ok := n.(*plan.Project)
	if !ok {
		return n, false
	}
	in := p.Input.Schema()
	if len(p.Exprs) != len(in) {
		return n, false
	}
	for i, e := range p.Exprs {
		cr, ok := e.(*expr.ColumnRef)
		if !ok || cr.Index != i {
			return n, false
		}
		if p.Out[i].Name != in[i].Name {
			return n, false
		}
	}
	return p.Input, true
}

// maskCaseAggregates gives an aggregate over a one-branch CASE a mask
// (plan.Aggregate's Mask), so that the CASE is not evaluated as a column and
// then aggregated whole:
//
//	sum(CASE WHEN p THEN y ELSE 0 END)    → sum(y) mask (p) else 0
//	sum(CASE WHEN p THEN 0 ELSE y END)    → sum(y) mask (p is not TRUE) else 0
//	f(CASE WHEN p THEN y [ELSE NULL] END) → f(y) mask (p), f one of sum, avg,
//	                                        count, min and max
//
// The aggregate then reads exactly what it read: p is evaluated at every row
// and y only where the mask holds, a row outside the mask reads the ELSE, and
// a group none of whose rows the mask holds sums to 0 under ELSE 0 and is NULL
// otherwise, as an empty input is. "p is not TRUE" — FALSE or NULL — is CASE
// WHEN p THEN false ELSE true END, which the predicate compiler selects as the
// complement of p. The ELSE literal stays in the plan: a template's other
// statements carry their own. An aggregation with a DISTINCT aggregate is left
// alone: it runs over an exchange of its projection, where no mask applies.
func maskCaseAggregates(o *Optimizer, n plan.Node) (plan.Node, bool) {
	agg, ok := n.(*plan.Aggregation)
	if !ok || agg.Step != plan.AggSingle || slices.ContainsFunc(agg.Aggregates, func(a plan.Aggregate) bool { return a.Distinct }) {
		return n, false
	}
	var aggs []plan.Aggregate
	for i, a := range agg.Aggregates {
		if m, ok := maskCase(a); ok {
			if aggs == nil {
				aggs = slices.Clone(agg.Aggregates)
			}
			aggs[i] = m
		}
	}
	if aggs == nil {
		return n, false
	}
	cp := *agg
	cp.Aggregates = aggs
	return &cp, true
}

// maskCase is a masked as maskCaseAggregates rewrites it, if it is one of the
// forms.
func maskCase(a plan.Aggregate) (plan.Aggregate, bool) {
	c, ok := a.Arg.(*expr.Case)
	if !ok || a.Mask != nil || len(c.Whens) != 1 {
		return a, false
	}
	switch a.Func {
	case plan.AggSum, plan.AggAvg, plan.AggCount, plan.AggMin, plan.AggMax:
	default:
		return a, false
	}
	m := a
	p, then, els := c.Whens[0].Cond, c.Whens[0].Then, c.Else
	switch {
	case els == nil || isNullLiteral(els):
		m.Arg, m.Mask = then, p
	case a.Func == plan.AggSum && isZeroLiteral(els):
		m.Arg, m.Mask, m.Else = then, p, els
	case a.Func == plan.AggSum && isZeroLiteral(then):
		notTrue := &expr.Case{
			Whens: []expr.CaseWhen{{Cond: p, Then: &expr.Const{Val: types.BooleanValue(false)}}},
			Else:  &expr.Const{Val: types.BooleanValue(true)},
			T:     types.Boolean,
		}
		m.Arg, m.Mask, m.Else = els, notTrue, then
	default:
		return a, false
	}
	if m.Arg.Type() != c.Type() {
		return a, false
	}
	return m, true
}

// isNullLiteral reports whether e is a NULL literal.
func isNullLiteral(e expr.Expr) bool {
	k, ok := e.(*expr.Const)
	return ok && k.Val.Null
}

// isZeroLiteral reports whether e is a BIGINT or DOUBLE zero literal.
func isZeroLiteral(e expr.Expr) bool {
	k, ok := e.(*expr.Const)
	return ok && !k.Val.Null && k.Val.I == 0 && k.Val.F == 0 && (k.Val.T == types.Bigint || k.Val.T == types.Double)
}
