package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []expr.Expr{e}
}

// combineConjuncts rebuilds an AND tree (nil for an empty list).
func combineConjuncts(cs []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &expr.And{L: out, R: c}
		}
	}
	return out
}

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
	for _, cj := range splitConjuncts(f.Predicate) {
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
		newJoin.Left = &plan.Filter{Input: j.Left, Predicate: combineConjuncts(leftPush)}
	}
	if len(rightPush) > 0 {
		newJoin.Right = &plan.Filter{Input: j.Right, Predicate: combineConjuncts(rightPush)}
	}
	var out plan.Node = &newJoin
	if len(keep) > 0 {
		out = &plan.Filter{Input: out, Predicate: combineConjuncts(keep)}
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
	for _, cj := range splitConjuncts(f.Predicate) {
		if col, ok := conjunctColumn(cj, scan); ok && enforced[col] {
			continue // the connector guarantees this conjunct
		}
		remaining = append(remaining, cj)
	}
	if len(remaining) == 0 {
		return &newScan, true
	}
	return &plan.Filter{Input: &newScan, Predicate: combineConjuncts(remaining)}, true
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
	for _, cj := range splitConjuncts(pred) {
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
		v := c.Val
		switch op {
		case expr.CmpEq:
			return plan.PointDomain(cr.T, v), cr.Index, true
		case expr.CmpLt:
			return plan.RangeDomain(cr.T, nil, &v, false, false), cr.Index, true
		case expr.CmpLe:
			return plan.RangeDomain(cr.T, nil, &v, false, true), cr.Index, true
		case expr.CmpGt:
			return plan.RangeDomain(cr.T, &v, nil, false, false), cr.Index, true
		case expr.CmpGe:
			return plan.RangeDomain(cr.T, &v, nil, true, false), cr.Index, true
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
		return plan.RangeDomain(cr.T, &lv, &hv, true, true), cr.Index, true
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
				cd.Points = append(cd.Points, c.Val)
			}
		}
		if len(cd.Points) == 0 {
			return nil, 0, false
		}
		return cd, cr.Index, true
	case *expr.Like:
		// Prefix patterns become ranges: col LIKE 'abc%' → ['abc','abd').
		if x.Negate {
			return nil, 0, false
		}
		cr, cok := x.E.(*expr.ColumnRef)
		pat, pok := x.Pattern.(*expr.Const)
		if !cok || !pok || pat.Val.Null {
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
