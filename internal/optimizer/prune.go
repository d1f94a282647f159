package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// pruneColumns removes unused columns from the plan (the paper's column
// pruning rule, §IV-C). It propagates required-column sets top-down and
// rebuilds nodes with narrowed schemas, remapping column indices.
func (o *Optimizer) pruneColumns(root plan.Node) plan.Node {
	switch r := root.(type) {
	case *plan.Output:
		need := allOf(len(r.Input.Schema()))
		in, mapping := o.prune(r.Input, need)
		// Output requires all columns in order: mapping must be identity.
		_ = mapping
		return &plan.Output{Input: in, Names: r.Names}
	default:
		need := allOf(len(root.Schema()))
		out, _ := o.prune(root, need)
		return out
	}
}

func allOf(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// remapExpr rewrites column references through an old→new index mapping.
func remapExpr(e expr.Expr, mapping []int) expr.Expr {
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if cr, ok := x.(*expr.ColumnRef); ok {
			return &expr.ColumnRef{Index: mapping[cr.Index], T: cr.T, Name: cr.Name}
		}
		return nil
	})
}

func markExprCols(e expr.Expr, need []bool) {
	for _, c := range expr.Columns(e) {
		need[c] = true
	}
}

// prune rebuilds n keeping only needed output columns. It returns the new
// node and the old→new output index mapping (-1 for dropped columns).
func (o *Optimizer) prune(n plan.Node, need []bool) (plan.Node, []int) {
	identity := func(width int) []int {
		m := make([]int, width)
		for i := range m {
			m[i] = i
		}
		return m
	}

	switch x := n.(type) {
	case *plan.Scan:
		mapping := make([]int, len(x.Columns))
		var cols []string
		var out plan.Schema
		for i := range x.Columns {
			if need[i] {
				mapping[i] = len(cols)
				cols = append(cols, x.Columns[i])
				out = append(out, x.Out[i])
			} else {
				mapping[i] = -1
			}
		}
		if len(cols) == len(x.Columns) {
			return x, identity(len(cols))
		}
		return &plan.Scan{Handle: x.Handle, Columns: cols, Out: out}, mapping

	case *plan.Filter:
		childNeed := append([]bool{}, need...)
		markExprCols(x.Predicate, childNeed)
		child, cm := o.prune(x.Input, childNeed)
		pred := remapExpr(x.Predicate, cm)
		f := &plan.Filter{Input: child, Predicate: pred}
		// The filter's output is the child's (pruned) schema; compute the
		// mapping restricted to the originally needed columns.
		return o.narrow(f, need, cm)

	case *plan.Project:
		mapping := make([]int, len(x.Exprs))
		childNeed := make([]bool, len(x.Input.Schema()))
		var keptExprs []expr.Expr
		var keptOut plan.Schema
		for i, e := range x.Exprs {
			if !need[i] {
				mapping[i] = -1
				continue
			}
			markExprCols(e, childNeed)
			mapping[i] = len(keptExprs)
			keptExprs = append(keptExprs, e)
			keptOut = append(keptOut, x.Out[i])
		}
		child, cm := o.prune(x.Input, childNeed)
		for i, e := range keptExprs {
			keptExprs[i] = remapExpr(e, cm)
		}
		return &plan.Project{Input: child, Exprs: keptExprs, Out: keptOut}, mapping

	case *plan.Aggregation:
		ng := len(x.GroupBy)
		childNeed := make([]bool, len(x.Input.Schema()))
		for _, g := range x.GroupBy {
			markExprCols(g, childNeed)
		}
		mapping := make([]int, ng+len(x.Aggregates))
		var keptAggs []plan.Aggregate
		var out plan.Schema
		for i := 0; i < ng; i++ {
			mapping[i] = i // group keys always kept
			out = append(out, x.Out[i])
		}
		for i, a := range x.Aggregates {
			if !need[ng+i] {
				mapping[ng+i] = -1
				continue
			}
			if a.Arg != nil {
				markExprCols(a.Arg, childNeed)
			}
			if a.Mask != nil {
				markExprCols(a.Mask, childNeed)
			}
			mapping[ng+i] = ng + len(keptAggs)
			keptAggs = append(keptAggs, a)
			out = append(out, x.Out[ng+i])
		}
		child, cm := o.prune(x.Input, childNeed)
		groups := make([]expr.Expr, ng)
		for i, g := range x.GroupBy {
			groups[i] = remapExpr(g, cm)
		}
		for i := range keptAggs {
			if keptAggs[i].Arg != nil {
				keptAggs[i].Arg = remapExpr(keptAggs[i].Arg, cm)
			}
			if keptAggs[i].Mask != nil {
				keptAggs[i].Mask = remapExpr(keptAggs[i].Mask, cm)
			}
		}
		return &plan.Aggregation{Input: child, GroupBy: groups, Aggregates: keptAggs, Step: x.Step, Out: out}, mapping

	case *plan.Join:
		leftW := len(x.Left.Schema())
		rightW := len(x.Right.Schema())
		leftNeed := make([]bool, leftW)
		rightNeed := make([]bool, rightW)
		semiLike := x.Type == plan.SemiJoin || x.Type == plan.AntiJoin
		for i, nd := range need {
			if !nd {
				continue
			}
			if i < leftW {
				leftNeed[i] = true
			} else if !semiLike {
				rightNeed[i-leftW] = true
			}
		}
		for _, eq := range x.Equi {
			leftNeed[eq.Left] = true
			rightNeed[eq.Right] = true
		}
		if x.Residual != nil {
			for _, c := range expr.Columns(x.Residual) {
				if c < leftW {
					leftNeed[c] = true
				} else {
					rightNeed[c-leftW] = true
				}
			}
		}
		if semiLike || x.Type == plan.RightJoin || x.Type == plan.FullJoin {
			// Keep right side columns needed for output of right/full.
		}
		left, lm := o.prune(x.Left, leftNeed)
		right, rm := o.prune(x.Right, rightNeed)
		newLeftW := len(left.Schema())
		equi := make([]plan.EquiClause, len(x.Equi))
		for i, eq := range x.Equi {
			equi[i] = plan.EquiClause{Left: lm[eq.Left], Right: rm[eq.Right]}
		}
		var residual expr.Expr
		if x.Residual != nil {
			combined := make([]int, leftW+rightW)
			for i := 0; i < leftW; i++ {
				combined[i] = lm[i]
			}
			for i := 0; i < rightW; i++ {
				if rm[i] >= 0 {
					combined[leftW+i] = newLeftW + rm[i]
				} else {
					combined[leftW+i] = -1
				}
			}
			residual = remapExpr(x.Residual, combined)
		}
		var out plan.Schema
		mapping := make([]int, len(n.Schema()))
		out = append(out, left.Schema()...)
		for i := 0; i < leftW; i++ {
			mapping[i] = lm[i]
		}
		if !semiLike {
			out = append(out, right.Schema()...)
			for i := 0; i < rightW; i++ {
				if rm[i] >= 0 {
					mapping[leftW+i] = newLeftW + rm[i]
				} else {
					mapping[leftW+i] = -1
				}
			}
		}
		return &plan.Join{
			Type: x.Type, Left: left, Right: right,
			Equi: equi, Residual: residual, Strategy: x.Strategy, Out: out, NullAware: x.NullAware,
		}, mapping

	case *plan.Sort:
		childNeed := append([]bool{}, need...)
		for _, k := range x.Keys {
			childNeed[k.Col] = true
		}
		child, cm := o.prune(x.Input, childNeed)
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Col: cm[k.Col], Descending: k.Descending}
		}
		return o.narrow(&plan.Sort{Input: child, Keys: keys}, need, cm)

	case *plan.TopN:
		childNeed := append([]bool{}, need...)
		for _, k := range x.Keys {
			childNeed[k.Col] = true
		}
		child, cm := o.prune(x.Input, childNeed)
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Col: cm[k.Col], Descending: k.Descending}
		}
		return o.narrow(&plan.TopN{Input: child, Keys: keys, N: x.N}, need, cm)

	case *plan.Limit:
		child, cm := o.prune(x.Input, need)
		return o.narrow(&plan.Limit{Input: child, N: x.N, Offset: x.Offset, Partial: x.Partial}, need, cm)

	case *plan.Window:
		inW := len(x.Input.Schema())
		childNeed := make([]bool, inW)
		for i := 0; i < inW && i < len(need); i++ {
			childNeed[i] = need[i]
		}
		for _, c := range x.PartitionBy {
			childNeed[c] = true
		}
		for _, k := range x.OrderBy {
			childNeed[k.Col] = true
		}
		for _, f := range x.Funcs {
			if f.Arg != nil {
				markExprCols(f.Arg, childNeed)
			}
		}
		child, cm := o.prune(x.Input, childNeed)
		part := make([]int, len(x.PartitionBy))
		for i, c := range x.PartitionBy {
			part[i] = cm[c]
		}
		order := make([]plan.SortKey, len(x.OrderBy))
		for i, k := range x.OrderBy {
			order[i] = plan.SortKey{Col: cm[k.Col], Descending: k.Descending}
		}
		funcs := make([]plan.WindowExpr, len(x.Funcs))
		for i, f := range x.Funcs {
			funcs[i] = f
			if f.Arg != nil {
				funcs[i].Arg = remapExpr(f.Arg, cm)
			}
		}
		newInW := len(child.Schema())
		out := append(plan.Schema{}, child.Schema()...)
		mapping := make([]int, len(x.Out))
		for i := 0; i < inW; i++ {
			mapping[i] = cm[i]
		}
		for i := range funcs {
			out = append(out, x.Out[inW+i])
			mapping[inW+i] = newInW + i
		}
		return &plan.Window{Input: child, PartitionBy: part, OrderBy: order, Funcs: funcs, Out: out}, mapping

	case *plan.Union:
		inputs := make([]plan.Node, len(x.Inputs))
		var mapping []int
		for i, in := range x.Inputs {
			ni, m := o.prune(in, need)
			inputs[i] = ni
			mapping = m
		}
		return &plan.Union{Inputs: inputs}, mapping

	case *plan.Values:
		mapping := make([]int, len(x.Out))
		var keep []int
		var out plan.Schema
		for i := range x.Out {
			if need[i] {
				mapping[i] = len(keep)
				keep = append(keep, i)
				out = append(out, x.Out[i])
			} else {
				mapping[i] = -1
			}
		}
		if len(keep) == len(x.Out) {
			return x, mapping
		}
		rows := make([][]types.Value, len(x.Rows))
		for r, row := range x.Rows {
			nr := make([]types.Value, len(keep))
			for j, c := range keep {
				nr[j] = row[c]
			}
			rows[r] = nr
		}
		return &plan.Values{Rows: rows, Out: out}, mapping

	case *plan.EnforceSingleRow:
		child, cm := o.prune(x.Input, need)
		return &plan.EnforceSingleRow{Input: child}, cm

	case *plan.TableWrite:
		child, cm := o.prune(x.Input, allOf(len(x.Input.Schema())))
		_ = cm
		cp := *x
		cp.Input = child
		return &cp, identity(len(x.Out))

	default:
		// Unknown node: require everything below, change nothing.
		return n, identity(len(n.Schema()))
	}
}

// narrow wraps a schema-passthrough node with a projection when the parent
// needs fewer columns than the (already pruned) child provides.
func (o *Optimizer) narrow(n plan.Node, need []bool, childMapping []int) (plan.Node, []int) {
	sch := n.Schema()
	// Determine which pruned-child columns the parent actually needs.
	neededNew := make([]bool, len(sch))
	mapping := make([]int, len(need))
	for i := range mapping {
		mapping[i] = -1
	}
	for oldIdx, nd := range need {
		if nd && oldIdx < len(childMapping) && childMapping[oldIdx] >= 0 {
			neededNew[childMapping[oldIdx]] = true
		}
	}
	allNeeded := true
	for _, b := range neededNew {
		if !b {
			allNeeded = false
			break
		}
	}
	if allNeeded {
		for oldIdx := range need {
			if oldIdx < len(childMapping) {
				mapping[oldIdx] = childMapping[oldIdx]
			}
		}
		return n, mapping
	}
	// Project away the extra columns (e.g. a filter-only column).
	var exprs []expr.Expr
	var out plan.Schema
	newIdx := make([]int, len(sch))
	for i, f := range sch {
		if neededNew[i] {
			newIdx[i] = len(exprs)
			exprs = append(exprs, &expr.ColumnRef{Index: i, T: f.T, Name: f.Name})
			out = append(out, f)
		} else {
			newIdx[i] = -1
		}
	}
	for oldIdx, nd := range need {
		if nd && oldIdx < len(childMapping) && childMapping[oldIdx] >= 0 {
			mapping[oldIdx] = newIdx[childMapping[oldIdx]]
		}
	}
	return &plan.Project{Input: n, Exprs: exprs, Out: out}, mapping
}
