package analyzer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// aggFuncs maps SQL aggregate names to plan aggregate functions.
var aggFuncs = map[string]plan.AggFunc{
	"count": plan.AggCount,
	"sum":   plan.AggSum,
	"avg":   plan.AggAvg,
	"min":   plan.AggMin,
	"max":   plan.AggMax,
}

var windowFuncs = map[string]plan.WindowFunc{
	"row_number": plan.WinRowNumber,
	"rank":       plan.WinRank,
	"dense_rank": plan.WinDenseRank,
	"sum":        plan.WinSum,
	"count":      plan.WinCount,
	"avg":        plan.WinAvg,
	"min":        plan.WinMin,
	"max":        plan.WinMax,
}

// aggOut is the result type of aggregate f over an argument of type arg.
func aggOut(f plan.AggFunc, arg types.Type) (types.Type, error) {
	switch f {
	case plan.AggCount:
		return types.Bigint, nil
	case plan.AggAvg:
		return types.Double, nil
	case plan.AggSum:
		if arg != types.Double && arg != types.Bigint {
			return types.Unknown, fmt.Errorf("sum over %s is not supported", arg)
		}
	}
	return arg, nil
}

func isAggCall(e sqlparser.Expr) (*sqlparser.FuncCall, bool) {
	fc, ok := e.(*sqlparser.FuncCall)
	if !ok || fc.Over != nil {
		return nil, false
	}
	_, isAgg := aggFuncs[fc.Name]
	return fc, isAgg && (len(fc.Args) <= 1)
}

// findAggCalls collects aggregate calls from an AST expression without
// descending into subqueries. A call is its sqlparser.Key: calls with one key
// are one aggregate, here and in the mappings.
func findAggCalls(e sqlparser.Expr, out *[]*sqlparser.FuncCall, seen map[string]bool) {
	if e == nil {
		return
	}
	if fc, ok := isAggCall(e); ok {
		key := sqlparser.Key(fc)
		if !seen[key] {
			seen[key] = true
			*out = append(*out, fc)
		}
		return // aggregates do not nest
	}
	for _, child := range astChildren(e) {
		findAggCalls(child, out, seen)
	}
}

func findWindowCalls(e sqlparser.Expr, out *[]*sqlparser.FuncCall, seen map[string]bool) {
	if e == nil {
		return
	}
	if fc, ok := e.(*sqlparser.FuncCall); ok && fc.Over != nil {
		key := sqlparser.Key(fc)
		if !seen[key] {
			seen[key] = true
			*out = append(*out, fc)
		}
		return
	}
	for _, child := range astChildren(e) {
		findWindowCalls(child, out, seen)
	}
}

// astChildren enumerates sub-expressions of an AST node (excluding subqueries).
func astChildren(e sqlparser.Expr) []sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		return []sqlparser.Expr{x.Left, x.Right}
	case *sqlparser.UnaryExpr:
		return []sqlparser.Expr{x.Expr}
	case *sqlparser.FuncCall:
		return x.Args
	case *sqlparser.CaseExpr:
		var out []sqlparser.Expr
		if x.Operand != nil {
			out = append(out, x.Operand)
		}
		for _, w := range x.Whens {
			out = append(out, w.Cond, w.Then)
		}
		if x.Else != nil {
			out = append(out, x.Else)
		}
		return out
	case *sqlparser.CastExpr:
		return []sqlparser.Expr{x.Expr}
	case *sqlparser.IsNullExpr:
		return []sqlparser.Expr{x.Expr}
	case *sqlparser.InExpr:
		return append([]sqlparser.Expr{x.Expr}, x.List...)
	case *sqlparser.BetweenExpr:
		return []sqlparser.Expr{x.Expr, x.Lo, x.Hi}
	case *sqlparser.LikeExpr:
		return []sqlparser.Expr{x.Expr, x.Pattern}
	case *sqlparser.LambdaExpr:
		return []sqlparser.Expr{x.Body}
	case *sqlparser.ArrayLit:
		return x.Elems
	case *sqlparser.SubscriptExpr:
		return []sqlparser.Expr{x.Base, x.Index}
	default:
		return nil
	}
}

// planSelect plans one SELECT block. orderBy (may be nil) is planned here so
// it can reference non-projected input columns via hidden sort columns.
func (c *ctx) planSelect(s *sqlparser.Select) (*relationPlan, error) {
	return c.planSelectOrdered(s, nil)
}

func (c *ctx) planSelectOrdered(s *sqlparser.Select, orderBy []*sqlparser.SortItem) (*relationPlan, error) {
	// FROM.
	var rel *relationPlan
	if s.From != nil {
		rp, err := c.planRelation(s.From)
		if err != nil {
			return nil, err
		}
		rel = rp
	} else {
		// FROM-less SELECT: a single empty row.
		rel = &relationPlan{
			node:  &plan.Values{Rows: [][]types.Value{{}}, Out: plan.Schema{}},
			scope: &scope{},
		}
	}

	// WHERE (with subquery desugaring).
	if s.Where != nil {
		rp, pred, err := c.planWhere(rel, s.Where)
		if err != nil {
			return nil, err
		}
		rel = rp
		if pred != nil {
			if pred.Type() != types.Boolean {
				return nil, fmt.Errorf("WHERE clause must be boolean, got %s", pred.Type())
			}
			rel = &relationPlan{node: &plan.Filter{Input: rel.node, Predicate: pred}, scope: rel.scope}
		}
	}

	// Expand wildcards into concrete select items.
	items, err := c.expandWildcards(s, rel.scope)
	if err != nil {
		return nil, err
	}

	// Aggregation analysis.
	var aggCalls []*sqlparser.FuncCall
	seen := map[string]bool{}
	for _, item := range items {
		findAggCalls(item.Expr, &aggCalls, seen)
	}
	findAggCalls(s.Having, &aggCalls, seen)
	for _, ob := range orderBy {
		findAggCalls(ob.Expr, &aggCalls, seen)
	}
	hasAgg := len(aggCalls) > 0 || len(s.GroupBy) > 0

	// mappings translate the sqlparser.Key of group keys and aggregates into
	// output columns of the aggregation.
	mappings := map[string]*expr.ColumnRef{}
	postScope := rel.scope

	if hasAgg {
		rp, sc, err := c.planAggregation(rel, s, items, aggCalls, mappings)
		if err != nil {
			return nil, err
		}
		rel, postScope = rp, sc
	}

	// HAVING.
	if s.Having != nil {
		if !hasAgg {
			return nil, fmt.Errorf("HAVING requires aggregation")
		}
		pred, err := c.analyzeMapped(s.Having, postScope, mappings)
		if err != nil {
			return nil, err
		}
		if pred.Type() != types.Boolean {
			return nil, fmt.Errorf("HAVING clause must be boolean, got %s", pred.Type())
		}
		rel = &relationPlan{node: &plan.Filter{Input: rel.node, Predicate: pred}, scope: postScope}
	}

	// Window functions.
	var winCalls []*sqlparser.FuncCall
	winSeen := map[string]bool{}
	for _, item := range items {
		findWindowCalls(item.Expr, &winCalls, winSeen)
	}
	for _, ob := range orderBy {
		findWindowCalls(ob.Expr, &winCalls, winSeen)
	}
	if len(winCalls) > 0 {
		rp, sc, err := c.planWindows(rel, postScope, winCalls, mappings)
		if err != nil {
			return nil, err
		}
		rel, postScope = rp, sc
	}

	// Projection of select items.
	projExprs := make([]expr.Expr, 0, len(items))
	outScope := &scope{}
	for i, item := range items {
		e, err := c.analyzeMapped(item.Expr, postScope, mappings)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if id, ok := item.Expr.(*sqlparser.Ident); ok {
				name = id.Parts[len(id.Parts)-1]
			} else {
				name = fmt.Sprintf("_col%d", i)
			}
		}
		projExprs = append(projExprs, e)
		outScope.fields = append(outScope.fields, scopeField{name: name, field: plan.Field{Name: name, T: e.Type()}})
	}

	// ORDER BY resolution (possibly adding hidden sort columns).
	type sortSpec struct {
		col  int
		desc bool
	}
	var sorts []sortSpec
	nVisible := len(projExprs)
	if len(orderBy) > 0 {
		for _, ob := range orderBy {
			idx := -1
			// Ordinal: ORDER BY 2.
			if num, ok := ob.Expr.(*sqlparser.NumberLit); ok && num.IsInteger {
				n, _ := strconv.Atoi(num.Text)
				if n < 1 || n > nVisible {
					return nil, fmt.Errorf("ORDER BY position %d is out of range", n)
				}
				idx = n - 1
			}
			// Alias of a select item.
			if idx < 0 {
				if id, ok := ob.Expr.(*sqlparser.Ident); ok && len(id.Parts) == 1 {
					for i, f := range outScope.fields {
						if strings.EqualFold(f.name, id.Parts[0]) {
							idx = i
							break
						}
					}
				}
			}
			// General expression over the post-agg scope.
			if idx < 0 {
				e, err := c.analyzeMapped(ob.Expr, postScope, mappings)
				if err != nil {
					return nil, fmt.Errorf("in ORDER BY: %w", err)
				}
				key := sortKey(e)
				for i, pe := range projExprs {
					if sortKey(pe) == key {
						idx = i
						break
					}
				}
				if idx < 0 {
					if s.Distinct {
						return nil, fmt.Errorf("for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
					}
					idx = len(projExprs)
					projExprs = append(projExprs, e)
					outScope.fields = append(outScope.fields, scopeField{name: fmt.Sprintf("_sort%d", idx), field: plan.Field{Name: fmt.Sprintf("_sort%d", idx), T: e.Type()}})
				}
			}
			sorts = append(sorts, sortSpec{col: idx, desc: ob.Descending})
		}
	}

	node := plan.Node(&plan.Project{Input: rel.node, Exprs: projExprs, Out: outScope.schema()})
	if s.Distinct {
		node = distinct(node)
	}
	if len(sorts) > 0 {
		keys := make([]plan.SortKey, len(sorts))
		for i, sp := range sorts {
			keys[i] = plan.SortKey{Col: sp.col, Descending: sp.desc}
		}
		node = &plan.Sort{Input: node, Keys: keys}
		if len(projExprs) > nVisible {
			// Drop hidden sort columns.
			visible := make([]expr.Expr, nVisible)
			sch := node.Schema()
			for i := 0; i < nVisible; i++ {
				visible[i] = &expr.ColumnRef{Index: i, T: sch[i].T, Name: sch[i].Name}
			}
			outScope.fields = outScope.fields[:nVisible]
			node = &plan.Project{Input: node, Exprs: visible, Out: outScope.schema()}
		}
	}
	outScope.fields = outScope.fields[:nVisible]
	return &relationPlan{node: node, scope: outScope}, nil
}

// sortKey is e's CanonicalKey without its literals' slots: ORDER BY age + 1
// is the select list's age + 1, though each 1 has a slot of its own.
func sortKey(e expr.Expr) string {
	return expr.CanonicalKey(expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(*expr.Const); ok && c.Slot != 0 {
			return expr.NewConst(c.Val)
		}
		return nil
	}))
}

func (c *ctx) expandWildcards(s *sqlparser.Select, sc *scope) ([]*sqlparser.SelectItem, error) {
	var out []*sqlparser.SelectItem
	for _, item := range s.Items {
		if !item.Wildcard {
			out = append(out, item)
			continue
		}
		matched := false
		for _, f := range sc.fields {
			if item.Qualifier != "" && !strings.EqualFold(f.qualifier, item.Qualifier) {
				continue
			}
			matched = true
			parts := []string{f.name}
			if f.qualifier != "" {
				parts = []string{f.qualifier, f.name}
			}
			out = append(out, &sqlparser.SelectItem{
				Expr:  &sqlparser.Ident{Parts: parts},
				Alias: f.name,
			})
		}
		if !matched {
			if item.Qualifier != "" {
				return nil, fmt.Errorf("relation %q not found for wildcard", item.Qualifier)
			}
			return nil, fmt.Errorf("SELECT * with no input columns")
		}
	}
	return out, nil
}

// planAggregation builds the Aggregation node and records mappings from the
// textual form of group keys and aggregate calls to output columns.
func (c *ctx) planAggregation(rel *relationPlan, s *sqlparser.Select, items []*sqlparser.SelectItem, aggCalls []*sqlparser.FuncCall, mappings map[string]*expr.ColumnRef) (*relationPlan, *scope, error) {
	var groupExprs []expr.Expr
	var groupAST []sqlparser.Expr
	for _, g := range s.GroupBy {
		// Ordinal GROUP BY: GROUP BY 1 refers to the first select item.
		if num, ok := g.(*sqlparser.NumberLit); ok && num.IsInteger {
			n, _ := strconv.Atoi(num.Text)
			if n < 1 || n > len(items) {
				return nil, nil, fmt.Errorf("GROUP BY position %d is out of range", n)
			}
			g = items[n-1].Expr
		} else if id, ok := g.(*sqlparser.Ident); ok && len(id.Parts) == 1 {
			// Alias reference: GROUP BY alias, when not an input column.
			if _, _, err := rel.scope.resolve(id.Parts); err != nil {
				for _, item := range items {
					if strings.EqualFold(item.Alias, id.Parts[0]) {
						g = item.Expr
						break
					}
				}
			}
		}
		e, err := c.analyzeExpr(g, rel.scope)
		if err != nil {
			return nil, nil, fmt.Errorf("in GROUP BY: %w", err)
		}
		groupExprs = append(groupExprs, e)
		groupAST = append(groupAST, g)
	}

	aggs := make([]plan.Aggregate, 0, len(aggCalls))
	for _, fc := range aggCalls {
		agg := plan.Aggregate{Func: aggFuncs[fc.Name], Distinct: fc.Distinct}
		if fc.Star || len(fc.Args) == 0 {
			if fc.Name != "count" {
				return nil, nil, fmt.Errorf("%s requires an argument", fc.Name)
			}
			agg.Func = plan.AggCountAll
			agg.Out = types.Bigint
		} else {
			arg, err := c.analyzeExpr(fc.Args[0], rel.scope)
			if err != nil {
				return nil, nil, err
			}
			agg.Arg = arg
			if agg.Out, err = aggOut(agg.Func, arg.Type()); err != nil {
				return nil, nil, err
			}
		}
		aggs = append(aggs, agg)
	}

	out := make(plan.Schema, 0, len(groupExprs)+len(aggs))
	sc := &scope{grouped: rel.scope}
	for i, g := range groupExprs {
		name := fmt.Sprintf("_group%d", i)
		if id, ok := groupAST[i].(*sqlparser.Ident); ok {
			name = id.Parts[len(id.Parts)-1]
		}
		f := plan.Field{Name: name, T: g.Type()}
		out = append(out, f)
		sc.fields = append(sc.fields, scopeField{name: name, field: f})
		mappings[sqlparser.Key(groupAST[i])] = &expr.ColumnRef{Index: i, T: g.Type(), Name: name}
	}
	for i, a := range aggs {
		name := fmt.Sprintf("_agg%d", i)
		f := plan.Field{Name: name, T: a.Out}
		out = append(out, f)
		sc.fields = append(sc.fields, scopeField{name: name, field: f})
		mappings[sqlparser.Key(aggCalls[i])] = &expr.ColumnRef{Index: len(groupExprs) + i, T: a.Out, Name: name}
	}
	node := &plan.Aggregation{
		Input:      rel.node,
		GroupBy:    groupExprs,
		Aggregates: aggs,
		Step:       plan.AggSingle,
		Out:        out,
	}
	return &relationPlan{node: node, scope: sc}, sc, nil
}

// planWindows appends window function outputs as extra columns.
func (c *ctx) planWindows(rel *relationPlan, sc *scope, winCalls []*sqlparser.FuncCall, mappings map[string]*expr.ColumnRef) (*relationPlan, *scope, error) {
	// Group calls by window spec.
	type group struct {
		spec  *sqlparser.WindowSpec
		calls []*sqlparser.FuncCall
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, fc := range winCalls {
		k := fc.Over.Key()
		g, ok := byKey[k]
		if !ok {
			g = &group{spec: fc.Over}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.calls = append(g.calls, fc)
	}
	node := rel.node
	outScope := &scope{fields: append([]scopeField{}, sc.fields...), grouped: sc.grouped}
	for _, g := range groups {
		var partCols []int
		for _, pe := range g.spec.PartitionBy {
			e, err := c.analyzeMapped(pe, sc, mappings)
			if err != nil {
				return nil, nil, err
			}
			cr, ok := e.(*expr.ColumnRef)
			if !ok {
				return nil, nil, fmt.Errorf("window PARTITION BY must reference columns")
			}
			partCols = append(partCols, cr.Index)
		}
		var orderKeys []plan.SortKey
		for _, oe := range g.spec.OrderBy {
			e, err := c.analyzeMapped(oe.Expr, sc, mappings)
			if err != nil {
				return nil, nil, err
			}
			cr, ok := e.(*expr.ColumnRef)
			if !ok {
				return nil, nil, fmt.Errorf("window ORDER BY must reference columns")
			}
			orderKeys = append(orderKeys, plan.SortKey{Col: cr.Index, Descending: oe.Descending})
		}
		var funcs []plan.WindowExpr
		baseWidth := len(node.Schema())
		for i, fc := range g.calls {
			wf, ok := windowFuncs[fc.Name]
			if !ok {
				return nil, nil, fmt.Errorf("unsupported window function %q", fc.Name)
			}
			we := plan.WindowExpr{Func: wf}
			switch wf {
			case plan.WinRowNumber, plan.WinRank, plan.WinDenseRank:
				we.Out = types.Bigint
			default:
				if len(fc.Args) != 1 && !fc.Star {
					return nil, nil, fmt.Errorf("window %s requires one argument", fc.Name)
				}
				if fc.Star {
					if wf != plan.WinCount {
						return nil, nil, fmt.Errorf("window %s requires an argument", fc.Name)
					}
					we.Out = types.Bigint
				} else {
					arg, err := c.analyzeMapped(fc.Args[0], sc, mappings)
					if err != nil {
						return nil, nil, err
					}
					we.Arg = arg
					// A window aggregate runs on the aggregation's state.
					if we.Out, err = aggOut(plan.AggFunc(wf), arg.Type()); err != nil {
						return nil, nil, err
					}
				}
			}
			funcs = append(funcs, we)
			name := fmt.Sprintf("_win%d", baseWidth+i)
			mappings[sqlparser.Key(fc)] = &expr.ColumnRef{Index: baseWidth + i, T: we.Out, Name: name}
			outScope.fields = append(outScope.fields, scopeField{name: name, field: plan.Field{Name: name, T: we.Out}})
		}
		win := &plan.Window{
			Input:       node,
			PartitionBy: partCols,
			OrderBy:     orderKeys,
			Funcs:       funcs,
		}
		winOut := append(plan.Schema{}, node.Schema()...)
		for i, f := range funcs {
			winOut = append(winOut, plan.Field{Name: fmt.Sprintf("_win%d", baseWidth+i), T: f.Out})
		}
		win.Out = winOut
		node = win
	}
	return &relationPlan{node: node, scope: outScope}, outScope, nil
}

// planOrderBy handles ORDER BY for non-Select bodies (set operations):
// expressions must resolve against the output scope.
func (c *ctx) planOrderBy(rp *relationPlan, sc *scope, items []*sqlparser.SortItem) (*relationPlan, error) {
	keys := make([]plan.SortKey, 0, len(items))
	for _, ob := range items {
		idx := -1
		if num, ok := ob.Expr.(*sqlparser.NumberLit); ok && num.IsInteger {
			n, _ := strconv.Atoi(num.Text)
			if n >= 1 && n <= len(sc.fields) {
				idx = n - 1
			}
		}
		if idx < 0 {
			if id, ok := ob.Expr.(*sqlparser.Ident); ok {
				for i, f := range sc.fields {
					if strings.EqualFold(f.name, id.Parts[len(id.Parts)-1]) {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("ORDER BY expression %s must appear in the select list", ob.Expr.String())
		}
		keys = append(keys, plan.SortKey{Col: idx, Descending: ob.Descending})
	}
	return &relationPlan{node: &plan.Sort{Input: rp.node, Keys: keys}, scope: rp.scope}, nil
}
