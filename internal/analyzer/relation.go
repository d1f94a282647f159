package analyzer

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

var rowCountType = types.Bigint

// planQuery plans a query with its WITH clause; outerCTEs are visible CTEs
// from enclosing queries.
func (c *ctx) planQuery(q *sqlparser.Query, outer *scope) (*relationPlan, error) {
	saved := c.ctes
	if len(q.With) > 0 {
		c.ctes = make(map[string]*sqlparser.Query, len(saved)+len(q.With))
		for k, v := range saved {
			c.ctes[k] = v
		}
		for _, cte := range q.With {
			c.ctes[strings.ToLower(cte.Name)] = cte.Query
		}
		defer func() { c.ctes = saved }()
	}

	var rp *relationPlan
	var err error
	if sel, ok := q.Body.(*sqlparser.Select); ok {
		// ORDER BY is planned inside the select so it can sort on hidden
		// (non-projected) input columns.
		rp, err = c.planSelectOrdered(sel, q.OrderBy)
		if err != nil {
			return nil, err
		}
	} else {
		var orderScope *scope
		rp, orderScope, err = c.planQueryBody(q.Body)
		if err != nil {
			return nil, err
		}
		if len(q.OrderBy) > 0 {
			rp, err = c.planOrderBy(rp, orderScope, q.OrderBy)
			if err != nil {
				return nil, err
			}
		}
	}
	// TopN fusion for ORDER BY + LIMIT happens in the optimizer.
	if q.Limit >= 0 || q.Offset > 0 {
		n := q.Limit
		if n < 0 {
			n = int64(1) << 60
		}
		rp = &relationPlan{
			node:  &plan.Limit{Input: rp.node, N: n, Offset: q.Offset},
			scope: rp.scope,
		}
	}
	return rp, nil
}

// planQueryBody returns the relation plan and the scope usable by ORDER BY
// (which can see both output aliases and, for simple selects, input columns).
func (c *ctx) planQueryBody(body sqlparser.QueryBody) (*relationPlan, *scope, error) {
	switch b := body.(type) {
	case *sqlparser.Select:
		rp, err := c.planSelect(b)
		if err != nil {
			return nil, nil, err
		}
		return rp, rp.scope, nil
	case *sqlparser.SetOp:
		left, _, err := c.planQueryBody(b.Left)
		if err != nil {
			return nil, nil, err
		}
		right, _, err := c.planQueryBody(b.Right)
		if err != nil {
			return nil, nil, err
		}
		if b.Op != "UNION" {
			return nil, nil, fmt.Errorf("%s is not supported; use UNION", b.Op)
		}
		ls, rs := left.scope.schema(), right.scope.schema()
		if len(ls) != len(rs) {
			return nil, nil, fmt.Errorf("UNION inputs have %d and %d columns", len(ls), len(rs))
		}
		// Coerce both sides to common types where needed.
		leftNode, rightNode := left.node, right.node
		needCast := false
		outFields := make(plan.Schema, len(ls))
		for i := range ls {
			t := types.CommonType(ls[i].T, rs[i].T)
			if t == types.Unknown {
				return nil, nil, fmt.Errorf("UNION column %d has incompatible types %s and %s", i+1, ls[i].T, rs[i].T)
			}
			outFields[i] = plan.Field{Name: ls[i].Name, T: t}
			if t != ls[i].T || t != rs[i].T {
				needCast = true
			}
		}
		if needCast {
			leftNode = castTo(leftNode, outFields)
			rightNode = castTo(rightNode, outFields)
		}
		node := plan.Node(&plan.Union{Inputs: []plan.Node{leftNode, rightNode}})
		if !b.All {
			node = distinct(node)
		}
		sc := &scope{}
		for i, f := range outFields {
			sc.fields = append(sc.fields, scopeField{name: left.scope.fields[i].name, field: f})
		}
		return &relationPlan{node: node, scope: sc}, sc, nil
	default:
		return nil, nil, fmt.Errorf("unsupported query body %T", body)
	}
}

// distinct removes n's duplicate rows: an aggregation grouping by every
// column with no aggregates, as SELECT DISTINCT and UNION plan.
func distinct(n plan.Node) plan.Node {
	sch := n.Schema()
	keys := make([]expr.Expr, len(sch))
	for i, f := range sch {
		keys[i] = &expr.ColumnRef{Index: i, T: f.T, Name: f.Name}
	}
	return &plan.Aggregation{Input: n, GroupBy: keys, Step: plan.AggSingle, Out: slices.Clone(sch)}
}

func castTo(n plan.Node, target plan.Schema) plan.Node {
	in := n.Schema()
	exprs := make([]expr.Expr, len(in))
	for i, f := range in {
		ref := &expr.ColumnRef{Index: i, T: f.T, Name: f.Name}
		if f.T == target[i].T {
			exprs[i] = ref
		} else {
			exprs[i] = &expr.Cast{E: ref, T: target[i].T}
		}
	}
	return &plan.Project{Input: n, Exprs: exprs, Out: target}
}

// planRelation plans a FROM-clause relation.
func (c *ctx) planRelation(rel sqlparser.Relation) (*relationPlan, error) {
	switch r := rel.(type) {
	case *sqlparser.TableRef:
		return c.planTableRef(r)
	case *sqlparser.SubqueryRel:
		rp, err := c.planQuery(r.Query, nil)
		if err != nil {
			return nil, err
		}
		if len(r.ColAliases) > 0 && len(r.ColAliases) != len(rp.scope.fields) {
			return nil, fmt.Errorf("relation %q has %d columns but %d aliases", r.Alias, len(rp.scope.fields), len(r.ColAliases))
		}
		sc := &scope{}
		for i, f := range rp.scope.fields {
			name := f.name
			if len(r.ColAliases) > 0 {
				name = r.ColAliases[i]
			}
			sc.fields = append(sc.fields, scopeField{qualifier: r.Alias, name: name, field: plan.Field{Name: name, T: f.field.T}})
		}
		return &relationPlan{node: rp.node, scope: sc}, nil
	case *sqlparser.ValuesRel:
		return c.planValues(r)
	case *sqlparser.Join:
		return c.planJoin(r)
	default:
		return nil, fmt.Errorf("unsupported relation %T", rel)
	}
}

func (c *ctx) planTableRef(r *sqlparser.TableRef) (*relationPlan, error) {
	// CTE reference?
	if len(r.Name.Parts) == 1 {
		if cte, ok := c.ctes[strings.ToLower(r.Name.Parts[0])]; ok {
			rp, err := c.planQuery(cte, nil)
			if err != nil {
				return nil, fmt.Errorf("in WITH %s: %w", r.Name.Parts[0], err)
			}
			alias := r.Alias
			if alias == "" {
				alias = r.Name.Parts[0]
			}
			sc := &scope{}
			for _, f := range rp.scope.fields {
				sc.fields = append(sc.fields, scopeField{qualifier: alias, name: f.name, field: f.field})
			}
			return &relationPlan{node: rp.node, scope: sc}, nil
		}
	}
	catalog, meta, err := c.a.Catalogs.Resolve(r.Name, c.a.DefaultCatalog)
	if err != nil {
		return nil, err
	}
	alias := r.Alias
	if alias == "" {
		alias = r.Name.Parts[len(r.Name.Parts)-1]
	}
	out := make(plan.Schema, len(meta.Columns))
	cols := make([]string, len(meta.Columns))
	sc := &scope{}
	for i, col := range meta.Columns {
		out[i] = plan.Field{Name: col.Name, T: col.T}
		cols[i] = col.Name
		sc.fields = append(sc.fields, scopeField{qualifier: alias, name: col.Name, field: out[i]})
	}
	scan := &plan.Scan{
		Handle:  plan.TableHandle{Catalog: catalog, Table: meta.Name},
		Columns: cols,
		Out:     out,
	}
	return &relationPlan{node: scan, scope: sc}, nil
}

func (c *ctx) planValues(r *sqlparser.ValuesRel) (*relationPlan, error) {
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("VALUES requires at least one row")
	}
	ncols := len(r.Rows[0])
	rows := make([][]types.Value, len(r.Rows))
	colTypes := make([]types.Type, ncols)
	it := &expr.Interpreter{}
	emptyScope := &scope{}
	for i, astRow := range r.Rows {
		if len(astRow) != ncols {
			return nil, fmt.Errorf("VALUES rows have differing column counts")
		}
		row := make([]types.Value, ncols)
		for j, e := range astRow {
			ex, err := c.analyzeExpr(e, emptyScope)
			if err != nil {
				return nil, err
			}
			v, err := it.Eval(ex, expr.ValuesRow(nil))
			if err != nil {
				return nil, fmt.Errorf("VALUES expressions must be constant: %w", err)
			}
			row[j] = v
			t := types.CommonType(colTypes[j], v.T)
			if t == types.Unknown && colTypes[j] != types.Unknown && v.T != types.Unknown {
				return nil, fmt.Errorf("VALUES column %d mixes %s and %s", j+1, colTypes[j], v.T)
			}
			if t != types.Unknown {
				colTypes[j] = t
			}
		}
		rows[i] = row
	}
	// Coerce all rows to the common column types.
	for _, row := range rows {
		for j := range row {
			if colTypes[j] != types.Unknown {
				v, err := row[j].Coerce(colTypes[j])
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
		}
	}
	if len(r.ColAliases) > 0 && len(r.ColAliases) != ncols {
		return nil, fmt.Errorf("VALUES has %d columns but %d aliases", ncols, len(r.ColAliases))
	}
	out := make(plan.Schema, ncols)
	sc := &scope{}
	for j := 0; j < ncols; j++ {
		name := fmt.Sprintf("_col%d", j)
		if len(r.ColAliases) > 0 {
			name = r.ColAliases[j]
		}
		out[j] = plan.Field{Name: name, T: colTypes[j]}
		sc.fields = append(sc.fields, scopeField{qualifier: r.Alias, name: name, field: out[j]})
	}
	return &relationPlan{node: &plan.Values{Rows: rows, Out: out}, scope: sc}, nil
}

func (c *ctx) planJoin(r *sqlparser.Join) (*relationPlan, error) {
	left, err := c.planRelation(r.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.planRelation(r.Right)
	if err != nil {
		return nil, err
	}
	combined := &scope{}
	combined.fields = append(combined.fields, left.scope.fields...)
	combined.fields = append(combined.fields, right.scope.fields...)

	var jt plan.JoinType
	switch r.Type {
	case "INNER":
		jt = plan.InnerJoin
	case "LEFT":
		jt = plan.LeftJoin
	case "RIGHT":
		jt = plan.RightJoin
	case "FULL":
		jt = plan.FullJoin
	case "CROSS":
		jt = plan.CrossJoin
	default:
		return nil, fmt.Errorf("unsupported join type %q", r.Type)
	}

	join := &plan.Join{
		Type:  jt,
		Left:  left.node,
		Right: right.node,
		Out:   combined.schema(),
	}

	var cond expr.Expr
	if len(r.Using) > 0 {
		eqs := make([]expr.Expr, len(r.Using))
		for i, col := range r.Using {
			li, lf, err := left.scope.resolve([]string{col})
			if err != nil {
				return nil, fmt.Errorf("USING column: %w", err)
			}
			ri, rf, err := right.scope.resolve([]string{col})
			if err != nil {
				return nil, fmt.Errorf("USING column: %w", err)
			}
			eqs[i] = &expr.Compare{
				Op: expr.CmpEq,
				L:  &expr.ColumnRef{Index: li, T: lf.T, Name: lf.Name},
				R:  &expr.ColumnRef{Index: len(left.scope.fields) + ri, T: rf.T, Name: rf.Name},
			}
		}
		cond = expr.AndAll(eqs)
	} else if r.On != nil {
		cond, err = c.analyzeExpr(r.On, combined)
		if err != nil {
			return nil, err
		}
		if cond.Type() != types.Boolean {
			return nil, fmt.Errorf("JOIN condition must be boolean, got %s", cond.Type())
		}
	}
	if jt != plan.CrossJoin && cond == nil {
		return nil, fmt.Errorf("%s JOIN requires a condition", r.Type)
	}
	if cond == nil {
		return &relationPlan{node: join, scope: combined}, nil
	}
	join.Equi, join.Residual = extractEquiClauses(cond, len(left.scope.fields))
	return &relationPlan{node: castKeys(join, len(left.scope.fields)), scope: combined}, nil
}

// castKeys gives a join the keys its residual holds behind a cast: an
// equality of the two sides whose types differ (BIGINT = DOUBLE) compares
// CAST(col AS DOUBLE) with the other side's column, which extractEquiClauses
// leaves in the residual, and a join without a key meets every probe row with
// every build row. Each cast operand becomes a column appended to its side's
// input by a projection below the join, and the join keys on it. The residual
// keeps the equality, so the rows that join are exactly those it admits: the
// join table matches a NaN key with a NaN key, the comparison does not. A
// projection above the join drops the appended columns; j is returned as it
// is when its residual holds no such equality.
func castKeys(j *plan.Join, leftWidth int) plan.Node {
	// side is 0 for an operand over left columns only, 1 for right only, -1
	// otherwise.
	side := func(e expr.Expr) int {
		cols := expr.Columns(e)
		switch {
		case len(cols) == 0:
			return -1
		case cols[len(cols)-1] < leftWidth:
			return 0
		case cols[0] >= leftWidth:
			return 1
		}
		return -1
	}
	// keyable: a column, or a BIGINT column cast to DOUBLE. That cast cannot
	// fail, so evaluating it below the join, on rows that meet no partner, is
	// safe; a cast that can (a VARCHAR's, a DOUBLE's to BIGINT) stays in the
	// residual, which only candidate pairs reach.
	keyable := func(e expr.Expr) bool {
		switch x := e.(type) {
		case *expr.ColumnRef:
			return true
		case *expr.Cast:
			_, ok := x.E.(*expr.ColumnRef)
			return ok && x.E.Type() == types.Bigint && x.T == types.Double
		}
		return false
	}
	var extra [2][]expr.Expr // cast operands appended to the left and right inputs
	var keys [][2]expr.Expr  // (left operand, right operand) of each new key
	if j.Residual != nil {
		for _, cj := range expr.Conjuncts(j.Residual) {
			cmp, ok := cj.(*expr.Compare)
			if !ok || cmp.Op != expr.CmpEq || !keyable(cmp.L) || !keyable(cmp.R) || cmp.L.Type() != cmp.R.Type() {
				continue
			}
			switch t := cmp.L.Type(); t {
			case types.Bigint, types.Double, types.Date:
			default:
				continue
			}
			l, r := cmp.L, cmp.R
			if side(l) == 1 && side(r) == 0 {
				l, r = r, l
			}
			if side(l) != 0 || side(r) != 1 {
				continue
			}
			keys = append(keys, [2]expr.Expr{l, r})
			for s, e := range []expr.Expr{l, r} {
				if _, cast := e.(*expr.Cast); cast {
					extra[s] = append(extra[s], e)
				}
			}
		}
	}
	if len(extra[0])+len(extra[1]) == 0 {
		return j
	}
	out := j.Out
	rightWidth := len(out) - leftWidth
	// The appended left columns shift the right side's by nl.
	nl := len(extra[0])
	shift := func(e expr.Expr) expr.Expr {
		return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
			if c, ok := x.(*expr.ColumnRef); ok && c.Index >= leftWidth {
				return &expr.ColumnRef{Index: c.Index + nl, T: c.T, Name: c.Name}
			}
			return nil
		})
	}
	// widen appends side s's cast operands to its input; base rebases an
	// operand's columns onto that input.
	widen := func(n plan.Node, s, base int) plan.Node {
		if len(extra[s]) == 0 {
			return n
		}
		sch := n.Schema()
		exprs := make([]expr.Expr, 0, len(sch)+len(extra[s]))
		schema := slices.Clone(sch)
		for i, f := range sch {
			exprs = append(exprs, &expr.ColumnRef{Index: i, T: f.T, Name: f.Name})
		}
		for i, e := range extra[s] {
			exprs = append(exprs, expr.Rewrite(e, func(x expr.Expr) expr.Expr {
				if c, ok := x.(*expr.ColumnRef); ok {
					return &expr.ColumnRef{Index: c.Index - base, T: c.T, Name: c.Name}
				}
				return nil
			}))
			schema = append(schema, plan.Field{Name: fmt.Sprintf("$key%d", i), T: e.Type()})
		}
		return &plan.Project{Input: n, Exprs: exprs, Out: schema}
	}
	// key is where an operand of side s lands among its input's columns.
	key := func(e expr.Expr, s, base, width int) int {
		if c, ok := e.(*expr.ColumnRef); ok {
			return c.Index - base
		}
		return width + slices.Index(extra[s], e)
	}
	keyed := &plan.Join{Type: j.Type, Left: widen(j.Left, 0, 0), Right: widen(j.Right, 1, leftWidth),
		Equi: slices.Clone(j.Equi), Residual: shift(j.Residual), NullAware: j.NullAware}
	// The clauses already there stay: each side's columns keep their places.
	for _, k := range keys {
		keyed.Equi = append(keyed.Equi, plan.EquiClause{Left: key(k[0], 0, 0, leftWidth), Right: key(k[1], 1, leftWidth, rightWidth)})
	}
	keyed.Out = append(slices.Clone(keyed.Left.Schema()), keyed.Right.Schema()...)
	exprs := make([]expr.Expr, len(out))
	for i, f := range out {
		at := i
		if i >= leftWidth {
			at += nl
		}
		exprs[i] = &expr.ColumnRef{Index: at, T: f.T, Name: f.Name}
	}
	return &plan.Project{Input: keyed, Exprs: exprs, Out: out}
}

// extractEquiClauses splits a join condition into equi-join clauses
// (leftCol = rightCol) and a residual expression.
func extractEquiClauses(cond expr.Expr, leftWidth int) ([]plan.EquiClause, expr.Expr) {
	var equi []plan.EquiClause
	var residual []expr.Expr
	for _, cj := range expr.Conjuncts(cond) {
		if cmp, ok := cj.(*expr.Compare); ok && cmp.Op == expr.CmpEq {
			l, lok := cmp.L.(*expr.ColumnRef)
			r, rok := cmp.R.(*expr.ColumnRef)
			if lok && rok {
				switch {
				case l.Index < leftWidth && r.Index >= leftWidth:
					equi = append(equi, plan.EquiClause{Left: l.Index, Right: r.Index - leftWidth})
					continue
				case r.Index < leftWidth && l.Index >= leftWidth:
					equi = append(equi, plan.EquiClause{Left: r.Index, Right: l.Index - leftWidth})
					continue
				}
			}
		}
		residual = append(residual, cj)
	}
	return equi, expr.AndAll(residual)
}
