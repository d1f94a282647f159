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

// exprCtx carries state while analyzing one scalar expression.
type exprCtx struct {
	c        *ctx
	scope    *scope
	mappings map[string]*expr.ColumnRef // sqlparser.Key → aggregation/window output
	lambdas  []lambdaBinding            // innermost last
}

type lambdaBinding struct {
	name  string
	depth int // LambdaRef index (stack offset)
	t     types.Type
}

// analyzeExpr analyzes an AST expression over a scope (no agg mappings).
func (c *ctx) analyzeExpr(e sqlparser.Expr, sc *scope) (expr.Expr, error) {
	ec := &exprCtx{c: c, scope: sc}
	return ec.analyze(e)
}

// analyzeMapped analyzes with aggregation/window output mappings active.
func (c *ctx) analyzeMapped(e sqlparser.Expr, sc *scope, mappings map[string]*expr.ColumnRef) (expr.Expr, error) {
	ec := &exprCtx{c: c, scope: sc, mappings: mappings}
	return ec.analyze(e)
}

func (ec *exprCtx) analyze(e sqlparser.Expr) (expr.Expr, error) {
	// Aggregate, GROUP BY and window mapping by sqlparser.Key takes precedence.
	if len(ec.mappings) > 0 {
		if ref, ok := ec.mappings[sqlparser.Key(e)]; ok {
			return ref, nil
		}
	}
	if fc, isAgg := isAggCall(e); isAgg && ec.scope.grouped != nil {
		return nil, fmt.Errorf("aggregate %s was not extracted (nested aggregates are not supported)", fc)
	}

	switch x := e.(type) {
	case *sqlparser.NumberLit:
		if x.IsInteger {
			n, err := strconv.ParseInt(x.Text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid integer literal %q", x.Text)
			}
			return expr.NewSlotConst(types.BigintValue(n), x.Slot), nil
		}
		f, err := strconv.ParseFloat(x.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid numeric literal %q", x.Text)
		}
		return expr.NewSlotConst(types.DoubleValue(f), x.Slot), nil

	case *sqlparser.StringLit:
		return expr.NewSlotConst(types.VarcharValue(x.Val), x.Slot), nil

	case *sqlparser.BoolLit:
		return expr.NewConst(types.BooleanValue(x.Val)), nil

	case *sqlparser.NullLit:
		return expr.NewConst(types.NullValue(types.Unknown)), nil

	case *sqlparser.DateLit:
		d, err := types.ParseDate(x.Text)
		if err != nil {
			return nil, err
		}
		return expr.NewSlotConst(types.DateValue(d), x.Slot), nil

	case *sqlparser.IntervalLit:
		// Intervals are represented as day counts; MONTH and YEAR use the
		// 30/365-day approximation (documented dialect deviation).
		days := x.Value
		switch x.Unit {
		case "MONTH":
			days *= 30
		case "YEAR":
			days *= 365
		}
		return expr.NewConst(types.BigintValue(days)), nil

	case *sqlparser.Ident:
		// Lambda parameter?
		if len(x.Parts) == 1 {
			for i := len(ec.lambdas) - 1; i >= 0; i-- {
				if strings.EqualFold(ec.lambdas[i].name, x.Parts[0]) {
					return &expr.LambdaRef{I: ec.lambdas[i].depth, T: ec.lambdas[i].t}, nil
				}
			}
		}
		idx, f, err := ec.scope.resolve(x.Parts)
		if err != nil {
			return nil, err
		}
		return &expr.ColumnRef{Index: idx, T: f.T, Name: f.Name}, nil

	case *sqlparser.BinaryExpr:
		return ec.analyzeBinary(x)

	case *sqlparser.UnaryExpr:
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			if inner.Type() != types.Boolean {
				return nil, fmt.Errorf("NOT requires a boolean, got %s", inner.Type())
			}
			return &expr.Not{E: inner}, nil
		case "-":
			// The folded constant drops the literal's slot: a plan that
			// keeps no trace of a slot is not a template.
			if c, ok := inner.(*expr.Const); ok && !c.Val.Null {
				switch c.Val.T {
				case types.Bigint:
					return expr.NewConst(types.BigintValue(-c.Val.I)), nil
				case types.Double:
					return expr.NewConst(types.DoubleValue(-c.Val.F)), nil
				}
			}
			if inner.Type() != types.Bigint && inner.Type() != types.Double {
				return nil, fmt.Errorf("negation requires a number, got %s", inner.Type())
			}
			return &expr.Neg{E: inner}, nil
		default:
			return nil, fmt.Errorf("unsupported unary operator %q", x.Op)
		}

	case *sqlparser.IsNullExpr:
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: x.Not}, nil

	case *sqlparser.InExpr:
		if x.Subquery != nil {
			return nil, fmt.Errorf("IN (subquery) is only supported in WHERE clauses")
		}
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		// The probe and every value compare in their common type, as = does:
		// a BIGINT probe against 2.5 compares as DOUBLE.
		list := make([]expr.Expr, len(x.List))
		t := inner.Type()
		for i, le := range x.List {
			v, err := ec.analyze(le)
			if err != nil {
				return nil, err
			}
			ct := types.CommonType(t, v.Type())
			if ct == types.Unknown && v.Type() != types.Unknown {
				return nil, fmt.Errorf("IN list value type %s does not match %s", v.Type(), t)
			}
			list[i], t = v, ct
		}
		if inner, err = coerceExpr(inner, t); err != nil {
			return nil, err
		}
		for i, v := range list {
			if list[i], err = coerceExpr(v, t); err != nil {
				return nil, err
			}
		}
		return &expr.In{E: inner, List: list, Negate: x.Not}, nil

	case *sqlparser.BetweenExpr:
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := ec.analyze(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := ec.analyze(x.Hi)
		if err != nil {
			return nil, err
		}
		t := types.CommonType(inner.Type(), types.CommonType(lo.Type(), hi.Type()))
		if t == types.Unknown {
			return nil, fmt.Errorf("BETWEEN operands have incompatible types")
		}
		innerC, err := coerceExpr(inner, t)
		if err != nil {
			return nil, err
		}
		loC, err := coerceExpr(lo, t)
		if err != nil {
			return nil, err
		}
		hiC, err := coerceExpr(hi, t)
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: innerC, Lo: loC, Hi: hiC, Negate: x.Not}, nil

	case *sqlparser.LikeExpr:
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		pat, err := ec.analyze(x.Pattern)
		if err != nil {
			return nil, err
		}
		if inner.Type() != types.Varchar || pat.Type() != types.Varchar {
			return nil, fmt.Errorf("LIKE requires VARCHAR operands")
		}
		return &expr.Like{E: inner, Pattern: pat, Negate: x.Not}, nil

	case *sqlparser.CaseExpr:
		return ec.analyzeCase(x)

	case *sqlparser.CastExpr:
		inner, err := ec.analyze(x.Expr)
		if err != nil {
			return nil, err
		}
		t, err := types.ParseType(x.Type)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, T: t}, nil

	case *sqlparser.FuncCall:
		return ec.analyzeFuncCall(x)

	case *sqlparser.LambdaExpr:
		return nil, fmt.Errorf("lambda expressions are only valid as arguments to transform/filter/reduce")

	case *sqlparser.ArrayLit:
		elems := make([]expr.Expr, len(x.Elems))
		for i, le := range x.Elems {
			v, err := ec.analyze(le)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return &expr.ArrayCtor{Elems: elems}, nil

	case *sqlparser.SubscriptExpr:
		base, err := ec.analyze(x.Base)
		if err != nil {
			return nil, err
		}
		if base.Type() != types.Array {
			return nil, fmt.Errorf("subscript requires an array, got %s", base.Type())
		}
		idx, err := ec.analyze(x.Index)
		if err != nil {
			return nil, err
		}
		if idx.Type() != types.Bigint {
			return nil, fmt.Errorf("array subscript must be BIGINT")
		}
		// An ARRAY literal's element is of the type its elements share.
		t := types.Unknown
		if arr, ok := base.(*expr.ArrayCtor); ok && len(arr.Elems) > 0 {
			t = arr.Elems[0].Type()
			for _, el := range arr.Elems {
				if el.Type() != t {
					t = types.Unknown
				}
			}
		}
		return &expr.Subscript{Base: base, Index: idx, T: t}, nil

	case *sqlparser.ScalarSubquery:
		return nil, fmt.Errorf("scalar subqueries are only supported in WHERE clauses")

	case *sqlparser.ExistsExpr:
		return nil, fmt.Errorf("EXISTS is only supported in WHERE clauses")

	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

func coerceExpr(e expr.Expr, t types.Type) (expr.Expr, error) {
	if e.Type() == t || t == types.Unknown {
		return e, nil
	}
	if c, ok := e.(*expr.Const); ok {
		// A lifted literal keeps its slot: binding coerces the new value the
		// same way.
		v, err := c.Val.Coerce(t)
		if err == nil {
			return expr.NewSlotConst(v, c.Slot), nil
		}
	}
	if !types.CanCoerce(e.Type(), t) {
		return nil, fmt.Errorf("cannot coerce %s to %s", e.Type(), t)
	}
	return &expr.Cast{E: e, T: t}, nil
}

func (ec *exprCtx) analyzeBinary(x *sqlparser.BinaryExpr) (expr.Expr, error) {
	l, err := ec.analyze(x.Left)
	if err != nil {
		return nil, err
	}
	r, err := ec.analyze(x.Right)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND", "OR":
		if l.Type() != types.Boolean || r.Type() != types.Boolean {
			return nil, fmt.Errorf("%s requires boolean operands", x.Op)
		}
		if x.Op == "AND" {
			return &expr.And{L: l, R: r}, nil
		}
		return &expr.Or{L: l, R: r}, nil

	case "=", "<>", "<", "<=", ">", ">=":
		t := types.CommonType(l.Type(), r.Type())
		if t == types.Unknown && l.Type() != types.Unknown && r.Type() != types.Unknown {
			return nil, fmt.Errorf("cannot compare %s and %s", l.Type(), r.Type())
		}
		lc, err := coerceExpr(l, t)
		if err != nil {
			return nil, err
		}
		rc, err := coerceExpr(r, t)
		if err != nil {
			return nil, err
		}
		var op expr.CmpOp
		switch x.Op {
		case "=":
			op = expr.CmpEq
		case "<>":
			op = expr.CmpNe
		case "<":
			op = expr.CmpLt
		case "<=":
			op = expr.CmpLe
		case ">":
			op = expr.CmpGt
		case ">=":
			op = expr.CmpGe
		}
		return &expr.Compare{Op: op, L: lc, R: rc}, nil

	case "+", "-", "*", "/", "%":
		return analyzeArith(x.Op, l, r)

	case "||":
		lc, err := coerceExpr(l, types.Varchar)
		if err != nil {
			return nil, err
		}
		rc, err := coerceExpr(r, types.Varchar)
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: expr.OpConcat, L: lc, R: rc, T: types.Varchar}, nil

	default:
		return nil, fmt.Errorf("unsupported binary operator %q", x.Op)
	}
}

func analyzeArith(op string, l, r expr.Expr) (expr.Expr, error) {
	var bop expr.BinOp
	switch op {
	case "+":
		bop = expr.OpAdd
	case "-":
		bop = expr.OpSub
	case "*":
		bop = expr.OpMul
	case "/":
		bop = expr.OpDiv
	case "%":
		bop = expr.OpMod
	}
	lt, rt := l.Type(), r.Type()
	// DATE ± integer days.
	if lt == types.Date && rt == types.Bigint && (bop == expr.OpAdd || bop == expr.OpSub) {
		return &expr.Arith{Op: bop, L: l, R: r, T: types.Date}, nil
	}
	if lt == types.Bigint && rt == types.Date && bop == expr.OpAdd {
		return &expr.Arith{Op: bop, L: r, R: l, T: types.Date}, nil
	}
	// DATE - DATE = days.
	if lt == types.Date && rt == types.Date && bop == expr.OpSub {
		return &expr.Arith{Op: bop, L: l, R: r, T: types.Bigint}, nil
	}
	t := types.CommonType(lt, rt)
	switch t {
	case types.Bigint, types.Double:
	case types.Unknown:
		if lt == types.Unknown || rt == types.Unknown {
			t = types.Bigint // NULL literal operand: pick integer arithmetic
		} else {
			return nil, fmt.Errorf("arithmetic on %s and %s is not supported", lt, rt)
		}
	default:
		return nil, fmt.Errorf("arithmetic on %s is not supported", t)
	}
	lc, err := coerceExpr(l, t)
	if err != nil {
		return nil, err
	}
	rc, err := coerceExpr(r, t)
	if err != nil {
		return nil, err
	}
	return &expr.Arith{Op: bop, L: lc, R: rc, T: t}, nil
}

func (ec *exprCtx) analyzeCase(x *sqlparser.CaseExpr) (expr.Expr, error) {
	whens := make([]expr.CaseWhen, 0, len(x.Whens))
	var resultType types.Type
	for _, w := range x.Whens {
		var cond expr.Expr
		var err error
		if x.Operand != nil {
			// Desugar operand form: CASE a WHEN b -> a = b.
			cond, err = ec.analyzeBinary(&sqlparser.BinaryExpr{Op: "=", Left: x.Operand, Right: w.Cond})
		} else {
			cond, err = ec.analyze(w.Cond)
			if err == nil && cond.Type() != types.Boolean {
				err = fmt.Errorf("CASE WHEN condition must be boolean, got %s", cond.Type())
			}
		}
		if err != nil {
			return nil, err
		}
		then, err := ec.analyze(w.Then)
		if err != nil {
			return nil, err
		}
		t := types.CommonType(resultType, then.Type())
		if t == types.Unknown && resultType != types.Unknown && then.Type() != types.Unknown {
			return nil, fmt.Errorf("CASE branches have incompatible types %s and %s", resultType, then.Type())
		}
		if t != types.Unknown {
			resultType = t
		}
		whens = append(whens, expr.CaseWhen{Cond: cond, Then: then})
	}
	var elseE expr.Expr
	if x.Else != nil {
		e, err := ec.analyze(x.Else)
		if err != nil {
			return nil, err
		}
		t := types.CommonType(resultType, e.Type())
		if t == types.Unknown && resultType != types.Unknown && e.Type() != types.Unknown {
			return nil, fmt.Errorf("CASE ELSE type %s is incompatible with %s", e.Type(), resultType)
		}
		if t != types.Unknown {
			resultType = t
		}
		elseE = e
	}
	if resultType == types.Unknown {
		resultType = types.Boolean
	}
	return &expr.Case{Whens: whens, Else: elseE, T: resultType}, nil
}

func (ec *exprCtx) analyzeFuncCall(x *sqlparser.FuncCall) (expr.Expr, error) {
	if x.Over != nil {
		return nil, fmt.Errorf("window function %s in unsupported position", x)
	}
	if _, isAgg := isAggCall(x); isAgg {
		return nil, fmt.Errorf("aggregate function %s is not allowed here", x)
	}
	b, ok := expr.LookupBuiltin(x.Name)
	if !ok {
		return nil, fmt.Errorf("unknown function %q", x.Name)
	}
	if b.HigherOrder {
		return ec.analyzeHigherOrder(x, b)
	}
	if !b.Variadic && len(x.Args) != len(b.ArgTypes) {
		// round(x) sugar for round(x, 0).
		if b.Name == "round" && len(x.Args) == 1 {
			x = &sqlparser.FuncCall{Name: "round", Args: []sqlparser.Expr{x.Args[0], &sqlparser.NumberLit{Text: "0", IsInteger: true}}}
		} else if b.Name == "substr" && len(x.Args) == 2 {
			x = &sqlparser.FuncCall{Name: "substr", Args: []sqlparser.Expr{x.Args[0], x.Args[1], &sqlparser.NumberLit{Text: "1000000000", IsInteger: true}}}
		} else {
			return nil, fmt.Errorf("%s expects %d arguments, got %d", b.Name, len(b.ArgTypes), len(x.Args))
		}
	}
	args := make([]expr.Expr, len(x.Args))
	var firstType types.Type
	for i, ae := range x.Args {
		a, err := ec.analyze(ae)
		if err != nil {
			return nil, err
		}
		want := types.Unknown
		if i < len(b.ArgTypes) {
			want = b.ArgTypes[i]
		} else if b.Variadic {
			want = b.ArgTypes[len(b.ArgTypes)-1]
		}
		if want != types.Unknown {
			a, err = coerceExpr(a, want)
			if err != nil {
				return nil, fmt.Errorf("argument %d of %s: %w", i+1, b.Name, err)
			}
		}
		if i == 0 {
			firstType = a.Type()
		}
		args[i] = a
	}
	// Polymorphic builtins (abs, coalesce, greatest...) return their first
	// argument's type.
	if b.ReturnType == types.Unknown {
		specialized := *b
		specialized.ReturnType = firstType
		return &expr.Call{Fn: &specialized, Args: args}, nil
	}
	return &expr.Call{Fn: b, Args: args}, nil
}

func (ec *exprCtx) analyzeHigherOrder(x *sqlparser.FuncCall, b *expr.Builtin) (expr.Expr, error) {
	if len(x.Args) != len(b.ArgTypes) {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", b.Name, len(b.ArgTypes), len(x.Args))
	}
	arr, err := ec.analyze(x.Args[0])
	if err != nil {
		return nil, err
	}
	if arr.Type() != types.Array {
		return nil, fmt.Errorf("%s requires an array as first argument", b.Name)
	}
	analyzeLambda := func(le sqlparser.Expr, nparams int) (*expr.Lambda, error) {
		lam, ok := le.(*sqlparser.LambdaExpr)
		if !ok {
			return nil, fmt.Errorf("%s requires a lambda argument", b.Name)
		}
		if len(lam.Params) != nparams {
			return nil, fmt.Errorf("%s lambda takes %d parameters, got %d", b.Name, nparams, len(lam.Params))
		}
		saved := len(ec.lambdas)
		for i, p := range lam.Params {
			// Element types inside arrays are dynamic; Unknown accepts any.
			ec.lambdas = append(ec.lambdas, lambdaBinding{name: p, depth: nparams - 1 - i, t: types.Unknown})
		}
		body, err := ec.analyze(lam.Body)
		ec.lambdas = ec.lambdas[:saved]
		if err != nil {
			return nil, err
		}
		return &expr.Lambda{NParams: nparams, Body: body}, nil
	}
	switch b.Name {
	case "transform", "filter":
		lam, err := analyzeLambda(x.Args[1], 1)
		if err != nil {
			return nil, err
		}
		return &expr.Call{Fn: b, Args: []expr.Expr{arr, lam}}, nil
	case "reduce":
		init, err := ec.analyze(x.Args[1])
		if err != nil {
			return nil, err
		}
		lam, err := analyzeLambda(x.Args[2], 2)
		if err != nil {
			return nil, err
		}
		specialized := *b
		specialized.ReturnType = lam.Body.Type()
		if specialized.ReturnType == types.Unknown {
			specialized.ReturnType = init.Type()
		}
		return &expr.Call{Fn: &specialized, Args: []expr.Expr{arr, init, lam}}, nil
	}
	return nil, fmt.Errorf("unknown higher-order function %s", b.Name)
}

// planWhere desugars subqueries in a WHERE clause (IN, EXISTS, scalar) into
// semi/anti joins and single-row cross joins, returning the augmented
// relation and the rewritten predicate (nil when fully absorbed).
func (c *ctx) planWhere(rel *relationPlan, where sqlparser.Expr) (*relationPlan, expr.Expr, error) {
	conjuncts := splitASTConjuncts(where)
	var predicates []expr.Expr
	for _, cj := range conjuncts {
		switch x := cj.(type) {
		case *sqlparser.InExpr:
			if x.Subquery != nil {
				rp, err := c.planInSubquery(rel, x)
				if err != nil {
					return nil, nil, err
				}
				rel = rp
				continue
			}
		case *sqlparser.ExistsExpr:
			rp, err := c.planExists(rel, x.Subquery, x.Not)
			if err != nil {
				return nil, nil, err
			}
			rel = rp
			continue
		case *sqlparser.UnaryExpr:
			if x.Op == "NOT" {
				if ex, ok := x.Expr.(*sqlparser.ExistsExpr); ok {
					rp, err := c.planExists(rel, ex.Subquery, true)
					if err != nil {
						return nil, nil, err
					}
					rel = rp
					continue
				}
				if in, ok := x.Expr.(*sqlparser.InExpr); ok && in.Subquery != nil {
					flipped := *in
					flipped.Not = !in.Not
					rp, err := c.planInSubquery(rel, &flipped)
					if err != nil {
						return nil, nil, err
					}
					rel = rp
					continue
				}
			}
		}
		// Scalar subqueries inside the conjunct: read from appended
		// columns via cross join.
		rp, mappings, err := c.planScalarSubqueries(rel, cj)
		if err != nil {
			return nil, nil, err
		}
		rel = rp
		e, err := c.analyzeMapped(cj, rel.scope, mappings)
		if err != nil {
			return nil, nil, err
		}
		predicates = append(predicates, e)
	}
	return rel, expr.AndAll(predicates), nil
}

func splitASTConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitASTConjuncts(b.Left), splitASTConjuncts(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

func (c *ctx) planInSubquery(rel *relationPlan, x *sqlparser.InExpr) (*relationPlan, error) {
	sub, err := c.planQuery(x.Subquery, nil)
	if err != nil {
		return nil, err
	}
	if len(sub.scope.fields) != 1 {
		return nil, fmt.Errorf("IN subquery must return one column, got %d", len(sub.scope.fields))
	}
	probe, err := c.analyzeExpr(x.Expr, rel.scope)
	if err != nil {
		return nil, err
	}
	// Both sides compare in their common type, as = does: a BIGINT probe
	// against a DOUBLE column joins as DOUBLE.
	subField := sub.node.Schema()[0]
	t := types.CommonType(probe.Type(), subField.T)
	if t == types.Unknown && probe.Type() != types.Unknown && subField.T != types.Unknown {
		return nil, fmt.Errorf("IN subquery: cannot compare %s and %s", probe.Type(), subField.T)
	}
	if probe, err = coerceExpr(probe, t); err != nil {
		return nil, err
	}
	subNode := sub.node
	if t != types.Unknown && subField.T != t {
		subNode = castTo(subNode, plan.Schema{{Name: subField.Name, T: t}})
	}
	// The probe side must be a column: append a projection if needed.
	probeCol, relNode := asColumn(rel, probe)
	jt := plan.SemiJoin
	if x.Not {
		jt = plan.AntiJoin
	}
	join := &plan.Join{
		Type:      jt,
		Left:      relNode,
		Right:     subNode,
		Equi:      []plan.EquiClause{{Left: probeCol, Right: 0}},
		Out:       relNode.Schema(),
		NullAware: x.Not,
	}
	// Semi/anti joins keep the left schema; the scope may have gained a
	// hidden probe column which stays invisible.
	return &relationPlan{node: join, scope: rel.scope}, nil
}

func (c *ctx) planExists(rel *relationPlan, q *sqlparser.Query, not bool) (*relationPlan, error) {
	sub, err := c.planQuery(q, nil)
	if err != nil {
		return nil, err
	}
	jt := plan.SemiJoin
	if not {
		jt = plan.AntiJoin
	}
	join := &plan.Join{
		Type:  jt,
		Left:  rel.node,
		Right: sub.node,
		Out:   rel.node.Schema(),
	}
	return &relationPlan{node: join, scope: rel.scope}, nil
}

// planScalarSubqueries cross-joins the (single-row) result of each
// ScalarSubquery node in an AST conjunct to rel, and maps each node's key to
// the column it appends.
func (c *ctx) planScalarSubqueries(rel *relationPlan, e sqlparser.Expr) (*relationPlan, map[string]*expr.ColumnRef, error) {
	var found []*sqlparser.ScalarSubquery
	var find func(sqlparser.Expr)
	find = func(x sqlparser.Expr) {
		if s, ok := x.(*sqlparser.ScalarSubquery); ok {
			found = append(found, s)
			return
		}
		for _, ch := range astChildren(x) {
			find(ch)
		}
	}
	find(e)
	if len(found) == 0 {
		return rel, nil, nil
	}
	mappings := map[string]*expr.ColumnRef{}
	for i, s := range found {
		sub, err := c.planQuery(s.Query, nil)
		if err != nil {
			return nil, nil, err
		}
		if len(sub.scope.fields) != 1 {
			return nil, nil, fmt.Errorf("scalar subquery must return one column")
		}
		name := fmt.Sprintf("_scalar_%d_%d", len(rel.scope.fields), i)
		single := &plan.EnforceSingleRow{Input: sub.node}
		join := &plan.Join{
			Type:  plan.CrossJoin,
			Left:  rel.node,
			Right: single,
			Out:   append(append(plan.Schema{}, rel.node.Schema()...), plan.Field{Name: name, T: sub.scope.fields[0].field.T}),
		}
		mappings[sqlparser.Key(s)] = &expr.ColumnRef{Index: len(rel.scope.fields), T: sub.scope.fields[0].field.T, Name: name}
		sc := &scope{fields: append(append([]scopeField{}, rel.scope.fields...), scopeField{name: name, field: plan.Field{Name: name, T: sub.scope.fields[0].field.T}})}
		rel = &relationPlan{node: join, scope: sc}
	}
	return rel, mappings, nil
}

// asColumn ensures e is available as a column of rel, appending a projection
// when necessary; returns the column index and the (possibly new) node.
func asColumn(rel *relationPlan, e expr.Expr) (int, plan.Node) {
	if cr, ok := e.(*expr.ColumnRef); ok {
		return cr.Index, rel.node
	}
	in := rel.node.Schema()
	exprs := make([]expr.Expr, 0, len(in)+1)
	out := make(plan.Schema, 0, len(in)+1)
	for i, f := range in {
		exprs = append(exprs, &expr.ColumnRef{Index: i, T: f.T, Name: f.Name})
		out = append(out, f)
	}
	exprs = append(exprs, e)
	out = append(out, plan.Field{Name: "_probe", T: e.Type()})
	proj := &plan.Project{Input: rel.node, Exprs: exprs, Out: out}
	return len(in), proj
}
