package plan

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/types"
)

// A plan-cache template is a plan whose literals in value positions were
// lifted into slots: each such literal is an expr.Const carrying its slot, and
// so is every scan-constraint bound derived from one. Binding substitutes
// another statement's literals, slot by slot, into a copy of the plan.

// WalkExprs calls fn with every expression a node of n's tree evaluates:
// filter predicates, projections, grouping keys, aggregate and window
// arguments and join residuals.
func WalkExprs(n Node, fn func(expr.Expr)) {
	Walk(n, func(n Node) {
		switch x := n.(type) {
		case *Filter:
			fn(x.Predicate)
		case *Project:
			for _, e := range x.Exprs {
				fn(e)
			}
		case *Aggregation:
			for _, e := range x.GroupBy {
				fn(e)
			}
			for _, a := range x.Aggregates {
				if a.Arg != nil {
					fn(a.Arg)
				}
			}
		case *Join:
			if x.Residual != nil {
				fn(x.Residual)
			}
		case *Window:
			for _, f := range x.Funcs {
				if f.Arg != nil {
					fn(f.Arg)
				}
			}
		}
	})
}

// TraceSlots marks traced[s-1] for every slot s a constant or a scan
// constraint of n's tree still carries. It reports false when a constraint's
// shape was decided by lifted values (see ColumnDomain.Intersect): such a plan
// is not a template whatever it traces.
func TraceSlots(n Node, traced []bool) bool {
	mark := func(s int) {
		if s > 0 && s <= len(traced) {
			traced[s-1] = true
		}
	}
	WalkExprs(n, func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) {
			if c, ok := x.(*expr.Const); ok {
				mark(c.Slot())
			}
		})
	})
	ok := true
	Walk(n, func(n Node) {
		if sc, isScan := n.(*Scan); isScan && sc.Handle.Constraint != nil {
			for _, cd := range sc.Handle.Constraint.Columns {
				if cd.valueShaped {
					ok = false
				}
				for _, s := range cd.slots {
					mark(s)
				}
				for _, r := range cd.Ranges {
					mark(r.loSlot)
					mark(r.hiSlot)
				}
			}
		}
	})
	return ok
}

// BindSlots returns n with every lifted constant and constraint bound set to
// vals[slot-1], coerced to the type the plan holds it at. Nodes off the path
// to a lifted literal are shared with n, which is never modified. The error is
// a value that does not coerce; the caller plans the statement afresh.
func BindSlots(n Node, vals []types.Value) (Node, error) {
	b := binder{vals: vals}
	out := b.node(n)
	return out, b.err
}

// BindSlots is BindSlots over every fragment of the plan.
func (d *DistributedPlan) BindSlots(vals []types.Value) (*DistributedPlan, error) {
	b := binder{vals: vals}
	out := &DistributedPlan{RootID: d.RootID, Fragments: make([]*Fragment, len(d.Fragments))}
	for i, f := range d.Fragments {
		cp := *f
		cp.Root = b.node(f.Root)
		out.Fragments[i] = &cp
	}
	return out, b.err
}

type binder struct {
	vals []types.Value
	err  error
}

func (b *binder) value(slot int, t types.Type) types.Value {
	v := b.vals[slot-1]
	if v.T != t {
		var err error
		if v, err = v.Coerce(t); err != nil && b.err == nil {
			b.err = err
		}
	}
	return v
}

func (b *binder) node(n Node) Node {
	kids := n.Children()
	var bound []Node
	for i, k := range kids {
		if nk := b.node(k); nk != k {
			if bound == nil {
				bound = slices.Clone(kids)
			}
			bound[i] = nk
		}
	}
	if bound != nil {
		n = n.WithChildren(bound)
	}
	switch x := n.(type) {
	case *Scan:
		if d := b.domain(x.Handle.Constraint); d != x.Handle.Constraint {
			cp := *x
			cp.Handle.Constraint = d
			return &cp
		}
	case *Filter:
		if p := b.expr(x.Predicate); p != x.Predicate {
			cp := *x
			cp.Predicate = p
			return &cp
		}
	case *Project:
		if es := b.exprs(x.Exprs); es != nil {
			cp := *x
			cp.Exprs = es
			return &cp
		}
	case *Aggregation:
		groups := b.exprs(x.GroupBy)
		var aggs []Aggregate
		for i, a := range x.Aggregates {
			if arg := b.expr(a.Arg); arg != a.Arg {
				if aggs == nil {
					aggs = slices.Clone(x.Aggregates)
				}
				aggs[i].Arg = arg
			}
		}
		if groups != nil || aggs != nil {
			cp := *x
			if groups != nil {
				cp.GroupBy = groups
			}
			if aggs != nil {
				cp.Aggregates = aggs
			}
			return &cp
		}
	case *Join:
		if r := b.expr(x.Residual); r != x.Residual {
			cp := *x
			cp.Residual = r
			return &cp
		}
	case *Window:
		var funcs []WindowExpr
		for i, f := range x.Funcs {
			if arg := b.expr(f.Arg); arg != f.Arg {
				if funcs == nil {
					funcs = slices.Clone(x.Funcs)
				}
				funcs[i].Arg = arg
			}
		}
		if funcs != nil {
			cp := *x
			cp.Funcs = funcs
			return &cp
		}
	}
	return n
}

// exprs binds a list, returning nil when no element changed.
func (b *binder) exprs(es []expr.Expr) []expr.Expr {
	var out []expr.Expr
	for i, e := range es {
		if be := b.expr(e); be != e {
			if out == nil {
				out = slices.Clone(es)
			}
			out[i] = be
		}
	}
	return out
}

// expr binds one expression, returning e itself when it holds no lifted
// constant.
func (b *binder) expr(e expr.Expr) expr.Expr {
	if e == nil {
		return nil
	}
	lifted := false
	expr.Walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.Const); ok && c.Slot() > 0 {
			lifted = true
		}
	})
	if !lifted {
		return e
	}
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(*expr.Const); ok && c.Slot() > 0 {
			return expr.NewSlotConst(b.value(c.Slot(), c.Val.T), c.Slot())
		}
		return nil
	})
}

// domain binds a scan constraint, returning d itself when it holds no lifted
// bound.
func (b *binder) domain(d *Domain) *Domain {
	if d.All() {
		return d
	}
	var out *Domain
	for name, cd := range d.Columns {
		if !cd.lifted() {
			continue
		}
		nc := *cd
		if cd.slots != nil {
			nc.Points = slices.Clone(cd.Points)
			for i, s := range cd.slots {
				if s > 0 {
					nc.Points[i] = b.value(s, cd.Points[i].T)
				}
			}
		}
		nc.Ranges = slices.Clone(cd.Ranges)
		for i := range nc.Ranges {
			r := &nc.Ranges[i]
			if r.loSlot > 0 {
				v := b.value(r.loSlot, r.Lo.T)
				r.Lo = &v
			}
			if r.hiSlot > 0 {
				v := b.value(r.hiSlot, r.Hi.T)
				r.Hi = &v
			}
		}
		if out == nil {
			out = &Domain{Columns: make(map[string]*ColumnDomain, len(d.Columns))}
			for n, c := range d.Columns {
				out.Columns[n] = c
			}
		}
		out.Columns[name] = &nc
	}
	if out == nil {
		return d
	}
	return out
}
