package plan

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/types"
)

// A plan-cache template is a plan whose literals in value positions were
// lifted into slots: each such literal is an expr.Const carrying its slot, and
// so is every scan-constraint bound derived from one. Another statement of the
// template runs the same plan with its own literals: they travel to the
// workers as task parameters, and only scan constraints are bound (Bind).

// WalkExprs calls fn with every expression a node of n's tree evaluates:
// filter predicates, projections, grouping keys, aggregate arguments and
// masks, window arguments and join residuals.
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
				if a.Mask != nil {
					fn(a.Mask)
				}
				if a.Else != nil {
					fn(a.Else)
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
				mark(c.Slot)
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
				for _, s := range cd.Slots {
					mark(s)
				}
				for _, r := range cd.Ranges {
					mark(r.LoSlot)
					mark(r.HiSlot)
				}
			}
		}
	})
	return ok
}

// SlotType is a type a plan holds a lifted literal at.
type SlotType struct {
	Slot int
	T    types.Type
}

// SlotTypes appends to out, once each, the (slot, type) pairs at which n's
// expressions hold a lifted constant: a statement of the template runs n only
// if each of its literals coerces to each type its slot is held at.
func SlotTypes(n Node, out []SlotType) []SlotType {
	WalkExprs(n, func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) {
			if c, ok := x.(*expr.Const); ok && c.Slot > 0 {
				if st := (SlotType{c.Slot, c.Val.T}); !slices.Contains(out, st) {
					out = append(out, st)
				}
			}
		})
	})
	return out
}

// Bind returns d with every lifted bound set to vals[slot-1], coerced to the
// type the domain holds it at; d itself when it holds none, and is never
// modified. The error is a value that does not coerce. A scan's constraint is
// all of a template that is bound before it runs: the coordinator binds it to
// enumerate splits and to ask the connector's pushdown again, a worker to open
// its page sources. Expressions are not bound; a worker compiles their lifted
// constants as parameters (exec.CompiledFragment).
func (d *Domain) Bind(vals []types.Value) (*Domain, error) {
	if d.All() {
		return d, nil
	}
	var out *Domain
	var bindErr error
	value := func(slot int, t types.Type) types.Value {
		if slot > len(vals) {
			bindErr = fmt.Errorf("no value for slot %d", slot)
			return types.NullValue(t)
		}
		v, err := vals[slot-1].Coerce(t)
		if err != nil && bindErr == nil {
			bindErr = err
		}
		return v
	}
	for name, cd := range d.Columns {
		if !cd.lifted() {
			continue
		}
		nc := *cd
		if cd.Slots != nil {
			nc.Points = slices.Clone(cd.Points)
			for i, s := range cd.Slots {
				if s > 0 {
					nc.Points[i] = value(s, cd.Points[i].T)
				}
			}
		}
		nc.Ranges = slices.Clone(cd.Ranges)
		for i := range nc.Ranges {
			r := &nc.Ranges[i]
			if r.LoSlot > 0 {
				v := value(r.LoSlot, r.Lo.T)
				r.Lo = &v
			}
			if r.HiSlot > 0 {
				v := value(r.HiSlot, r.Hi.T)
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
		return d, nil
	}
	return out, bindErr
}
