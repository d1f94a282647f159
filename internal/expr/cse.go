package expr

import (
	"fmt"

	"repro/internal/types"
)

// Common-subexpression elimination across a projection list: TPC-H q1
// projects both extendedprice * (1 - discount) and
// extendedprice * (1 - discount) * (1 + tax), so the shared product should
// be computed once per page and read twice. The planner repeatedly picks
// the largest deterministic subtree occurring at least twice, compiles it
// as a standalone vectorized slot, and rewrites every occurrence into a
// virtual ColumnRef (index >= virtualColBase) that reads the slot's
// selection-aligned output block. Rewritten expressions are only ever
// handed to the vectorized compiler, so virtual indices never reach
// Page.Col.

const maxCSESlots = 8

// cseSlot is one shared subtree: its expression (for diagnostics and
// dependency marking), its compiled projector, and how many occurrences
// across the projection list were replaced by its virtual column.
type cseSlot struct {
	expr Expr
	proj *vecProjector
	occ  int
}

// cseShareable reports whether x may be hoisted into a shared slot. Slots
// are evaluated eagerly over every surviving row, so subtrees that can
// raise runtime errors (division/modulo, CAST from varchar, function
// calls) must stay inline where CASE/AND/OR partitioning guards them.
func cseShareable(x Expr) bool {
	switch x.(type) {
	case *Const, *Param, *ColumnRef:
		return false
	}
	switch x.Type() {
	case types.Bigint, types.Date, types.Double, types.Varchar, types.Boolean:
	default:
		return false
	}
	if !IsDeterministic(x) {
		return false
	}
	safe := true
	Walk(x, func(sub Expr) {
		switch s := sub.(type) {
		case *Arith:
			if s.Op == OpDiv || s.Op == OpMod {
				safe = false
			}
		case *Cast:
			if s.E.Type() == types.Varchar {
				safe = false
			}
		case *Call:
			safe = false
		}
	})
	return safe
}

// planCSE rewrites projections, extracting repeated subtrees into shared
// slots compiled by c. It returns the rewritten list (aliasing the input
// where nothing changed) and the slots in evaluation order; later slots may
// reference earlier ones through virtual columns.
func planCSE(c *selCompiler, projections []Expr) ([]Expr, []*cseSlot) {
	if len(projections) < 2 {
		return projections, nil
	}
	out := make([]Expr, len(projections))
	copy(out, projections)
	var slots []*cseSlot
	banned := map[string]bool{}
	type cand struct {
		e     Expr
		count int
		size  int
	}
	for len(slots) < maxCSESlots {
		counts := map[string]*cand{}
		for _, e := range out {
			Walk(e, func(x Expr) {
				if !cseShareable(x) {
					return
				}
				k := CanonicalKey(x)
				if banned[k] {
					return
				}
				if c := counts[k]; c != nil {
					c.count++
				} else {
					counts[k] = &cand{e: x, count: 1, size: nodeCount(x)}
				}
			})
		}
		var best *cand
		var bestKey string
		for k, c := range counts {
			if c.count < 2 || c.size < 3 {
				continue
			}
			if best == nil || c.size > best.size || (c.size == best.size && k < bestKey) {
				best, bestKey = c, k
			}
		}
		if best == nil {
			break
		}
		proj := c.compileVecProj(best.e)
		if proj == nil {
			banned[bestKey] = true
			continue
		}
		slot := len(slots)
		ref := &ColumnRef{
			Index: virtualColBase + slot,
			T:     best.e.Type(),
			Name:  fmt.Sprintf("$cse%d", slot),
		}
		replaced := 0
		for i, e := range out {
			out[i] = Rewrite(e, func(x Expr) Expr {
				if cseShareable(x) && CanonicalKey(x) == bestKey {
					replaced++
					return ref
				}
				return nil
			})
		}
		slots = append(slots, &cseSlot{expr: best.e, proj: proj, occ: replaced})
	}
	return out, slots
}

func nodeCount(e Expr) int {
	n := 0
	Walk(e, func(Expr) { n++ })
	return n
}

// markSlotRefs sets needed[k] for every CSE slot that e references through
// a virtual column.
func markSlotRefs(e Expr, needed []bool) {
	Walk(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.Index >= virtualColBase {
			needed[c.Index-virtualColBase] = true
		}
	})
}

// countSlotRefs returns how many virtual-column reads e performs.
func countSlotRefs(e Expr) int {
	n := 0
	Walk(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.Index >= virtualColBase {
			n++
		}
	})
	return n
}
