package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Dynamic join filters (adaptive execution): after fragmentation, every
// hash-join equi clause whose output drops unmatched probe rows is a
// candidate to prune the probe side at the source. The build side collects a
// runtime summary of its key column (exact set / min-max / bloom); the
// summary is delivered to the probe-side scans feeding the clause, where it
// runs as an extra vectorized predicate and as min/max bounds for stripe and
// split skipping. Assignment here only annotates the plan — collection,
// delivery, and waiting are runtime concerns (exec, coordinator), and a
// summary that never arrives degrades to an unfiltered scan.

// assignDynamicFilters annotates joins and scans of a fragmented plan with
// matching filter ids.
func assignDynamicFilters(dp *plan.DistributedPlan) {
	nextID := 0
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			j, ok := n.(*plan.Join)
			if !ok {
				return
			}
			switch j.Type {
			case plan.InnerJoin, plan.RightJoin, plan.SemiJoin:
				// Output drops unmatched probe rows: pruning them early is
				// row-for-row identical.
			default:
				return // LEFT/FULL keep unmatched probe rows; ANTI inverts matches
			}
			if j.Strategy == plan.StrategyIndex {
				return // no hash build side to summarize
			}
			ls, rs := j.Left.Schema(), j.Right.Schema()
			for ki, eq := range j.Equi {
				if !dynFilterableType(ls[eq.Left].T) || !dynFilterableType(rs[eq.Right].T) {
					continue
				}
				scans := traceToScans(dp, j.Left, eq.Left)
				if len(scans) == 0 {
					continue
				}
				id := nextID
				nextID++
				j.DynFilters = append(j.DynFilters, plan.JoinDynFilter{ID: id, KeyIdx: ki})
				// An empty build zeroes INNER/SEMI output entirely, so their
				// scans may drop splits outright; RIGHT still emits unmatched
				// build rows through the probe pipeline.
				shortCircuit := j.Type == plan.InnerJoin || j.Type == plan.SemiJoin
				for _, sc := range scans {
					sc.scan.DynFilters = append(sc.scan.DynFilters,
						plan.ScanDynFilter{ID: id, Col: sc.col, ShortCircuit: shortCircuit})
				}
			}
		})
	}
}

// dynFilterableType reports whether the summary/kernel pair supports the
// column type.
func dynFilterableType(t types.Type) bool {
	switch t {
	case types.Bigint, types.Date, types.Double, types.Varchar, types.Boolean:
		return true
	}
	return false
}

type scanCol struct {
	scan *plan.Scan
	col  int
}

// traceToScans follows column col of node n down to the scans producing it,
// crossing fragment boundaries through RemoteSource. The trace descends any
// side of intermediate joins: a traced row either carries its scan value
// intact to the subscribing join or has it replaced by NULL (outer-join
// extension) — and the subscribing join drops both non-member values and
// NULL keys, so pruning at the scan never changes its output. Nodes that
// aggregate, deduplicate, or truncate rows stop the trace: removing their
// input rows early could change how many rows survive them.
func traceToScans(dp *plan.DistributedPlan, n plan.Node, col int) []scanCol {
	switch x := n.(type) {
	case *plan.Scan:
		if col < len(x.Columns) {
			return []scanCol{{x, col}}
		}
		return nil
	case *plan.Filter:
		return traceToScans(dp, x.Input, col)
	case *plan.Project:
		if cr, ok := x.Exprs[col].(*expr.ColumnRef); ok {
			return traceToScans(dp, x.Input, cr.Index)
		}
		return nil
	case *plan.Output:
		return traceToScans(dp, x.Input, col)
	case *plan.Join:
		lw := len(x.Left.Schema())
		if col < lw {
			return traceToScans(dp, x.Left, col)
		}
		if x.Strategy == plan.StrategyIndex {
			return nil // right side is a per-row index lookup, not a scan pipeline
		}
		return traceToScans(dp, x.Right, col-lw)
	case *plan.Union:
		var out []scanCol
		for _, in := range x.Inputs {
			out = append(out, traceToScans(dp, in, col)...)
		}
		return out
	case *plan.RemoteSource:
		var out []scanCol
		for _, src := range x.SourceFragments {
			out = append(out, traceToScans(dp, dp.Fragment(src).Root, col)...)
		}
		return out
	default:
		return nil
	}
}
