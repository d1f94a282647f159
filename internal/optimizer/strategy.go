package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// Join strategy selection (paper §IV-C): using connector data layouts and
// statistics, each join is assigned a physical strategy — co-located when
// both sides are bucketed on the join keys with matching bucket counts
// (eliminating a resource-intensive shuffle, as in the A/B Testing use
// case), index when the build side has a matching connector index,
// broadcast when the build side is small enough, otherwise hash-partitioned.
func (o *Optimizer) selectJoinStrategies(root plan.Node) plan.Node {
	return o.rewriteBottomUp(root, func(n plan.Node) plan.Node {
		j, ok := n.(*plan.Join)
		if !ok || j.Strategy != plan.StrategyUnset {
			return n
		}
		nj := *j
		nj.Strategy = o.chooseStrategy(&nj)
		return &nj
	})
}

func (o *Optimizer) chooseStrategy(j *plan.Join) plan.JoinStrategy {
	// RIGHT and FULL joins must not replicate the build side: every
	// unmatched build row has to be emitted exactly once, so the build is
	// hash-partitioned across tasks (each build row lives in one task) and
	// the probe side repartitions to match.
	if j.Type == plan.RightJoin || j.Type == plan.FullJoin {
		return plan.StrategyPartitioned
	}
	// NOT IN's null-aware ANTI join is decided by the whole build — whether it
	// is empty, whether it holds a NULL key — so every task sees all of it.
	if j.NullAware {
		return plan.StrategyBroadcast
	}
	if j.Type == plan.CrossJoin || len(j.Equi) == 0 {
		return plan.StrategyBroadcast
	}
	// Co-located: both sides are scan pipelines bucketed on the join keys
	// with equal bucket counts.
	if !o.Config.DisableColocated {
		if o.colocatable(j) {
			return plan.StrategyColocated
		}
	}
	// Index join: the build side is a bare, unconstrained scan with an index
	// layout on the join keys. A lookup returns every row under a key, so a
	// constraint pushed into the scan would not be applied.
	if name, ok := o.indexLayout(j); ok {
		if scan, isScan := j.Right.(*plan.Scan); isScan && scan.Handle.Constraint.All() {
			scan.Handle.Layout = name
			return plan.StrategyIndex
		}
	}
	if o.Config.UseStats {
		buildRows := o.estimateRows(j.Right)
		if buildRows >= 0 && buildRows <= float64(o.Config.BroadcastThresholdRows) {
			return plan.StrategyBroadcast
		}
		if buildRows >= 0 {
			return plan.StrategyPartitioned
		}
	}
	// Without statistics the engine defaults to the safe partitioned
	// strategy (broadcasting an unexpectedly large table would exhaust
	// memory).
	return plan.StrategyPartitioned
}

// colocatable reports whether both join sides scan tables bucketed on the
// join key columns with the same bucket count. When true it also records the
// chosen layout in both scan handles.
func (o *Optimizer) colocatable(j *plan.Join) bool {
	if o.Meta == nil {
		return false
	}
	leftScan := singleScanBelow(j.Left)
	rightScan := singleScanBelow(j.Right)
	if leftScan == nil || rightScan == nil {
		return false
	}
	// Map join key column indices to scan column names. The key columns
	// must pass through any intermediate projections untouched; requiring
	// scan pipelines of Filter/Project of ColumnRefs keeps this sound:
	// trace each join column back to the scan column.
	leftCols := traceColumns(j.Left, equiCols(j, true))
	rightCols := traceColumns(j.Right, equiCols(j, false))
	if leftCols == nil || rightCols == nil {
		return false
	}
	ll, lok := bucketLayout(o, leftScan, leftCols)
	rl, rok := bucketLayout(o, rightScan, rightCols)
	if !lok || !rok {
		return false
	}
	if ll.BucketCount != rl.BucketCount || ll.BucketCount == 0 {
		return false
	}
	leftScan.Handle.Layout = ll.Name
	rightScan.Handle.Layout = rl.Name
	return true
}

func equiCols(j *plan.Join, left bool) []int {
	out := make([]int, len(j.Equi))
	for i, eq := range j.Equi {
		if left {
			out[i] = eq.Left
		} else {
			out[i] = eq.Right
		}
	}
	return out
}

// traceColumns follows column indices down through Filter/Project chains to
// the underlying scan's column names; nil if any column is computed.
func traceColumns(n plan.Node, cols []int) []string {
	switch x := n.(type) {
	case *plan.Scan:
		out := make([]string, len(cols))
		for i, c := range cols {
			if c >= len(x.Columns) {
				return nil
			}
			out[i] = x.Columns[c]
		}
		return out
	case *plan.Filter:
		return traceColumns(x.Input, cols)
	case *plan.Project:
		mapped := make([]int, len(cols))
		for i, c := range cols {
			ref, ok := x.Exprs[c].(*expr.ColumnRef)
			if !ok {
				return nil
			}
			mapped[i] = ref.Index
		}
		return traceColumns(x.Input, mapped)
	default:
		return nil
	}
}

// bucketLayout finds a layout of the scan's table bucketed exactly on cols.
func bucketLayout(o *Optimizer, scan *plan.Scan, cols []string) (layout struct {
	Name        string
	BucketCount int
}, ok bool) {
	for _, l := range o.Meta.Layouts(scan.Handle.Catalog, scan.Handle.Table) {
		if l.BucketCount == 0 || len(l.PartitionCols) != len(cols) {
			continue
		}
		match := true
		for i, c := range l.PartitionCols {
			if c != cols[i] {
				match = false
				break
			}
		}
		if match {
			return struct {
				Name        string
				BucketCount int
			}{l.Name, l.BucketCount}, true
		}
	}
	return layout, false
}

// indexLayout finds an index layout on the build side matching the join's
// right key columns.
func (o *Optimizer) indexLayout(j *plan.Join) (string, bool) {
	if o.Meta == nil || j.Type != plan.InnerJoin && j.Type != plan.LeftJoin {
		return "", false
	}
	scan, ok := j.Right.(*plan.Scan)
	if !ok {
		return "", false
	}
	cols := make([]string, len(j.Equi))
	for i, eq := range j.Equi {
		if eq.Right >= len(scan.Columns) {
			return "", false
		}
		cols[i] = scan.Columns[eq.Right]
	}
	for _, l := range o.Meta.Layouts(scan.Handle.Catalog, scan.Handle.Table) {
		if len(l.IndexCols) != len(cols) {
			continue
		}
		match := true
		for i, c := range l.IndexCols {
			if c != cols[i] {
				match = false
				break
			}
		}
		if match {
			return l.Name, true
		}
	}
	return "", false
}
