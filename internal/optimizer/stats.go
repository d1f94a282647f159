package optimizer

import (
	"repro/internal/connector"
	"repro/internal/expr"
	"repro/internal/plan"
)

// Cardinality estimation drives the paper's two cost-based optimizations:
// join strategy selection and join re-ordering (§IV-C). Estimates come from
// connector table/column statistics; when statistics are unavailable the
// estimate is negative ("unknown") and cost-based decisions are skipped —
// matching the Hive-without-stats configuration in the Figure 6 experiment.

const (
	defaultFilterSelectivity = 0.25
	defaultEquiSelectivity   = 0.1
)

// estimateRows returns the estimated output row count of a plan subtree,
// derived from connector statistics, or a negative value when unknown.
func (o *Optimizer) estimateRows(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		if o.Meta == nil {
			return -1
		}
		st := o.Meta.Stats(x.Handle.Catalog, x.Handle.Table)
		if st.Unknown() {
			return -1
		}
		rows := float64(st.RowCount)
		if c := x.Handle.Constraint; c != nil && !c.All() {
			for name, cd := range c.Columns {
				rows *= columnSelectivity(st, name, cd)
			}
		}
		if rows < 1 {
			rows = 1
		}
		return rows

	case *plan.Filter:
		child := o.estimateRows(x.Input)
		if child < 0 {
			return -1
		}
		sel := 1.0
		for range expr.Conjuncts(x.Predicate) {
			sel *= defaultFilterSelectivity
		}
		if sel < 0.001 {
			sel = 0.001
		}
		rows := child * sel
		if rows < 1 {
			rows = 1
		}
		return rows

	case *plan.Project:
		return o.estimateRows(x.Input)

	case *plan.Limit:
		child := o.estimateRows(x.Input)
		if child < 0 {
			return float64(x.N)
		}
		if float64(x.N) < child {
			return float64(x.N)
		}
		return child

	case *plan.TopN:
		return float64(x.N)

	case *plan.Sort:
		return o.estimateRows(x.Input)

	case *plan.Aggregation:
		child := o.estimateRows(x.Input)
		if child < 0 {
			return -1
		}
		if len(x.GroupBy) == 0 {
			return 1
		}
		// NDV product capped by input size; a tenth of the input when a key's
		// NDV is unknown.
		est := child / 10
		if ndv := o.groupNDV(x); ndv > 0 {
			est = min(ndv, child)
		}
		return max(est, 1)

	case *plan.Join:
		l := o.estimateRows(x.Left)
		r := o.estimateRows(x.Right)
		if l < 0 || r < 0 {
			return -1
		}
		switch x.Type {
		case plan.CrossJoin:
			return l * r
		case plan.SemiJoin, plan.AntiJoin:
			return l * 0.5
		default:
			if len(x.Equi) == 0 {
				return l * r * defaultFilterSelectivity
			}
			// Classic: |L|*|R| / max(NDV of keys); NDV unknown → use the
			// larger side as a foreign-key-join guess.
			ndv := o.joinKeyNDV(x)
			if ndv <= 0 {
				ndv = l
				if r > l {
					ndv = r
				}
			}
			est := l * r / ndv
			if est < 1 {
				est = 1
			}
			return est
		}

	case *plan.Union:
		var total float64
		for _, in := range x.Inputs {
			c := o.estimateRows(in)
			if c < 0 {
				return -1
			}
			total += c
		}
		return total

	case *plan.Values:
		return float64(len(x.Rows))

	case *plan.Window:
		return o.estimateRows(x.Input)

	case *plan.EnforceSingleRow:
		return 1

	default:
		if ch := n.Children(); len(ch) == 1 {
			return o.estimateRows(ch[0])
		}
		return -1
	}
}

// columnSelectivity estimates the fraction of rows satisfying a column
// domain using the column's distinct-value count.
func columnSelectivity(st connector.TableStats, name string, cd *plan.ColumnDomain) float64 {
	ndv := st.NDV(name)
	if len(cd.Points) > 0 {
		if ndv > 0 {
			s := float64(len(cd.Points)) / float64(ndv)
			if s > 1 {
				return 1
			}
			return s
		}
		return 0.1
	}
	return 0.3 // range constraint default
}

// groupNDV estimates the number of groups from column statistics: the product
// of the keys' distinct counts when every key is a column of one scan, else -1.
func (o *Optimizer) groupNDV(agg *plan.Aggregation) float64 {
	scan := singleScanBelow(agg.Input)
	if scan == nil || o.Meta == nil {
		return -1
	}
	st := o.Meta.Stats(scan.Handle.Catalog, scan.Handle.Table)
	if st.Unknown() {
		return -1
	}
	prod := 1.0
	for _, g := range agg.GroupBy {
		col := scanColumn(agg.Input, g)
		if col < 0 {
			return -1
		}
		ndv := st.NDV(scan.Columns[col])
		if ndv <= 0 {
			return -1
		}
		prod *= float64(ndv)
	}
	return prod
}

// scanColumn follows e, an expression over n's output, down the chain of
// filters and projections singleScanBelow walks, and returns the scan column
// it reads; -1 when it is not a plain column all the way down.
func scanColumn(n plan.Node, e expr.Expr) int {
	for {
		cr, ok := e.(*expr.ColumnRef)
		if !ok {
			return -1
		}
		switch x := n.(type) {
		case *plan.Scan:
			if cr.Index >= len(x.Columns) {
				return -1
			}
			return cr.Index
		case *plan.Filter:
			n = x.Input
		case *plan.Project:
			if cr.Index >= len(x.Exprs) {
				return -1
			}
			e, n = x.Exprs[cr.Index], x.Input
		default:
			return -1
		}
	}
}

// joinKeyNDV returns the max distinct count over the join's key columns.
func (o *Optimizer) joinKeyNDV(j *plan.Join) float64 {
	best := -1.0
	for _, side := range []struct {
		node plan.Node
		col  func(plan.EquiClause) int
	}{
		{j.Left, func(e plan.EquiClause) int { return e.Left }},
		{j.Right, func(e plan.EquiClause) int { return e.Right }},
	} {
		scan := singleScanBelow(side.node)
		if scan == nil || o.Meta == nil {
			continue
		}
		st := o.Meta.Stats(scan.Handle.Catalog, scan.Handle.Table)
		if st.Unknown() {
			continue
		}
		for _, eq := range j.Equi {
			c := side.col(eq)
			if c < len(scan.Columns) {
				if ndv := st.NDV(scan.Columns[c]); ndv > 0 && float64(ndv) > best {
					best = float64(ndv)
				}
			}
		}
	}
	return best
}

// singleScanBelow returns the unique Scan under a chain of streaming nodes,
// or nil if the subtree is not a simple scan pipeline.
func singleScanBelow(n plan.Node) *plan.Scan {
	for {
		switch x := n.(type) {
		case *plan.Scan:
			return x
		case *plan.Filter:
			n = x.Input
		case *plan.Project:
			n = x.Input
		default:
			return nil
		}
	}
}
