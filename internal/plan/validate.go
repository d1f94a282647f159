package plan

import (
	"cmp"
	"fmt"

	"repro/internal/expr"
)

// maxLocalWays bounds LocalExchange.Ways: a fan-out past any worker's thread
// count is a corrupt plan, and the compiler allocates a queue per way.
const maxLocalWays = 1024

// Validate checks that a fragment from outside the process indexes only what
// exists — equi clauses, sort, partition and hash keys, dynamic-filter columns
// and key indices, expression column references — in schemas as wide as the
// compiler assumes. Children go first, so a check may ask one for its schema.
func (f *Fragment) Validate() error {
	if err := validate(f.Root); err != nil {
		return err
	}
	return within("partitioning column", len(f.Root.Schema()), f.OutputPartitioning.Cols...)
}

func validate(n Node) error {
	for _, c := range n.Children() {
		if err := validate(c); err != nil {
			return err
		}
	}
	switch x := n.(type) {
	case *Scan:
		if len(x.Columns) != len(x.Out) {
			return fmt.Errorf("scan reads %d columns into %d outputs", len(x.Columns), len(x.Out))
		}
		for _, df := range x.DynFilters {
			if err := within("dynamic-filter column", len(x.Out), df.Col); err != nil {
				return err
			}
		}
	case *Filter:
		return exprsWithin(len(x.Input.Schema()), x.Predicate)
	case *Project:
		if len(x.Exprs) != len(x.Out) {
			return fmt.Errorf("projection computes %d expressions into %d outputs", len(x.Exprs), len(x.Out))
		}
		return exprsWithin(len(x.Input.Schema()), x.Exprs...)
	case *Aggregation:
		for _, a := range x.Aggregates {
			if err := exprsWithin(len(x.Input.Schema()), a.Arg); err != nil {
				return err
			}
		}
		return exprsWithin(len(x.Input.Schema()), x.GroupBy...)
	case *Join:
		left, right := len(x.Left.Schema()), len(x.Right.Schema())
		for _, eq := range x.Equi {
			if err := cmp.Or(within("left key", left, eq.Left), within("right key", right, eq.Right)); err != nil {
				return err
			}
		}
		for _, df := range x.DynFilters {
			if err := within("dynamic-filter key", len(x.Equi), df.KeyIdx); err != nil {
				return err
			}
		}
		return exprsWithin(left+right, x.Residual)
	case *Sort:
		return keysWithin(len(x.Input.Schema()), x.Keys)
	case *TopN:
		return keysWithin(len(x.Input.Schema()), x.Keys)
	case *Window:
		width := len(x.Input.Schema())
		for _, f := range x.Funcs {
			if err := exprsWithin(width, f.Arg); err != nil {
				return err
			}
		}
		return cmp.Or(within("partition column", width, x.PartitionBy...), keysWithin(width, x.OrderBy))
	case *Union:
		if len(x.Inputs) == 0 {
			return fmt.Errorf("union without inputs")
		}
	case *Output:
		if len(x.Names) != len(x.Input.Schema()) {
			return fmt.Errorf("output names %d of %d columns", len(x.Names), len(x.Input.Schema()))
		}
	case *LocalExchange:
		if x.Ways > maxLocalWays {
			return fmt.Errorf("local exchange %d ways wide", x.Ways)
		}
		return within("hash column", len(x.Input.Schema()), x.HashCols...)
	}
	return nil
}

// within reports the first of is outside [0, n).
func within(what string, n int, is ...int) error {
	for _, i := range is {
		if i < 0 || i >= n {
			return fmt.Errorf("%s %d outside [0, %d)", what, i, n)
		}
	}
	return nil
}

func exprsWithin(n int, es ...expr.Expr) error {
	for _, e := range es {
		if err := within("column reference", n, expr.Columns(e)...); err != nil {
			return err
		}
	}
	return nil
}

func keysWithin(n int, keys []SortKey) error {
	for _, k := range keys {
		if err := within("sort key", n, k.Col); err != nil {
			return err
		}
	}
	return nil
}
