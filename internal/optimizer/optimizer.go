// Package optimizer transforms logical plans into efficient physical plans
// (paper §IV-C). It applies a set of transformation rules greedily until a
// fixed point is reached — predicate and limit pushdown, column pruning,
// constant folding, TopN fusion — plus the two cost-based optimizations the
// paper calls out (join strategy selection and join re-ordering, using
// table/column statistics), layout selection through the Data Layout API,
// and finally fragments the plan into stages connected by shuffles,
// minimizing shuffle count using partitioning properties (§IV-C3).
package optimizer

import (
	"repro/internal/connector"
	"repro/internal/plan"
)

// Metadata supplies the optimizer with connector information: statistics for
// cost-based decisions and layouts for shuffle elision / index selection.
type Metadata interface {
	// Stats returns table statistics (NoStats when unavailable).
	Stats(catalog, table string) connector.TableStats
	// Layouts returns the table's physical layouts.
	Layouts(catalog, table string) []connector.Layout
	// Pushdown reports which constrained columns the connector fully
	// enforces during the scan for the given table.
	Pushdown(catalog, table string, d *plan.Domain) []string
}

// Config tunes optimizer behaviour; zero value is production defaults.
type Config struct {
	// UseStats enables cost-based join reordering and strategy selection.
	UseStats bool
	// BroadcastThresholdRows is the build-side size below which broadcast
	// joins are chosen when statistics are available.
	BroadcastThresholdRows int64
	// DisableColocated turns off co-located join planning (ablation).
	DisableColocated bool
	// DisableDynamicFilters skips dynamic join-filter assignment (the
	// coordinator sets it per statement from its effective switches).
	DisableDynamicFilters bool
	// History, when set, supplies observed cardinalities from prior runs of
	// the same plan shape; estimates consult it before statistics. Nil
	// disables history-based feedback.
	History History
}

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{UseStats: true, BroadcastThresholdRows: 1_000_000}
}

// Optimizer rewrites logical plans.
type Optimizer struct {
	Meta   Metadata
	Config Config
}

// New creates an optimizer.
func New(meta Metadata, cfg Config) *Optimizer {
	if cfg.BroadcastThresholdRows == 0 {
		cfg.BroadcastThresholdRows = 1_000_000
	}
	return &Optimizer{Meta: meta, Config: cfg}
}

// rule is one transformation: returns the replacement node and whether it
// changed anything.
type rule func(o *Optimizer, n plan.Node) (plan.Node, bool)

// Optimize applies all rules to fixpoint, then runs cost-based join
// reordering and strategy selection.
func (o *Optimizer) Optimize(root plan.Node) plan.Node {
	rules := []rule{
		foldConstantFilter,
		mergeFilters,
		pushFilterThroughProject,
		pushFilterIntoJoin,
		pushFilterIntoScan,
		fuseTopN,
		mergeLimits,
		removeIdentityProject,
	}
	root = o.applyToFixpoint(root, rules)
	if o.Config.UseStats {
		root = o.reorderJoins(root)
		// Pushdown rules may re-apply after reordering moved filters.
		root = o.applyToFixpoint(root, rules)
	}
	root = o.selectJoinStrategies(root)
	root = o.pruneColumns(root)
	return root
}

func (o *Optimizer) applyToFixpoint(root plan.Node, rules []rule) plan.Node {
	for iter := 0; iter < 100; iter++ {
		changed := false
		root = o.rewriteBottomUp(root, func(n plan.Node) plan.Node {
			for _, r := range rules {
				if nn, ok := r(o, n); ok {
					changed = true
					n = nn
				}
			}
			return n
		})
		if !changed {
			break
		}
	}
	return root
}

// rewriteBottomUp rebuilds the tree applying fn to every node, children
// first.
func (o *Optimizer) rewriteBottomUp(n plan.Node, fn func(plan.Node) plan.Node) plan.Node {
	children := n.Children()
	if len(children) > 0 {
		newChildren := make([]plan.Node, len(children))
		changed := false
		for i, c := range children {
			nc := o.rewriteBottomUp(c, fn)
			newChildren[i] = nc
			if nc != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newChildren)
		}
	}
	return fn(n)
}
