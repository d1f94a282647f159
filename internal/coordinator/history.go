package coordinator

import (
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// History-based optimizer feedback, recording half (the lookup half lives in
// internal/optimizer): when a query finishes cleanly, the coordinator walks
// its fragment trees, maps every stamped operator's compile-time (local)
// cardinality fingerprint to the history (global) fingerprint — the one that
// folds in table data versions and resolves RemoteSource boundaries — and
// records the observed output cardinality per plan node. A repeat of the
// same plan shape over unchanged tables then reorders its joins from ground
// truth instead of selectivity guesses.

// recordHistory stores observed operator cardinalities for a finished query
// from its tasks' final stats. Remote tasks' operator stats stay on their
// workers (the status poll carries only coarse state), so a query on HTTP
// workers records nothing — a deliberate scope cut, not a correctness issue.
func (c *Coordinator) recordHistory(tasks []exec.TaskStats, dp *plan.DistributedPlan, session Session) {
	h := c.cfg.Optimizer.History
	if h == nil || session.Switches.Has(exec.DisableHBO) || dp == nil || len(tasks) == 0 {
		return
	}

	// Local fingerprint (what pipeline compilation stamped on OpStats) →
	// global fingerprint (what optimizer estimates look up). The global form
	// salts scans with table versions and hashes through RemoteSource to the
	// producer fragment's root, so a fragment-tree node matches the logical
	// node it was cut from.
	opts := optimizer.HistoryFingerprintOpts(c.Catalog, dp)
	globalOf := map[uint64]uint64{}
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			lf := plan.CardFingerprint(n, nil)
			if _, ok := globalOf[lf]; !ok {
				globalOf[lf] = plan.CardFingerprint(n, opts)
			}
		})
	}

	// Observed cardinality per local fingerprint: output rows summed across
	// every task (each task sees a partition of the node's rows), divided by
	// the per-fragment operator-instance count (a node can compile into
	// several pipelines of one task — e.g. both sides of a self-join — and
	// each instance observes the full per-task row flow). Instances are
	// counted on the first task of each fragment only; row sums include all.
	rows := map[uint64]int64{}
	inst := map[uint64]int{}
	firstOfFragment := map[int]bool{}
	for _, ts := range tasks {
		first := !firstOfFragment[ts.Fragment]
		firstOfFragment[ts.Fragment] = true
		for _, pl := range ts.Pipelines {
			for _, op := range pl.Operators {
				if op.PlanFP == 0 {
					continue
				}
				rows[op.PlanFP] += op.RowsOut
				if first {
					inst[op.PlanFP]++
				}
			}
		}
	}

	for lf, total := range rows {
		gf, ok := globalOf[lf]
		if !ok {
			continue // stamped node not in any fragment tree (should not happen)
		}
		n := inst[lf]
		if n <= 0 {
			n = 1
		}
		h.Record(gf, float64(total)/float64(n))
	}
}
