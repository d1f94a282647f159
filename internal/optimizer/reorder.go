package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// Join re-ordering (paper §IV-C): chains of inner equi-joins are flattened
// into a multi-join of relations plus predicates, then rebuilt greedily —
// start from the pair with the smallest estimated output and repeatedly join
// the relation that yields the smallest intermediate result. A final
// projection restores the original column order. Runs only when statistics
// are available for every base relation.

// multiJoin is the flattened form.
type multiJoin struct {
	rels []plan.Node
	// preds are equality predicates between relations, expressed in global
	// column coordinates (concatenation of all rels in order).
	equis     []globalEqui
	residuals []expr.Expr // non-equi conjuncts over global coordinates
	offsets   []int       // global offset of each relation
}

type globalEqui struct {
	relA, colA int
	relB, colB int
}

// reorderJoins rewrites every maximal inner-join chain in the tree.
func (o *Optimizer) reorderJoins(root plan.Node) plan.Node {
	return o.rewriteBottomUp(root, func(n plan.Node) plan.Node {
		j, ok := n.(*plan.Join)
		if !ok || j.Type != plan.InnerJoin {
			return n
		}
		// Only reorder the topmost join of a chain: if the parent is also
		// an inner join this node will be absorbed when the parent is
		// visited. Since we rewrite bottom-up, detect chains lazily: flatten
		// from here; nested joins below are included.
		// Two-relation "chains" still go through buildGreedy: it cannot
		// change the join order, but it orients the pair so the smaller
		// estimated side becomes the build (right) input. The syntactic
		// order FROM big JOIN small would otherwise build on the big side —
		// a larger hash table, and any dynamic filter flows backwards
		// (collected over the big build, pruning the already-small probe).
		mj := flattenJoin(j)
		if mj == nil || len(mj.rels) < 2 {
			return n
		}
		for _, r := range mj.rels {
			if o.estimateRows(r) < 0 {
				return n // no stats: keep syntactic order
			}
		}
		reordered := o.buildGreedy(mj)
		if reordered == nil {
			return n
		}
		return reordered
	})
}

// flattenJoin collects the relations and predicates of a chain of inner
// equi-joins. Returns nil if the tree contains constructs that cannot be
// reordered safely (outer joins handled by not descending into them).
func flattenJoin(j *plan.Join) *multiJoin {
	mj := &multiJoin{}
	var flatten func(n plan.Node) bool
	flatten = func(n plan.Node) bool {
		if jn, ok := n.(*plan.Join); ok && jn.Type == plan.InnerJoin && jn.Strategy == plan.StrategyUnset {
			leftW := len(jn.Left.Schema())
			relsBefore := len(mj.rels)
			offBefore := 0
			if len(mj.offsets) > 0 {
				offBefore = mj.offsets[len(mj.offsets)-1] + len(mj.rels[len(mj.rels)-1].Schema())
			}
			_ = relsBefore
			_ = offBefore
			if !flatten(jn.Left) {
				return false
			}
			rightStart := globalWidth(mj)
			if !flatten(jn.Right) {
				return false
			}
			// Translate this join's clauses into global coordinates: left
			// columns are relative to the flattened left subtree (which
			// begins at the offset where we started), right relative to
			// rightStart.
			leftStart := rightStart - leftW
			for _, eq := range jn.Equi {
				ra, ca := locate(mj, leftStart+eq.Left)
				rb, cb := locate(mj, rightStart+eq.Right)
				mj.equis = append(mj.equis, globalEqui{ra, ca, rb, cb})
			}
			if jn.Residual != nil {
				shifted := expr.Rewrite(jn.Residual, func(e expr.Expr) expr.Expr {
					if cr, ok := e.(*expr.ColumnRef); ok {
						idx := cr.Index
						if idx < leftW {
							idx += leftStart
						} else {
							idx = rightStart + (idx - leftW)
						}
						return &expr.ColumnRef{Index: idx, T: cr.T, Name: cr.Name}
					}
					return nil
				})
				mj.residuals = append(mj.residuals, shifted)
			}
			return true
		}
		mj.offsets = append(mj.offsets, globalWidth(mj))
		mj.rels = append(mj.rels, n)
		return true
	}
	if !flatten(j) {
		return nil
	}
	return mj
}

func globalWidth(mj *multiJoin) int {
	if len(mj.rels) == 0 {
		return 0
	}
	return mj.offsets[len(mj.rels)-1] + len(mj.rels[len(mj.rels)-1].Schema())
}

// locate maps a global column index to (relation, local column).
func locate(mj *multiJoin, global int) (int, int) {
	for i := len(mj.rels) - 1; i >= 0; i-- {
		if global >= mj.offsets[i] {
			return i, global - mj.offsets[i]
		}
	}
	return 0, global
}

// buildGreedy reconstructs the join tree smallest-first.
func (o *Optimizer) buildGreedy(mj *multiJoin) plan.Node {
	n := len(mj.rels)
	type piece struct {
		node plan.Node
		// colmap maps (rel, col) → output index of this piece.
		colmap map[[2]int]int
		rels   map[int]bool
		rows   float64
	}
	pieces := make([]*piece, n)
	for i, r := range mj.rels {
		cm := map[[2]int]int{}
		for c := 0; c < len(r.Schema()); c++ {
			cm[[2]int{i, c}] = c
		}
		pieces[i] = &piece{node: r, colmap: cm, rels: map[int]bool{i: true}, rows: o.estimateRows(r)}
	}
	remaining := map[*piece]bool{}
	for _, p := range pieces {
		remaining[p] = true
	}

	// connects reports the equi clauses between two pieces.
	connects := func(a, b *piece) []globalEqui {
		var out []globalEqui
		for _, eq := range mj.equis {
			if (a.rels[eq.relA] && b.rels[eq.relB]) || (a.rels[eq.relB] && b.rels[eq.relA]) {
				out = append(out, eq)
			}
		}
		return out
	}

	// indexable reports whether p is a bare scan with a connector index on
	// its side of the connecting clauses. Such a side must end up on the
	// build (right) input regardless of row estimates: the strategy pass
	// turns it into an index join, which never builds a hash table at all.
	indexable := func(p *piece, eqs []globalEqui) bool {
		scan, ok := p.node.(*plan.Scan)
		if !ok || o.Meta == nil {
			return false
		}
		cols := make([]string, 0, len(eqs))
		for _, eq := range eqs {
			r, c := eq.relB, eq.colB
			if !p.rels[r] {
				r, c = eq.relA, eq.colA
			}
			idx := p.colmap[[2]int{r, c}]
			if idx >= len(scan.Columns) {
				return false
			}
			cols = append(cols, scan.Columns[idx])
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
				return true
			}
		}
		return false
	}

	joinPieces := func(a, b *piece, eqs []globalEqui) *piece {
		leftW := len(a.node.Schema())
		var clauses []plan.EquiClause
		for _, eq := range eqs {
			ra, ca, rb, cb := eq.relA, eq.colA, eq.relB, eq.colB
			if !a.rels[ra] {
				ra, ca, rb, cb = eq.relB, eq.colB, eq.relA, eq.colA
			}
			clauses = append(clauses, plan.EquiClause{Left: a.colmap[[2]int{ra, ca}], Right: b.colmap[[2]int{rb, cb}]})
		}
		out := append(append(plan.Schema{}, a.node.Schema()...), b.node.Schema()...)
		j := &plan.Join{Type: plan.InnerJoin, Left: a.node, Right: b.node, Equi: clauses, Out: out}
		if len(clauses) == 0 {
			j.Type = plan.CrossJoin
		}
		cm := map[[2]int]int{}
		for k, v := range a.colmap {
			cm[k] = v
		}
		for k, v := range b.colmap {
			cm[k] = leftW + v
		}
		rels := map[int]bool{}
		for r := range a.rels {
			rels[r] = true
		}
		for r := range b.rels {
			rels[r] = true
		}
		return &piece{node: j, colmap: cm, rels: rels, rows: o.estimateRows(j)}
	}

	for len(remaining) > 1 {
		var bestA, bestB *piece
		bestRows := -1.0
		bestConnected := false
		for a := range remaining {
			for b := range remaining {
				if a == b {
					continue
				}
				eqs := connects(a, b)
				connected := len(eqs) > 0
				if bestConnected && !connected {
					continue
				}
				// Estimate: joined output; prefer connected pairs, prefer
				// the smaller build (right) side.
				est := a.rows * b.rows
				if connected {
					bigger := a.rows
					if b.rows > bigger {
						bigger = b.rows
					}
					est = bigger
				}
				if bestRows < 0 || (connected && !bestConnected) || est < bestRows {
					// Put the larger side on the left (probe), smaller on
					// the right (build) — unless one side carries a
					// matching connector index, which must stay on the
					// right for the strategy pass to pick an index join.
					ia, ib := indexable(a, eqs), indexable(b, eqs)
					switch {
					case ia && !ib:
						bestA, bestB = b, a
					case ib && !ia:
						bestA, bestB = a, b
					case a.rows >= b.rows:
						bestA, bestB = a, b
					default:
						bestA, bestB = b, a
					}
					bestRows = est
					bestConnected = connected
				}
			}
		}
		joined := joinPieces(bestA, bestB, connects(bestA, bestB))
		delete(remaining, bestA)
		delete(remaining, bestB)
		remaining[joined] = true
	}
	var final *piece
	for p := range remaining {
		final = p
	}

	// Apply residual predicates on top.
	var node plan.Node = final.node
	if len(mj.residuals) > 0 {
		conjs := make([]expr.Expr, len(mj.residuals))
		for i, r := range mj.residuals {
			conjs[i] = expr.Rewrite(r, func(e expr.Expr) expr.Expr {
				if cr, ok := e.(*expr.ColumnRef); ok {
					rel, col := locate(mj, cr.Index)
					return &expr.ColumnRef{Index: final.colmap[[2]int{rel, col}], T: cr.T, Name: cr.Name}
				}
				return nil
			})
		}
		node = &plan.Filter{Input: node, Predicate: expr.AndAll(conjs)}
	}

	// Restore the original global column order with a projection.
	width := globalWidth(mj)
	exprs := make([]expr.Expr, width)
	out := make(plan.Schema, width)
	nodeSchema := node.Schema()
	for rel, r := range mj.rels {
		sch := r.Schema()
		for c := range sch {
			idx := final.colmap[[2]int{rel, c}]
			exprs[mj.offsets[rel]+c] = &expr.ColumnRef{Index: idx, T: nodeSchema[idx].T, Name: nodeSchema[idx].Name}
			out[mj.offsets[rel]+c] = sch[c]
		}
	}
	return &plan.Project{Input: node, Exprs: exprs, Out: out}
}
