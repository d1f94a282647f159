package optimizer

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Fragment splits an optimized logical plan into stages connected by
// shuffles (paper §IV-C3, Fig. 3). Shuffles are introduced only where the
// child's partitioning cannot satisfy the parent's requirement: aggregations
// over data already hash-partitioned (or co-located joins over bucketed
// scans) run in place, partial aggregations/limits/topNs run in producer
// stages, and the root gathers to a single output stage.
func (o *Optimizer) Fragment(root plan.Node) *plan.DistributedPlan {
	fb := &fragBuilder{}
	out := fb.visit(o, root)
	// The root must be a single-task stage.
	if out.prop.kind != plan.PartitionSingle {
		out = fb.exchange(out, plan.Partitioning{Kind: plan.PartitionSingle})
	}
	rootID := fb.add(out.node, plan.Partitioning{Kind: plan.PartitionSingle})
	dp := &plan.DistributedPlan{Fragments: fb.frags, RootID: rootID}
	// Record each producer's consumer.
	for _, f := range fb.frags {
		plan.Walk(f.Root, func(n plan.Node) {
			if rs, ok := n.(*plan.RemoteSource); ok {
				for _, src := range rs.SourceFragments {
					fb.frags[src].OutputConsumer = f.ID
				}
			}
		})
	}
	dp.Fragment(rootID).OutputConsumer = -1
	if !o.Config.DisableDynamicFilters {
		assignDynamicFilters(dp)
	}
	return dp
}

// prop describes how a subtree's rows are distributed across tasks.
type prop struct {
	kind     plan.PartitioningKind
	hashCols []int // for PartitionHash: output column indices
	// bucketCols are output columns the data is bucketed on for SOURCE
	// partitioning over a bucketed layout (enables in-place aggregation).
	bucketCols []int
}

type sub struct {
	node plan.Node
	prop prop
}

type fragBuilder struct {
	frags []*plan.Fragment
}

func (fb *fragBuilder) add(root plan.Node, out plan.Partitioning) int {
	id := len(fb.frags)
	fb.frags = append(fb.frags, &plan.Fragment{ID: id, Root: root, OutputPartitioning: out, OutputConsumer: -1})
	return id
}

// exchange finalizes s as a fragment producing `out` partitioning and
// returns a sub rooted at a RemoteSource reading it.
func (fb *fragBuilder) exchange(s sub, out plan.Partitioning) sub {
	id := fb.add(s.node, out)
	rs := &plan.RemoteSource{SourceFragments: []int{id}, Out: s.node.Schema()}
	var p prop
	switch out.Kind {
	case plan.PartitionSingle:
		p = prop{kind: plan.PartitionSingle}
	case plan.PartitionHash:
		p = prop{kind: plan.PartitionHash, hashCols: out.Cols}
	default:
		p = prop{kind: out.Kind}
	}
	return sub{node: rs, prop: p}
}

func colRefs(sch plan.Schema) []expr.Expr {
	out := make([]expr.Expr, len(sch))
	for i, f := range sch {
		out[i] = &expr.ColumnRef{Index: i, T: f.T, Name: f.Name}
	}
	return out
}

func (fb *fragBuilder) visit(o *Optimizer, n plan.Node) sub {
	switch x := n.(type) {
	case *plan.Scan:
		p := prop{kind: plan.PartitionSource}
		// Bucketed layouts expose which output columns the data is
		// partitioned on.
		if o.Meta != nil {
			for _, l := range o.Meta.Layouts(x.Handle.Catalog, x.Handle.Table) {
				if l.Name != x.Handle.Layout || l.BucketCount == 0 {
					continue
				}
				var cols []int
				ok := true
				for _, name := range l.PartitionCols {
					idx := -1
					for i, c := range x.Columns {
						if c == name {
							idx = i
							break
						}
					}
					if idx < 0 {
						ok = false
						break
					}
					cols = append(cols, idx)
				}
				if ok {
					p.bucketCols = cols
				}
			}
		}
		return sub{node: x, prop: p}

	case *plan.Values:
		return sub{node: x, prop: prop{kind: plan.PartitionSingle}}

	case *plan.Filter:
		c := fb.visit(o, x.Input)
		return sub{node: &plan.Filter{Input: c.node, Predicate: x.Predicate}, prop: c.prop}

	case *plan.Project:
		c := fb.visit(o, x.Input)
		p := c.prop
		p.hashCols = remapThroughProject(x, c.prop.hashCols)
		p.bucketCols = remapThroughProject(x, c.prop.bucketCols)
		if c.prop.kind == plan.PartitionHash && p.hashCols == nil {
			p.kind = plan.PartitionRoundRobin // partitioning columns projected away
		}
		return sub{node: &plan.Project{Input: c.node, Exprs: x.Exprs, Out: x.Out}, prop: p}

	case *plan.Limit:
		c := fb.visit(o, x.Input)
		if c.prop.kind == plan.PartitionSingle {
			return sub{node: &plan.Limit{Input: c.node, N: x.N, Offset: x.Offset}, prop: c.prop}
		}
		partial := &plan.Limit{Input: c.node, N: x.N + x.Offset, Partial: true}
		g := fb.exchange(sub{node: partial, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionSingle})
		return sub{node: &plan.Limit{Input: g.node, N: x.N, Offset: x.Offset}, prop: g.prop}

	case *plan.TopN:
		c := fb.visit(o, x.Input)
		if c.prop.kind == plan.PartitionSingle {
			return sub{node: &plan.TopN{Input: c.node, Keys: x.Keys, N: x.N}, prop: c.prop}
		}
		partial := &plan.TopN{Input: c.node, Keys: x.Keys, N: x.N}
		g := fb.exchange(sub{node: partial, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionSingle})
		return sub{node: &plan.TopN{Input: g.node, Keys: x.Keys, N: x.N}, prop: g.prop}

	case *plan.Sort:
		c := fb.visit(o, x.Input)
		if c.prop.kind != plan.PartitionSingle {
			c = fb.exchange(c, plan.Partitioning{Kind: plan.PartitionSingle})
		}
		return sub{node: &plan.Sort{Input: c.node, Keys: x.Keys}, prop: c.prop}

	case *plan.EnforceSingleRow:
		c := fb.visit(o, x.Input)
		if c.prop.kind != plan.PartitionSingle {
			c = fb.exchange(c, plan.Partitioning{Kind: plan.PartitionSingle})
		}
		return sub{node: &plan.EnforceSingleRow{Input: c.node}, prop: c.prop}

	case *plan.Aggregation:
		return fb.visitAggregation(o, x)

	case *plan.Window:
		c := fb.visit(o, x.Input)
		if len(x.PartitionBy) == 0 {
			if c.prop.kind != plan.PartitionSingle {
				c = fb.exchange(c, plan.Partitioning{Kind: plan.PartitionSingle})
			}
		} else if !(c.prop.kind == plan.PartitionHash && equalCols(c.prop.hashCols, x.PartitionBy)) &&
			c.prop.kind != plan.PartitionSingle {
			c = fb.exchange(c, plan.Partitioning{Kind: plan.PartitionHash, Cols: x.PartitionBy})
		}
		w := *x
		w.Input = c.node
		return sub{node: &w, prop: c.prop}

	case *plan.Union:
		// Each branch becomes a producer fragment; the consuming exchange
		// concatenates them (a multi-source RemoteSource is a union).
		var ids []int
		for _, in := range x.Inputs {
			c := fb.visit(o, in)
			ids = append(ids, fb.add(c.node, plan.Partitioning{Kind: plan.PartitionRoundRobin}))
		}
		rs := &plan.RemoteSource{SourceFragments: ids, Out: x.Schema()}
		return sub{node: rs, prop: prop{kind: plan.PartitionRoundRobin}}

	case *plan.Join:
		return fb.visitJoin(o, x)

	case *plan.TableWrite:
		c := fb.visit(o, x.Input)
		// Writers run as their own stage behind a round-robin exchange so
		// the engine can scale writer concurrency independently of the
		// producing stage (§IV-E3).
		w := fb.exchange(c, plan.Partitioning{Kind: plan.PartitionRoundRobin})
		write := &plan.TableWrite{Input: w.node, Catalog: x.Catalog, Table: x.Table, Out: x.Out}
		g := fb.exchange(sub{node: write, prop: w.prop}, plan.Partitioning{Kind: plan.PartitionSingle})
		// Sum the per-task row counts.
		agg := &plan.Aggregation{
			Input: g.node,
			Aggregates: []plan.Aggregate{{
				Func: plan.AggSum,
				Arg:  &expr.ColumnRef{Index: 0, T: types.Bigint, Name: "rows"},
				Out:  types.Bigint,
			}},
			Step: plan.AggSingle,
			Out:  x.Out,
		}
		return sub{node: agg, prop: g.prop}

	case *plan.Output:
		c := fb.visit(o, x.Input)
		if c.prop.kind != plan.PartitionSingle {
			c = fb.exchange(c, plan.Partitioning{Kind: plan.PartitionSingle})
		}
		return sub{node: &plan.Output{Input: c.node, Names: x.Names}, prop: c.prop}

	default:
		panic(fmt.Sprintf("fragmenter: unsupported node %T", n))
	}
}

// remapThroughProject maps child column indices through a projection's
// pass-through references; nil if any column is computed (not a plain ref).
func remapThroughProject(p *plan.Project, cols []int) []int {
	if cols == nil {
		return nil
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		found := -1
		for oi, e := range p.Exprs {
			if cr, ok := e.(*expr.ColumnRef); ok && cr.Index == c {
				found = oi
				break
			}
		}
		if found < 0 {
			return nil
		}
		out[i] = found
	}
	return out
}

func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// visitAggregation plans single-step, two-step (partial+final), or in-place
// aggregation depending on the child's partitioning (§IV-C3).
func (fb *fragBuilder) visitAggregation(o *Optimizer, agg *plan.Aggregation) sub {
	c := fb.visit(o, agg.Input)
	ng := len(agg.GroupBy)

	// Compute group keys and aggregate arguments as columns first.
	var projExprs []expr.Expr
	var projOut plan.Schema
	for i, g := range agg.GroupBy {
		projExprs = append(projExprs, g)
		projOut = append(projOut, plan.Field{Name: fmt.Sprintf("_k%d", i), T: g.Type()})
	}
	// An argument that more than one aggregate reads is projected once, when
	// it is deterministic: the same expression over the same row. A masked
	// argument is evaluated at its mask's rows only, so it is shared only
	// under the same mask and ELSE; the columns a mask reads are projected as
	// they are, and the mask reads them there.
	argAt := map[string]int{}
	project := func(e expr.Expr, key, name string) int {
		if c, ok := argAt[key]; ok && key != "" {
			return c
		}
		if key != "" {
			argAt[key] = len(projExprs)
		}
		projExprs = append(projExprs, e)
		projOut = append(projOut, plan.Field{Name: name, T: e.Type()})
		return len(projExprs) - 1
	}
	argCol := make([]int, len(agg.Aggregates))
	for i, a := range agg.Aggregates {
		argCol[i] = -1
		if a.Arg == nil {
			continue
		}
		key := ""
		if expr.IsDeterministic(a.Arg) && (a.Mask == nil || expr.IsDeterministic(a.Mask)) {
			key = expr.CanonicalKey(a.Arg)
			if a.Mask != nil {
				key += " mask " + expr.CanonicalKey(a.Mask)
				if a.Else != nil {
					key += " else " + expr.CanonicalKey(a.Else)
				}
			}
		}
		argCol[i] = project(a.Arg, key, fmt.Sprintf("_a%d", i))
	}
	masks := make([]expr.Expr, len(agg.Aggregates))
	colMask := map[int]plan.Aggregate{} // a masked argument's column: its mask and ELSE
	for i, a := range agg.Aggregates {
		if a.Mask == nil {
			continue
		}
		masks[i] = expr.Rewrite(a.Mask, func(x expr.Expr) expr.Expr {
			c, ok := x.(*expr.ColumnRef)
			if !ok {
				return nil
			}
			at := project(c, expr.CanonicalKey(c), fmt.Sprintf("_m%d", i))
			return &expr.ColumnRef{Index: at, T: c.T, Name: projOut[at].Name}
		})
		colMask[argCol[i]] = plan.Aggregate{Mask: masks[i], Else: a.Else}
	}
	proj := &plan.Project{Input: c.node, Exprs: projExprs, Out: projOut}

	groupKeyCols := make([]int, ng)
	for i := range groupKeyCols {
		groupKeyCols[i] = i
	}
	// Rewritten single-step aggregation over the projection.
	mkSingle := func(input plan.Node) *plan.Aggregation {
		aggs := make([]plan.Aggregate, len(agg.Aggregates))
		for i, a := range agg.Aggregates {
			aggs[i] = plan.Aggregate{Func: a.Func, Distinct: a.Distinct, Out: a.Out, Mask: masks[i], Else: a.Else}
			if argCol[i] >= 0 {
				aggs[i].Arg = &expr.ColumnRef{Index: argCol[i], T: a.Arg.Type(), Name: projOut[argCol[i]].Name}
			}
		}
		keys := make([]expr.Expr, ng)
		for i := 0; i < ng; i++ {
			keys[i] = &expr.ColumnRef{Index: i, T: projOut[i].T, Name: projOut[i].Name}
		}
		return &plan.Aggregation{Input: input, GroupBy: keys, Aggregates: aggs, Step: plan.AggSingle, Out: agg.Out}
	}

	hasDistinct := false
	for _, a := range agg.Aggregates {
		if a.Distinct {
			hasDistinct = true
		}
	}

	// In-place single step: child already partitioned on the group keys.
	inPlace := c.prop.kind == plan.PartitionSingle
	if !inPlace && ng > 0 {
		childKeyCols := traceProjCols(proj, groupKeyCols)
		if childKeyCols != nil {
			if c.prop.kind == plan.PartitionHash && equalCols(c.prop.hashCols, childKeyCols) {
				inPlace = true
			}
			if c.prop.kind == plan.PartitionSource && equalCols(c.prop.bucketCols, childKeyCols) {
				inPlace = true
			}
		}
	}
	if inPlace {
		return sub{node: mkSingle(proj), prop: c.prop}
	}

	if hasDistinct {
		// DISTINCT aggregates cannot be split: shuffle raw rows on the
		// group keys, then aggregate once.
		var g sub
		if ng > 0 {
			g = fb.exchange(sub{node: proj, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionHash, Cols: groupKeyCols})
		} else {
			g = fb.exchange(sub{node: proj, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionSingle})
		}
		return sub{node: mkSingle(g.node), prop: g.prop}
	}

	// Two-step: partial in the child fragment, exchange, final, post-project.
	var partialAggs, finalAggs []plan.Aggregate
	var partialOut plan.Schema
	// Per original aggregate: final output column(s) in the final agg.
	type slot struct{ sumCol, cntCol int } // cntCol < 0 except for avg
	slots := make([]slot, len(agg.Aggregates))
	for i := 0; i < ng; i++ {
		partialOut = append(partialOut, projOut[i])
	}
	// A partial aggregate is computed once for every final slot that needs
	// it: the same function of the same argument column to the same type.
	// avg's sum and count count too: avg(x) beside count(x), or beside a
	// double sum(x), shares that partial.
	type partialKey struct {
		fn  plan.AggFunc
		col int
		out types.Type
	}
	partialAt := map[partialKey]int{}
	addPartial := func(fn plan.AggFunc, col int, outT types.Type) int {
		k := partialKey{fn, col, outT}
		if idx, ok := partialAt[k]; ok {
			return idx
		}
		idx := ng + len(partialAggs)
		partialAt[k] = idx
		a := plan.Aggregate{Func: fn, Out: outT}
		if col >= 0 {
			a.Arg = &expr.ColumnRef{Index: col, T: projOut[col].T, Name: projOut[col].Name}
			if m, ok := colMask[col]; ok {
				a.Mask, a.Else = m.Mask, m.Else
			}
		}
		partialAggs = append(partialAggs, a)
		partialOut = append(partialOut, plan.Field{Name: fmt.Sprintf("_p%d", idx), T: outT})
		return idx
	}
	for i, a := range agg.Aggregates {
		switch a.Func {
		case plan.AggCount, plan.AggCountAll:
			slots[i] = slot{sumCol: addPartial(a.Func, argCol[i], types.Bigint), cntCol: -1}
		case plan.AggSum, plan.AggMin, plan.AggMax:
			slots[i] = slot{sumCol: addPartial(a.Func, argCol[i], a.Out), cntCol: -1}
		case plan.AggAvg:
			sumT := types.Double
			slots[i] = slot{
				sumCol: addPartial(plan.AggSum, argCol[i], sumT),
				cntCol: addPartial(plan.AggCount, argCol[i], types.Bigint),
			}
		}
	}
	partial := &plan.Aggregation{
		Input:      proj,
		GroupBy:    colRefs(projOut[:ng]),
		Aggregates: append([]plan.Aggregate{}, partialAggs...),
		Step:       plan.AggPartial,
		Out:        partialOut,
	}

	var g sub
	if ng > 0 {
		g = fb.exchange(sub{node: partial, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionHash, Cols: groupKeyCols})
	} else {
		g = fb.exchange(sub{node: partial, prop: c.prop}, plan.Partitioning{Kind: plan.PartitionSingle})
	}

	// Final aggregation merges partials: counts become sums, sums stay
	// sums, min/max stay min/max.
	finalOut := append(plan.Schema{}, partialOut...)
	for _, pa := range partialAggs {
		fn := pa.Func
		if fn == plan.AggCount || fn == plan.AggCountAll {
			// Merge partial counts with count_merge, not sum: SUM over zero
			// rows is NULL, but COUNT over an empty input must be 0.
			fn = plan.AggCountMerge
		}
		finalAggs = append(finalAggs, plan.Aggregate{Func: fn, Arg: nil, Out: pa.Out})
	}
	// Args of final aggs refer to the partial output columns.
	for i := range finalAggs {
		col := ng + i
		finalAggs[i].Arg = &expr.ColumnRef{Index: col, T: partialOut[col].T, Name: partialOut[col].Name}
	}
	final := &plan.Aggregation{
		Input:      g.node,
		GroupBy:    colRefs(partialOut[:ng]),
		Aggregates: finalAggs,
		Step:       plan.AggFinal,
		Out:        finalOut,
	}
	partial.Est, final.Est = o.groupEstimates(agg)

	// Post-projection restores the original output: groups, then one column
	// per original aggregate (computing avg = sum/count).
	var postExprs []expr.Expr
	for i := 0; i < ng; i++ {
		postExprs = append(postExprs, &expr.ColumnRef{Index: i, T: finalOut[i].T, Name: finalOut[i].Name})
	}
	for i, a := range agg.Aggregates {
		s := slots[i]
		if a.Func == plan.AggAvg {
			sum := &expr.ColumnRef{Index: s.sumCol, T: finalOut[s.sumCol].T, Name: "sum"}
			cnt := &expr.ColumnRef{Index: s.cntCol, T: finalOut[s.cntCol].T, Name: "cnt"}
			postExprs = append(postExprs, &expr.Arith{
				Op: expr.OpDiv,
				L:  sum,
				R:  &expr.Cast{E: cnt, T: types.Double},
				T:  types.Double,
			})
		} else {
			postExprs = append(postExprs, &expr.ColumnRef{Index: s.sumCol, T: finalOut[s.sumCol].T, Name: agg.Out[ng+i].Name})
		}
	}
	post := &plan.Project{Input: final, Exprs: postExprs, Out: agg.Out}
	return sub{node: post, prop: g.prop}
}

// groupEstimates is what the partial and the final step cut from agg expect:
// the NDV product of agg's keys capped by its input rows, when every key is a
// column of one scan — the partial step draws them from all the input rows,
// the final step splits them. Otherwise nil, and always for a global
// aggregation, whose one group needs no sizing.
func (o *Optimizer) groupEstimates(agg *plan.Aggregation) (pe, fe *plan.GroupEstimate) {
	if len(agg.GroupBy) == 0 || !o.Config.UseStats {
		return nil, nil
	}
	if groups, rows := o.groupNDV(agg), o.estimateRows(agg.Input); groups > 0 && rows >= 0 {
		groups = min(groups, rows)
		pe = &plan.GroupEstimate{Groups: groups, Rows: rows, Source: plan.EstStats}
		fe = &plan.GroupEstimate{Groups: groups, Source: plan.EstStats}
	}
	return pe, fe
}

// traceProjCols maps projection output columns back to input columns (nil if
// computed).
func traceProjCols(p *plan.Project, cols []int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		cr, ok := p.Exprs[c].(*expr.ColumnRef)
		if !ok {
			return nil
		}
		out[i] = cr.Index
	}
	return out
}

// visitJoin plans joins per the strategy chosen by the optimizer.
func (fb *fragBuilder) visitJoin(o *Optimizer, j *plan.Join) sub {
	switch j.Strategy {
	case plan.StrategyColocated:
		l := fb.visit(o, j.Left)
		r := fb.visit(o, j.Right)
		nj := *j
		nj.Left, nj.Right = l.node, r.node
		return sub{node: &nj, prop: l.prop}

	case plan.StrategyIndex:
		l := fb.visit(o, j.Left)
		// The right side stays embedded as a Scan handle: the executor
		// probes the connector index directly; no build fragment exists.
		nj := *j
		nj.Left = l.node
		return sub{node: &nj, prop: l.prop}

	case plan.StrategyPartitioned:
		l := fb.visit(o, j.Left)
		r := fb.visit(o, j.Right)
		leftKeys := equiCols(j, true)
		rightKeys := equiCols(j, false)
		// Shuffle reduction: a side already hash-partitioned on its keys
		// stays in place.
		if !(l.prop.kind == plan.PartitionHash && equalCols(l.prop.hashCols, leftKeys)) {
			l = fb.exchange(l, plan.Partitioning{Kind: plan.PartitionHash, Cols: leftKeys})
		}
		if !(r.prop.kind == plan.PartitionHash && equalCols(r.prop.hashCols, rightKeys)) {
			r = fb.exchange(r, plan.Partitioning{Kind: plan.PartitionHash, Cols: rightKeys})
		}
		nj := *j
		nj.Left, nj.Right = l.node, r.node
		return sub{node: &nj, prop: prop{kind: plan.PartitionHash, hashCols: leftKeys}}

	default: // StrategyBroadcast (and unset)
		l := fb.visit(o, j.Left)
		r := fb.visit(o, j.Right)
		r = fb.exchange(r, plan.Partitioning{Kind: plan.PartitionBroadcast})
		nj := *j
		nj.Left, nj.Right = l.node, r.node
		if nj.Strategy == plan.StrategyUnset {
			nj.Strategy = plan.StrategyBroadcast
		}
		return sub{node: &nj, prop: l.prop}
	}
}
