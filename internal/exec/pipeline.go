package exec

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/connector"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// ConnectorRegistry resolves catalog names to connectors; the worker's host
// (cluster or server) provides it.
type ConnectorRegistry interface {
	Connector(catalog string) (connector.Connector, error)
}

// sourceKind classifies how a pipeline's drivers obtain input.
type sourceKind int

const (
	srcScan sourceKind = iota
	srcExchange
	srcValues
)

// pipeTemplate is one compiled pipeline of a fragment: a source plus the
// factories that create the downstream operator chain per driver. It is part
// of a CompiledFragment, so every task that runs the fragment shares it and
// nothing writes it after compilation.
type pipeTemplate struct {
	id     int
	source sourceKind

	// srcScan
	scanID   int
	handle   plan.TableHandle // its constraint's lifted bounds are bound per task
	scanCols []string
	scanNode *plan.Scan // output schema
	subs     []dynSub   // the scan's dynamic-filter subscriptions, without stats

	// srcExchange
	exchangeFragments []int

	// srcValues
	values *plan.Values

	// names labels each operator position's stats, index 0 the source, and
	// factories build the per-driver operator chain after the source.
	names     []string
	factories []opFactory
	// aggs are the hash aggregations with a group estimate, by position.
	aggs []aggSite

	// build is the join (CompiledFragment.joins) whose table the pipeline
	// builds, -1 none; probes are those it probes.
	build  int
	probes []int

	// hasWriter marks pipelines containing a table writer (adaptive
	// scaling candidates).
	hasWriter bool
}

// aggSite is a hash aggregation at operator position pos with a group
// estimate, which each task divides among its instances.
type aggSite struct {
	pos int
	est *plan.GroupEstimate
}

// pipelineSpec is one pipeline of a task: its template, and what the task
// keeps for it.
type pipelineSpec struct {
	*pipeTemplate

	// srcScan
	constraint *plan.Domain // the scan's constraint, bound to the task's literals
	morsels    *morselQueue // the scan's splits, which every driver of the pipeline drains
	dynSubs    []dynSub     // the scan's dynamic-filter subscriptions, with the task's stats

	// opStats holds one shared stats object per operator position (index 0
	// is the source); every driver of the pipeline writes into the same
	// objects, so task-level rollup is a snapshot, not a merge.
	opStats []*operators.OpStats

	// bridge bookkeeping: bridges this pipeline builds into / probes.
	buildBridge  *operators.JoinBridge
	probeBridges []*operators.JoinBridge

	// exchangeClient is the shared client for srcExchange pipelines.
	exchangeClient *shuffle.ExchangeClient
	scaledAt       atomic.Int64 // unix nanoseconds of the last look at a writer's backlog
	// noMoreDrivers records that the pipeline starts no more drivers.
	noMoreDrivers bool

	// driver counters, guarded by the owning task's mu.
	driversStarted int
	driversDone    int
}

// mkOps builds one driver's operator chain after the source.
func (p *pipelineSpec) mkOps(ctx *driverCtx) ([]operators.Operator, error) {
	ctx.pipe = p
	ops := make([]operators.Operator, 0, len(p.factories))
	for i, f := range p.factories {
		ctx.stats = p.opStats[i+1]
		ctx.last = nil
		op, err := f(ctx)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		ctx.ctxs = append(ctx.ctxs, ctx.last)
	}
	ctx.stats = nil
	return ops, nil
}

// sourceName labels the pipeline's source operator position for stats.
func (p *pipeTemplate) sourceName() string {
	switch p.source {
	case srcScan:
		return "TableScan"
	case srcExchange:
		return "ExchangeSource"
	case srcValues:
		return "Values"
	}
	return "Source"
}

// driverCtx is passed to factories when instantiating a driver's operators.
// mkOps points stats at the pipeline's shared per-operator stats object
// before invoking each factory, and collects the contexts the factories
// create so the driver can sample memory and attribute time.
type driverCtx struct {
	task  *Task
	pipe  *pipelineSpec
	stats *operators.OpStats
	last  *operators.OpContext
	ctxs  []*operators.OpContext
}

func (d *driverCtx) opCtx(kind memory.Kind) *operators.OpContext {
	st := d.stats
	if st == nil {
		st = &operators.OpStats{}
	}
	c := &operators.OpContext{
		Mem:   memory.NewLocalContext(d.task.queryMem, d.task.nodeID, kind),
		Stats: st,
	}
	d.last = c
	return c
}

// compiler translates a fragment's plan tree into pipelines. Nothing it
// produces belongs to a task: what a task keeps of its own — join bridges,
// processors, literals — a factory takes from the driverCtx.
type compiler struct {
	pipelines   []*pipeTemplate
	scans       []*plan.Scan
	joins       []*joinSpec
	params      []paramSpec
	pageSize    int
	interpreted bool

	// published holds the filters a join of the fragment publishes, as
	// compilation learns where they test rows.
	published []placedFilter
}

// placedFilter is one filter a join of the fragment publishes: direct is the
// scan that feeds the join through nothing but Filter/Project, in one
// pipeline — the join's lookup tests that scan's rows as a row test would —
// and rowTested records that some scan of the fragment tests rows by it.
type placedFilter struct {
	id        int
	direct    *plan.Scan
	rowTested bool
}

// opFactory builds one operator for a driver.
type opFactory func(ctx *driverCtx) (operators.Operator, error)

// chain accumulates named factories for the pipeline being built.
type chain struct {
	c         *compiler
	spec      *pipeTemplate
	names     []string
	factories []opFactory
	// dynScan is the pipeline's scan while it has row-tested dynamic-filter
	// subscriptions and nothing has been placed on it yet: whatever is
	// appended next applies their row predicates.
	dynScan *plan.Scan
}

func (c *chain) append(name string, f opFactory) {
	if sc := c.dynScan; sc != nil {
		// Not a filter or a projection: an identity processor goes between,
		// which hands on untouched a page the filters drop nothing from.
		c.appendProcessor(nil, identityExprs(sc.Schema()), nil)
	}
	c.names = append(c.names, name)
	c.factories = append(c.factories, f)
}

// appendProcessor appends the filter/project operator of pred (nil: none)
// and exprs. Placed directly on a scan that subscribes to dynamic filters, its
// processor runs them ahead of pred, over the one selection vector the page
// is gathered by.
func (c *chain) appendProcessor(pred expr.Expr, exprs []expr.Expr, masks []*expr.Mask) {
	dyn := c.dynScan != nil
	c.dynScan = nil
	c.append("FilterProject", filterProject(c.c.program(pred, exprs, masks), dyn))
}

// program compiles a filter, projection list and the projections' masks
// once for every task that runs the fragment: a lifted literal becomes a
// parameter, which each task's processors read from its own literals
// (Task.params).
func (c *compiler) program(pred expr.Expr, exprs []expr.Expr, masks []*expr.Mask) *expr.Program {
	pred, exprs, masks = c.parameterize(pred), slices.Clone(exprs), slices.Clone(masks)
	for i, e := range exprs {
		exprs[i] = c.parameterize(e)
	}
	for i, m := range masks {
		if m != nil {
			masks[i] = &expr.Mask{Pred: c.parameterize(m.Pred), Else: c.parameterize(m.Else)}
		}
	}
	if c.interpreted {
		return expr.InterpretedProgram(pred, exprs, masks)
	}
	return expr.CompileProgram(pred, exprs, masks)
}

// parameterize rewrites every slot-tagged constant of e as a Param.
func (c *compiler) parameterize(e expr.Expr) expr.Expr {
	lifted := false
	expr.Walk(e, func(x expr.Expr) {
		if k, ok := x.(*expr.Const); ok && k.Slot > 0 && !k.Val.Null {
			lifted = true
		}
	})
	if !lifted {
		return e
	}
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if k, ok := x.(*expr.Const); ok && k.Slot > 0 && !k.Val.Null {
			return &expr.Param{Index: c.param(k), T: k.Val.T}
		}
		return nil
	})
}

// param numbers a lifted constant's parameter: one per slot and type.
func (c *compiler) param(k *expr.Const) int {
	for i, p := range c.params {
		if p.slot == k.Slot && p.planned.T == k.Val.T {
			return i
		}
	}
	c.params = append(c.params, paramSpec{slot: k.Slot, planned: k.Val})
	return len(c.params) - 1
}

func (c *compiler) newPipeline() *chain {
	spec := &pipeTemplate{id: len(c.pipelines), build: -1}
	c.pipelines = append(c.pipelines, spec)
	return &chain{c: c, spec: spec}
}

func (c *chain) seal() {
	c.spec.names = append([]string{c.spec.sourceName()}, c.names...)
	c.spec.factories = c.factories
}

// inputReleaser is implemented by operators that can be done with an input
// page, and with every array under it, by the next time their NeedsInput is
// true: the hash aggregation (when AddInput returns), the lookup join (it
// gathers what it emits, and asks for no page while it has rows left to
// emit), a filter/project exactly when its own output is lent, and the hash
// sink — the partitioned output — exactly when it copies each row into its
// partition's page. Each method's comment says why it holds.
type inputReleaser interface {
	ReleasesInput() bool
}

// outputLender is implemented by the operators that can write their output
// into vectors they own and reuse: filter/project, the lookup join, the hash
// aggregation, and the morsel scan (a whole lazy lake page's columns decode
// into its scratch).
type outputLender interface {
	LendOutput(consumer operators.Operator)
}

// lendOutputs is the one place an operator is told its output pages are
// borrowed (DESIGN.md, "Who owns a page"): exactly when the operator placed
// after it releases its input. It walks the chain — source first — from the
// sink backwards, because whether a filter/project releases depends on
// whether it lends. The driver calls Output only when the next operator's
// NeedsInput is true, so that is the first moment lent vectors are written
// again. The operator chain is fixed by the plan shape, so this is a
// compile-time rule, evaluated where a driver's chain is put together
// (Task.startDriverLocked).
func lendOutputs(ops []operators.Operator) {
	for i := len(ops) - 2; i >= 0; i-- {
		lender, ok := ops[i].(outputLender)
		if !ok {
			continue
		}
		if next, ok := ops[i+1].(inputReleaser); ok && next.ReleasesInput() {
			lender.LendOutput(ops[i+1])
		}
	}
}

// compileFragment builds the pipelines of a fragment. The root pipeline's
// sink is the task's partitioned output.
func (c *compiler) compileFragment(f *plan.Fragment) error {
	root := c.newPipeline()
	node := f.Root
	// Output nodes only name columns; TableWrite and others execute.
	if out, ok := node.(*plan.Output); ok {
		node = out.Input
	}
	if err := c.compile(node, root); err != nil {
		return err
	}
	// Append the partitioned output sink.
	mode := operators.OutputSingle
	var hashCols []int
	switch f.OutputPartitioning.Kind {
	case plan.PartitionHash:
		mode = operators.OutputHash
		hashCols = f.OutputPartitioning.Cols
	case plan.PartitionBroadcast:
		mode = operators.OutputBroadcast
	case plan.PartitionRoundRobin:
		mode = operators.OutputRoundRobin
	}
	root.append("PartitionedOutput", partitionedOutput(mode, hashCols))
	root.seal()
	return nil
}

// compile appends operators for node to the pipeline being built, creating
// additional pipelines for join build sides.
func (c *compiler) compile(n plan.Node, pb *chain) error {
	switch x := n.(type) {
	case *plan.Scan:
		pb.spec.source = srcScan
		pb.spec.scanID = len(c.scans)
		pb.spec.handle = x.Handle
		pb.spec.scanCols = x.Columns
		pb.spec.scanNode = x
		c.scans = append(c.scans, x)
		for _, df := range x.DynFilters {
			sub := dynSub{ScanDynFilter: df, rowTested: true}
			if i := slices.IndexFunc(c.published, func(f placedFilter) bool { return f.id == df.ID }); i >= 0 {
				f := &c.published[i]
				sub.own, sub.rowTested = true, f.direct != x
				f.rowTested = f.rowTested || sub.rowTested
			}
			pb.spec.subs = append(pb.spec.subs, sub)
			if sub.rowTested {
				pb.dynScan = x
			}
		}
		return nil

	case *plan.RemoteSource:
		pb.spec.source = srcExchange
		pb.spec.exchangeFragments = x.SourceFragments
		return nil

	case *plan.Values:
		pb.spec.source = srcValues
		pb.spec.values = x
		return nil

	case *plan.Filter:
		// Fuse Filter with identity projection.
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		pb.appendProcessor(x.Predicate, identityExprs(x.Input.Schema()), nil)
		return nil

	case *plan.Project:
		return c.compileProject(x, pb, nil)

	case *plan.Limit:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		nRows, off := x.N, x.Offset
		if x.Partial {
			off = 0
		}
		pb.append("Limit", limitOp(nRows, off))
		return nil

	case *plan.Sort:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.Keys)
		pb.append("Sort", sortOp(cols, desc, c.pageSize))
		return nil

	case *plan.TopN:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.Keys)
		pb.append("TopN", topNOp(cols, desc, x.N))
		return nil

	case *plan.Window:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.OrderBy)
		funcs := slices.Clone(x.Funcs)
		for i := range funcs {
			if funcs[i].Arg != nil {
				funcs[i].Arg = c.parameterize(funcs[i].Arg)
			}
		}
		pb.append("Window", windowOp(x.PartitionBy, cols, desc, funcs, c.pageSize))
		return nil

	case *plan.EnforceSingleRow:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		pb.append("EnforceSingleRow", enforceSingleRow(x.Schema().Types()))
		return nil

	case *plan.Aggregation:
		masks, err := aggMasks(x)
		if err != nil {
			return err
		}
		var remap []int
		if masks != nil {
			// A masked argument is evaluated under its mask by the processor
			// of the projection that computes it.
			proj, ok := x.Input.(*plan.Project)
			if !ok {
				return fmt.Errorf("masked aggregate over %T, not the projection of its arguments", x.Input)
			}
			err = c.compileProject(proj, pb, masks)
		} else {
			remap, err = c.compileRead(x.Input, pb, func() []bool {
				reads := columnsRead(len(x.Input.Schema()), x.GroupBy...)
				for _, a := range x.Aggregates {
					for _, col := range expr.Columns(a.Arg) {
						reads[col] = true
					}
				}
				return reads
			})
		}
		if err != nil {
			return err
		}
		groupCols := make([]int, len(x.GroupBy))
		groupTs := make([]types.Type, len(x.GroupBy))
		for i, g := range x.GroupBy {
			cr, ok := g.(*expr.ColumnRef)
			if !ok {
				return fmt.Errorf("aggregation group key %d is not a column (fragmenter should have projected it)", i)
			}
			groupCols[i] = remapIndex(cr.Index, remap)
			groupTs[i] = cr.T
		}
		specs := make([]operators.AggSpec, len(x.Aggregates))
		for i, a := range x.Aggregates {
			spec := operators.AggSpec{Func: a.Func, ArgCol: -1, Distinct: a.Distinct, Out: a.Out}
			if a.Arg != nil {
				cr, ok := a.Arg.(*expr.ColumnRef)
				if !ok {
					return fmt.Errorf("aggregate argument %d is not a column", i)
				}
				spec.ArgCol = remapIndex(cr.Index, remap)
			}
			specs[i] = spec
		}
		pb.append("HashAggregation", hashAggregation(groupCols, groupTs, specs, x.Est, c.pageSize))
		if x.Est != nil {
			pb.spec.aggs = append(pb.spec.aggs, aggSite{pos: len(pb.factories), est: x.Est})
		}
		return nil

	case *plan.Join:
		_, err := c.compileJoin(x, pb, nil)
		return err

	case *plan.TableWrite:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		pb.spec.hasWriter = true
		pb.append("TableWriter", tableWriter(x.Catalog, x.Table))
		return nil

	case *plan.Output:
		return c.compile(x.Input, pb)

	default:
		return fmt.Errorf("pipeline compiler: unsupported node %T", n)
	}
}

// groupsPerInstance turns an aggregation's group estimate into the groups one
// of its instances in pipeline p should expect, and returns how many
// instances the pipeline runs in this task. The statement's instances are the
// stage's tasks times the pipeline's drivers. A partial step's instance (est
// has Rows) sees each of d keys with some probability and expects Cardenas'
// d·(1 − e^(−n/d)) of them, n being its share of the rows; any other step's
// instance gets an equal share of the groups, the shuffle having partitioned
// them by key. 0 when there is no estimate or no task count.
func (t *Task) groupsPerInstance(est *plan.GroupEstimate, p *pipelineSpec) (groups float64, drivers int) {
	drivers = 1
	if p.source == srcScan {
		drivers = t.scanDrivers()
	}
	var tasks int
	if f := t.ID.Fragment; f < len(t.cfg.StageTasks) {
		tasks = t.cfg.StageTasks[f]
	}
	if est == nil || tasks <= 0 || drivers <= 0 || !(est.Groups >= 1) || math.IsInf(est.Groups, 0) {
		return 0, drivers
	}
	instances := float64(tasks * drivers)
	per := est.Groups / instances
	if est.Rows > 0 {
		per = -est.Groups * math.Expm1(-est.Rows/instances/est.Groups)
	}
	return min(per, 1<<30), drivers
}

// compileProject fuses Project*(Filter?(y)) into one page processor: stacked
// projections compose into one list over the bottom input, so a computed
// column reads the source page through the selection vector and no
// intermediate page exists. masks, when not nil, holds a mask over x's output
// for each of its columns a masked aggregate reads (aggMasks); it is rewritten
// over the bottom input with the projections.
func (c *compiler) compileProject(x *plan.Project, pb *chain, masks []*expr.Mask) error {
	exprs, input := x.Exprs, x.Input
	for {
		inner, ok := input.(*plan.Project)
		if !ok {
			break
		}
		composed, ok := composeProjections(exprs, inner.Exprs)
		if !ok {
			break
		}
		exprs, input = composed, inner.Input
	}
	var pred expr.Expr
	if f, ok := input.(*plan.Filter); ok {
		pred = f.Predicate
		input = f.Input
	}
	masks = slices.Clone(masks)
	for i, m := range masks {
		if m != nil {
			masks[i] = &expr.Mask{Pred: expr.Rewrite(m.Pred, func(e expr.Expr) expr.Expr {
				if c, ok := e.(*expr.ColumnRef); ok {
					return exprs[c.Index]
				}
				return nil
			}), Else: m.Else}
		}
	}
	remap, err := c.compileRead(input, pb, func() []bool {
		reads := columnsRead(len(input.Schema()), append(exprs[:len(exprs):len(exprs)], pred)...)
		for _, m := range masks {
			if m != nil {
				for _, col := range expr.Columns(m.Pred) {
					reads[col] = true
				}
			}
		}
		return reads
	})
	if err != nil {
		return err
	}
	for _, m := range masks {
		if m != nil {
			m.Pred = remapColumn(m.Pred, remap)
		}
	}
	pb.appendProcessor(remapColumn(pred, remap), remapColumns(exprs, remap), masks)
	return nil
}

// aggMasks returns, for each column of x's input, the mask of the masked
// aggregates that read it (plan.Aggregate's Mask), or nil when x has none. A
// masked column is read by aggregates under that one mask and ELSE only: the
// fragmenter projects a masked argument on its own.
func aggMasks(x *plan.Aggregation) ([]*expr.Mask, error) {
	var masks []*expr.Mask
	for i, a := range x.Aggregates {
		if a.Mask == nil {
			continue
		}
		cr, ok := a.Arg.(*expr.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("masked aggregate %d has no argument column", i)
		}
		if masks == nil {
			masks = make([]*expr.Mask, len(x.Input.Schema()))
		}
		m := &expr.Mask{Pred: a.Mask, Else: a.Else}
		if prev := masks[cr.Index]; prev != nil && !sameMask(prev, m) {
			return nil, fmt.Errorf("aggregate argument %s is read under two masks", cr.Name)
		}
		masks[cr.Index] = m
	}
	for i, a := range x.Aggregates {
		if cr, ok := a.Arg.(*expr.ColumnRef); ok && a.Mask == nil && masks != nil && masks[cr.Index] != nil {
			return nil, fmt.Errorf("aggregate %d reads masked column %s unmasked", i, cr.Name)
		}
	}
	for _, g := range x.GroupBy {
		if cr, ok := g.(*expr.ColumnRef); ok && masks != nil && masks[cr.Index] != nil {
			return nil, fmt.Errorf("group key %s is a masked column", cr.Name)
		}
	}
	return masks, nil
}

// sameMask reports whether two masks are one: the same predicate and ELSE.
func sameMask(a, b *expr.Mask) bool {
	key := func(e expr.Expr) string {
		if e == nil {
			return ""
		}
		return expr.CanonicalKey(e)
	}
	return key(a.Pred) == key(b.Pred) && key(a.Else) == key(b.Else)
}

// compileRead compiles n for a consumer that reads only the columns of n's
// schema that reads marks (asked only when it matters). A hash join is then
// told to emit just those channels; any other node (an index join too)
// compiles in full. The returned remap gives each schema column its position
// in the page the consumer will see (-1: no longer emitted), and is nil when
// every column stays where it was.
func (c *compiler) compileRead(n plan.Node, pb *chain, reads func() []bool) ([]int, error) {
	if j, ok := n.(*plan.Join); ok {
		return c.compileJoin(j, pb, reads())
	}
	return nil, c.compile(n, pb)
}

// columnsRead marks which of n input columns the expressions read.
func columnsRead(n int, exprs ...expr.Expr) []bool {
	reads := make([]bool, n)
	for _, e := range exprs {
		for _, col := range expr.Columns(e) {
			reads[col] = true
		}
	}
	return reads
}

// remapColumn rewrites e's column references through remap (compileRead), as
// composeProjections rewrites them through an inner projection list.
func remapColumn(e expr.Expr, remap []int) expr.Expr {
	if remap == nil {
		return e
	}
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(*expr.ColumnRef); ok {
			return &expr.ColumnRef{Index: remap[c.Index], T: c.T, Name: c.Name}
		}
		return nil
	})
}

func remapColumns(exprs []expr.Expr, remap []int) []expr.Expr {
	if remap == nil {
		return exprs
	}
	out := make([]expr.Expr, len(exprs))
	for i, e := range exprs {
		out[i] = remapColumn(e, remap)
	}
	return out
}

// remapIndex is remapColumn for a bare column index.
func remapIndex(col int, remap []int) int {
	if remap == nil {
		return col
	}
	return remap[col]
}

// compileJoin compiles a hash join that emits the columns of its output
// schema marked in reads (nil: all of them), and returns where each schema
// column lands in its output page (-1: not emitted). What the join itself
// reads of its probe input — the listed probe channels, its probe keys, the
// probe side of its residual — is passed down the same way, so a join under a
// join prunes too. The plan node is not touched: EXPLAIN and the wire form
// describe the full join.
func (c *compiler) compileJoin(j *plan.Join, pb *chain, reads []bool) ([]int, error) {
	if j.Strategy == plan.StrategyIndex {
		return nil, c.compileIndexJoin(j, pb)
	}
	// Build side: its own pipeline ending in HashBuild. The bridge between
	// the two sides is the task's (Task.bridges[ji]).
	ji := len(c.joins)
	js := &joinSpec{nullAware: j.NullAware, spills: len(j.Equi) > 0 && j.Type != plan.CrossJoin}
	c.joins = append(c.joins, js)
	build := c.newPipeline()
	if err := c.compile(j.Right, build); err != nil {
		return nil, err
	}
	buildKeys := make([]int, len(j.Equi))
	probeKeys := make([]int, len(j.Equi))
	rightTs := j.Right.Schema().Types()
	buildKeyTs := make([]types.Type, len(j.Equi))
	for i, eq := range j.Equi {
		buildKeys[i] = eq.Right
		probeKeys[i] = eq.Left
		buildKeyTs[i] = rightTs[eq.Right]
	}
	js.buildKeys, js.buildKeyTs = buildKeys, buildKeyTs
	build.append("HashBuild", hashBuild(ji, buildKeys, buildKeyTs))
	build.seal()
	build.spec.build = ji

	// Dynamic-filter placement: a scan that feeds the probe through nothing
	// but Filter/Project only prunes by the join's filters.
	if len(j.DynFilters) > 0 {
		scan := directFeed(j.Left)
		for _, df := range j.DynFilters {
			c.published = append(c.published, placedFilter{id: df.ID, direct: scan})
		}
	}

	// The output channels: the schema columns the consumer reads, probe side
	// first. SEMI and ANTI joins have no build columns in their schema.
	nLeft := len(j.Left.Schema())
	outMap := make([]int, len(j.Schema()))
	var probeOut, buildOut []int
	for col := range outMap {
		switch {
		case reads != nil && !reads[col]:
			outMap[col] = -1
			continue
		case col < nLeft:
			probeOut = append(probeOut, col)
		default:
			buildOut = append(buildOut, col-nLeft)
		}
		outMap[col] = len(probeOut) + len(buildOut) - 1
	}

	// Probe continues the current pipeline, and is asked for the columns
	// this join reads of it: its keys, its probe channels, the probe side of
	// its residual.
	leftSchema := j.Left.Schema()
	leftReads := make([]bool, nLeft)
	for _, col := range probeKeys {
		leftReads[col] = true
	}
	for _, col := range probeOut {
		leftReads[col] = true
	}
	for _, col := range expr.Columns(j.Residual) {
		if col < nLeft {
			leftReads[col] = true
		}
	}
	leftMap, err := c.compileRead(j.Left, pb, func() []bool { return leftReads })
	if err != nil {
		return nil, err
	}

	// Dynamic-filter collection: the bridge folds build key columns into
	// per-filter summaries and installs them once the table is built. Every
	// scan that subscribes within the fragment is on the probe side, compiled
	// by now: a summary none of them row-tests is collected for pruning only,
	// unless the task relays it.
	for _, df := range j.DynFilters {
		tested := slices.ContainsFunc(c.published, func(f placedFilter) bool { return f.id == df.ID && f.rowTested })
		js.filters = append(js.filters, dynfilter.ColumnSpec{ID: df.ID, KeyIdx: df.KeyIdx, T: buildKeyTs[df.KeyIdx], Bounded: !tested})
		js.filterIDs = append(js.filterIDs, df.ID)
	}
	probeTs := leftSchema.Types()
	residual := j.Residual
	if leftMap != nil {
		probeTs = probeTs[:0]
		for col, at := range leftMap {
			if at >= 0 {
				probeTs = append(probeTs, leftSchema[col].T)
			}
		}
		for i := range probeKeys {
			probeKeys[i] = leftMap[probeKeys[i]]
		}
		for i := range probeOut {
			probeOut[i] = leftMap[probeOut[i]]
		}
		// The residual runs over (probe ++ build): the build columns move
		// with the probe page's width.
		both := append([]int(nil), leftMap...)
		for col := range j.Right.Schema() {
			both = append(both, len(probeTs)+col)
		}
		residual = remapColumn(residual, both)
	}
	pb.append("LookupJoin", lookupJoin(ji, j.Type, probeKeys, c.residual(residual, len(probeTs)),
		probeTs, j.Right.Schema().Types(), probeOut, buildOut, c.pageSize))
	pb.spec.probes = append(pb.spec.probes, ji)
	if len(probeOut)+len(buildOut) == len(outMap) {
		outMap = nil // nothing dropped: every column is where the schema says
	}
	return outMap, nil
}

func (c *compiler) compileIndexJoin(j *plan.Join, pb *chain) error {
	scan, ok := j.Right.(*plan.Scan)
	if !ok {
		return fmt.Errorf("index join requires a scan build side")
	}
	if err := c.compile(j.Left, pb); err != nil {
		return err
	}
	probeKeys := make([]int, len(j.Equi))
	keyCols := make([]string, len(j.Equi))
	for i, eq := range j.Equi {
		probeKeys[i] = eq.Left
		keyCols[i] = scan.Columns[eq.Right]
	}
	probeTs := j.Left.Schema().Types()
	pb.append("IndexJoin", indexJoin(scan.Handle.Catalog, scan.Handle.Table, keyCols, scan.Columns, j.Type, probeKeys,
		c.residual(j.Residual, len(probeTs)), probeTs, j.Right.Schema().Types(), c.pageSize))
	return nil
}

// residual compiles a join residual over nProbe probe channels and the build
// channels (nil: none) once for the fragment, and returns what gives each
// driver's join its own, over the task's literals.
func (c *compiler) residual(e expr.Expr, nProbe int) func(ctx *driverCtx) *operators.JoinResidual {
	if e == nil {
		return func(*driverCtx) *operators.JoinResidual { return nil }
	}
	prog := c.program(e, nil, nil)
	return func(ctx *driverCtx) *operators.JoinResidual {
		return operators.NewJoinResidual(e, nProbe, func(expr.Expr, []expr.Expr) *expr.PageProcessor {
			return prog.NewProcessor(ctx.task.params)
		})
	}
}

// composeProjections rewrites outer, a projection list over the columns
// inner produces, into the same list over inner's input. A column reference
// becomes the inner expression it named. That is refused (ok=false, the two
// layers stay two operators) when it would evaluate a computed inner
// expression twice or move a non-deterministic one: every inner expression
// the outer list reads must be a column, a constant, or deterministic and
// read once.
func composeProjections(outer, inner []expr.Expr) (composed []expr.Expr, ok bool) {
	reads := make([]int, len(inner))
	for _, e := range outer {
		expr.Walk(e, func(x expr.Expr) {
			if c, ok := x.(*expr.ColumnRef); ok {
				reads[c.Index]++
			}
		})
	}
	for i, e := range inner {
		switch e.(type) {
		case *expr.ColumnRef, *expr.Const:
			continue
		}
		if reads[i] > 1 || (reads[i] == 1 && !expr.IsDeterministic(e)) {
			return nil, false
		}
	}
	composed = make([]expr.Expr, len(outer))
	for i, e := range outer {
		composed[i] = expr.Rewrite(e, func(x expr.Expr) expr.Expr {
			if c, ok := x.(*expr.ColumnRef); ok {
				return inner[c.Index]
			}
			return nil
		})
	}
	return composed, true
}

// directFeed returns the scan whose rows reach n's consumer through nothing
// but Filter and Project — in the same pipeline — or nil.
func directFeed(n plan.Node) *plan.Scan {
	for {
		switch x := n.(type) {
		case *plan.Filter:
			n = x.Input
		case *plan.Project:
			n = x.Input
		case *plan.Scan:
			return x
		default:
			return nil
		}
	}
}

func identityExprs(sch plan.Schema) []expr.Expr {
	out := make([]expr.Expr, len(sch))
	for i, f := range sch {
		out[i] = &expr.ColumnRef{Index: i, T: f.T, Name: f.Name}
	}
	return out
}

func splitKeys(keys []plan.SortKey) ([]int, []bool) {
	cols := make([]int, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		cols[i] = k.Col
		desc[i] = k.Descending
	}
	return cols, desc
}
