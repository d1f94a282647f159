package exec

import (
	"fmt"
	"math"

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
	srcLocalExchange
)

// pipelineSpec is one compiled pipeline of a task: a source plus factories
// creating the downstream operator chain per driver.
type pipelineSpec struct {
	id     int
	source sourceKind

	// srcScan
	scanID     int
	scanHandle plan.TableHandle
	scanCols   []string
	scanNode   *plan.Scan   // dynamic-filter subscriptions + output schema
	sourceFP   uint64       // cardinality fingerprint of the source node
	zeroCopy   int8         // cached ZeroCopyScans probe: 0 unknown, 1 yes, -1 no (guarded by t.mu)
	morsels    *morselQueue // the scan's splits, which every driver of the pipeline drains

	// srcExchange
	exchangeFragments []int

	// srcValues
	values *plan.Values

	// srcLocalExchange
	localEx      *operators.LocalExchange
	localWays    int
	localSources int

	// mkOps builds the per-driver operator chain after the source.
	mkOps func(ctx *driverCtx) ([]operators.Operator, error)

	// opStats holds one shared stats object per operator position (index 0
	// is the source); every driver of the pipeline writes into the same
	// objects, so task-level rollup is a snapshot, not a merge.
	opStats []*operators.OpStats

	// bridge bookkeeping: bridges this pipeline builds into / probes.
	buildBridge  *operators.JoinBridge
	probeBridges []*operators.JoinBridge

	// exchangeClient is the shared client for srcExchange pipelines.
	exchangeClient *shuffle.ExchangeClient
	// hasWriter marks pipelines containing a table writer (adaptive
	// scaling candidates).
	hasWriter bool
	// noMoreDrivers records that bridge driver-creation is complete.
	noMoreDrivers bool

	// driver counters, guarded by the owning task's mu.
	driversStarted int
	driversDone    int
}

// sourceName labels the pipeline's source operator position for stats.
func (p *pipelineSpec) sourceName() string {
	switch p.source {
	case srcScan:
		return "TableScan"
	case srcExchange:
		return "ExchangeSource"
	case srcValues:
		return "Values"
	case srcLocalExchange:
		return "LocalExchangeSource"
	}
	return "Source"
}

// driverCtx is passed to factories when instantiating a driver's operators.
// mkOps points stats at the pipeline's shared per-operator stats object
// before invoking each factory, and collects the contexts the factories
// create so the driver can sample memory and attribute time.
type driverCtx struct {
	task  *Task
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

// compiler translates a fragment's plan tree into pipelines.
type compiler struct {
	task      *Task
	pipelines []*pipelineSpec
	scans     []*plan.Scan
	pageSize  int
}

// opFactory builds one operator for a driver.
type opFactory func(ctx *driverCtx) (operators.Operator, error)

// chain accumulates named factories for the pipeline being built, and the
// stats object of each operator, filled in as compilation learns about it.
type chain struct {
	spec      *pipelineSpec
	stats     []*operators.OpStats
	factories []opFactory
	// dynScan is the pipeline's scan while it subscribes to dynamic filters
	// and nothing has been placed on it yet: whatever is appended next applies
	// their row predicates.
	dynScan *plan.Scan
}

func (c *chain) append(name string, f opFactory) {
	if sc := c.dynScan; sc != nil {
		// Not a filter or a projection: an identity processor goes between,
		// which hands on untouched a page the filters drop nothing from.
		c.appendProcessor(nil, identityExprs(sc.Schema()))
	}
	c.stats = append(c.stats, &operators.OpStats{Name: name})
	c.factories = append(c.factories, f)
}

// appendProcessor appends the filter/project operator of pred (nil: none)
// and exprs. Placed directly on a scan that subscribes to dynamic filters, its
// processor runs them ahead of pred, over the one selection vector the page
// is gathered by.
func (c *chain) appendProcessor(pred expr.Expr, exprs []expr.Expr) {
	spec, dyn := c.spec, c.dynScan != nil
	c.dynScan = nil
	c.append("FilterProject", func(ctx *driverCtx) (operators.Operator, error) {
		op := operators.NewFilterProject(ctx.opCtx(memory.System), ctx.task.newProcessor(pred, exprs))
		if dyn {
			op.SetDynamicFilters(ctx.task.dynRowSelectors(spec), spec.opStats[0])
		}
		return op, nil
	})
}

// stampFP tags the most recently appended operator with the cardinality
// fingerprint of the plan node it realizes, so its observed row counts can
// feed history-based optimizer estimates on repeat runs.
func (c *chain) stampFP(fp uint64) {
	if n := len(c.stats); n > 0 {
		c.stats[n-1].PlanFP = fp
	}
}

func (c *compiler) newPipeline() *chain {
	spec := &pipelineSpec{id: len(c.pipelines)}
	c.pipelines = append(c.pipelines, spec)
	return &chain{spec: spec}
}

func (c *chain) seal() {
	fs := c.factories
	spec := c.spec
	spec.opStats = append([]*operators.OpStats{{Name: spec.sourceName(), PlanFP: spec.sourceFP}}, c.stats...)
	spec.mkOps = func(ctx *driverCtx) ([]operators.Operator, error) {
		ops := make([]operators.Operator, 0, len(fs))
		for i, f := range fs {
			ctx.stats = spec.opStats[i+1]
			ctx.last = nil
			op, err := f(ctx)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
			ctx.ctxs = append(ctx.ctxs, ctx.last)
		}
		ctx.stats = nil
		lendOutputs(ops)
		return ops, nil
	}
}

// inputReleaser is implemented by operators that can be done with an input
// page, and with every array under it, by the next time their NeedsInput is
// true: the hash aggregation (when AddInput returns), the lookup join (it
// gathers what it emits, and asks for no page while it has rows left to
// emit), and a filter/project exactly when its own output is lent. Each
// method's comment says why it holds.
type inputReleaser interface {
	ReleasesInput() bool
}

// outputLender is implemented by the operators that can write their output
// into vectors they own and reuse: filter/project and the lookup join.
type outputLender interface {
	LendOutput(consumer operators.Operator)
}

// lendOutputs is the one place an operator is told its output pages are
// borrowed (DESIGN.md, "Who owns a page"): exactly when the operator placed
// after it releases its input. It walks the chain from the sink backwards,
// because whether a filter/project releases depends on whether it lends. The
// driver calls Output only when the next operator's NeedsInput is true, so
// that is the first moment lent vectors are written again. The operator chain
// is fixed by the plan shape, so this is a compile-time rule, evaluated where
// the chain is built.
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
	root.append("PartitionedOutput", func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewPartitionedOutput(ctx.opCtx(memory.System), ctx.task.output, mode, hashCols), nil
	})
	root.seal()
	return nil
}

// compile appends operators for node to the pipeline being built, creating
// additional pipelines for join build sides and local exchanges.
func (c *compiler) compile(n plan.Node, pb *chain) error {
	switch x := n.(type) {
	case *plan.Scan:
		pb.spec.source = srcScan
		pb.spec.scanID = len(c.scans)
		pb.spec.scanHandle = x.Handle
		pb.spec.scanCols = x.Columns
		pb.spec.scanNode = x
		pb.spec.sourceFP = plan.CardFingerprint(x, nil)
		c.scans = append(c.scans, x)
		if len(x.DynFilters) > 0 {
			pb.dynScan = x
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

	case *plan.LocalExchange:
		// Producer side becomes its own pipeline ending in the sink.
		ways := x.Ways
		if ways <= 0 {
			ways = 2
		}
		lex := operators.NewLocalExchange(ways, x.HashCols)
		producer := c.newPipeline()
		if err := c.compile(x.Input, producer); err != nil {
			return err
		}
		producer.append("LocalExchangeSink", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewLocalExchangeSink(ctx.opCtx(memory.System), lex), nil
		})
		producer.seal()
		pb.spec.source = srcLocalExchange
		pb.spec.localEx = lex
		pb.spec.localWays = ways
		return nil

	case *plan.Filter:
		// Fuse Filter with identity projection.
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		pb.appendProcessor(x.Predicate, identityExprs(x.Input.Schema()))
		pb.stampFP(plan.CardFingerprint(x, nil))
		return nil

	case *plan.Project:
		// Fuse Project*(Filter?(y)) into one page processor: stacked
		// projections compose into one list over the bottom input, so a
		// computed column reads the source page through the selection vector
		// and no intermediate page exists. Project is transparent to
		// CardFingerprint, so the stack's fingerprint is the top node's.
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
		remap, err := c.compileRead(input, pb, func() []bool {
			return columnsRead(len(input.Schema()), append(exprs[:len(exprs):len(exprs)], pred)...)
		})
		if err != nil {
			return err
		}
		pb.appendProcessor(remapColumn(pred, remap), remapColumns(exprs, remap))
		pb.stampFP(plan.CardFingerprint(x, nil))
		return nil

	case *plan.Limit:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		nRows, off := x.N, x.Offset
		if x.Partial {
			off = 0
		}
		pb.append("Limit", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewLimit(ctx.opCtx(memory.System), nRows, off), nil
		})
		return nil

	case *plan.Distinct:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		ts := x.Schema().Types()
		pb.append("Distinct", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewDistinct(ctx.opCtx(memory.User), ts), nil
		})
		return nil

	case *plan.Sort:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.Keys)
		pb.append("Sort", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewSort(ctx.opCtx(memory.User), cols, desc, c.pageSize), nil
		})
		return nil

	case *plan.TopN:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.Keys)
		nRows := x.N
		pb.append("TopN", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewTopN(ctx.opCtx(memory.User), cols, desc, nRows), nil
		})
		return nil

	case *plan.Window:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		cols, desc := splitKeys(x.OrderBy)
		part := x.PartitionBy
		funcs := x.Funcs
		pb.append("Window", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewWindow(ctx.opCtx(memory.User), part, cols, desc, funcs, c.pageSize), nil
		})
		return nil

	case *plan.EnforceSingleRow:
		if err := c.compile(x.Input, pb); err != nil {
			return err
		}
		ts := x.Schema().Types()
		pb.append("EnforceSingleRow", func(ctx *driverCtx) (operators.Operator, error) {
			return operators.NewEnforceSingleRow(ctx.opCtx(memory.System), ts), nil
		})
		return nil

	case *plan.Aggregation:
		remap, err := c.compileRead(x.Input, pb, func() []bool {
			reads := columnsRead(len(x.Input.Schema()), x.GroupBy...)
			for _, a := range x.Aggregates {
				for _, col := range expr.Columns(a.Arg) {
					reads[col] = true
				}
			}
			return reads
		})
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
		per, drivers := c.task.groupsPerInstance(x.Est, pb.spec)
		groups := int(math.Ceil(per))
		pb.append("HashAggregation", func(ctx *driverCtx) (operators.Operator, error) {
			op := operators.NewHashAggregation(ctx.opCtx(memory.User), groupCols, groupTs, specs, ctx.task.spillEnabled, c.pageSize, groups)
			op.SetSpillDir(ctx.task.cfg.SpillDir)
			if ctx.task.spillEnabled {
				ctx.task.registerRevocable(op)
			}
			return op, nil
		})
		pb.stampFP(plan.CardFingerprint(x, nil))
		if per > 0 {
			st := pb.stats[len(pb.stats)-1]
			st.EstGroups, st.EstSource = per*float64(drivers), string(x.Est.Source)
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
		catalog, table := x.Catalog, x.Table
		pb.append("TableWriter", func(ctx *driverCtx) (operators.Operator, error) {
			conn, err := ctx.task.connectors.Connector(catalog)
			if err != nil {
				return nil, err
			}
			sink, err := conn.PageSink(table)
			if err != nil {
				return nil, err
			}
			w := operators.NewTableWriter(ctx.opCtx(memory.System), sink)
			w.WriteDelay = ctx.task.writeDelay
			return w, nil
		})
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
	switch p.source {
	case srcScan:
		drivers = t.scanDrivers()
	case srcLocalExchange:
		drivers = p.localWays
	default:
		drivers = 1
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
// join prunes too. The plan node is not touched: EXPLAIN, the wire form and
// the fingerprints describe the full join.
func (c *compiler) compileJoin(j *plan.Join, pb *chain, reads []bool) ([]int, error) {
	if j.Strategy == plan.StrategyIndex {
		return nil, c.compileIndexJoin(j, pb)
	}
	// Build side: its own pipeline ending in HashBuild.
	bridge := operators.NewJoinBridge()
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
	// Arm the bridge for build-side spill: when the memory manager revokes
	// it, the build table moves to a partitioned spill file and the probe
	// side re-joins it partition by partition from disk (§IV-F2). Cross and
	// keyless joins cannot hash-partition, so they stay memory-only.
	if c.task.spillEnabled && len(j.Equi) > 0 && j.Type != plan.CrossJoin {
		mem := memory.NewLocalContext(c.task.queryMem, c.task.nodeID, memory.User)
		bridge.EnableSpill(mem, c.task.cfg.SpillDir, buildKeys, buildKeyTs)
		c.task.registerRevocable(bridge)
		c.task.registerCleanup(bridge.ReleaseSpill)
	}
	build.append("HashBuild", func(ctx *driverCtx) (operators.Operator, error) {
		bridge.AddBuilder()
		return operators.NewHashBuild(ctx.opCtx(memory.User), bridge, buildKeys, buildKeyTs), nil
	})
	build.seal()
	build.spec.buildBridge = bridge

	// Dynamic-filter collection: the bridge folds build key columns into
	// per-filter summaries and publishes them once the table is built.
	if len(j.DynFilters) > 0 {
		specs := make([]dynfilter.ColumnSpec, len(j.DynFilters))
		ids := make([]int, len(j.DynFilters))
		for i, df := range j.DynFilters {
			specs[i] = dynfilter.ColumnSpec{ID: df.ID, KeyIdx: df.KeyIdx, T: buildKeyTs[df.KeyIdx]}
			ids[i] = df.ID
		}
		coll := dynfilter.NewCollector(specs, dynfilter.DefaultMaxSet, dynfilter.DefaultMaxRows)
		task := c.task
		bridge.SetFilterCollector(coll, func(sums []*dynfilter.Summary) {
			task.publishFilters(ids, sums)
		})
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
	jt := j.Type
	buildTs := j.Right.Schema().Types()
	pb.append("LookupJoin", func(ctx *driverCtx) (operators.Operator, error) {
		bridge.AddProbe()
		op := operators.NewLookupJoin(ctx.opCtx(memory.User), bridge, jt, probeKeys, residual, probeTs, buildTs, c.pageSize)
		op.SetOutputChannels(probeOut, buildOut)
		return op, nil
	})
	pb.stampFP(plan.CardFingerprint(j, nil))
	pb.spec.probeBridges = append(pb.spec.probeBridges, bridge)
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
	jt := j.Type
	probeTs := j.Left.Schema().Types()
	buildTs := j.Right.Schema().Types()
	catalog, table := scan.Handle.Catalog, scan.Handle.Table
	outCols := scan.Columns
	pb.append("IndexJoin", func(ctx *driverCtx) (operators.Operator, error) {
		conn, err := ctx.task.connectors.Connector(catalog)
		if err != nil {
			return nil, err
		}
		idxConn, ok := conn.(connector.Indexed)
		if !ok {
			return nil, fmt.Errorf("connector %s does not support index joins", catalog)
		}
		idx, ok := idxConn.Index(table, keyCols, outCols)
		if !ok {
			return nil, fmt.Errorf("no index on %s.%s(%v)", catalog, table, keyCols)
		}
		return operators.NewIndexJoin(ctx.opCtx(memory.User), idx.Lookup, jt, probeKeys, probeTs, buildTs, c.pageSize), nil
	})
	pb.stampFP(plan.CardFingerprint(j, nil))
	return nil
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
