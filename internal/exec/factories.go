package exec

import (
	"fmt"
	"math"

	"repro/internal/connector"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// The operator factories: what a compiled pipeline runs for every driver it
// starts. A factory is made once per compiled fragment and shared by every
// task of it, so it captures only what compilation decided; whatever a task
// or a driver owns — its literals, join bridges, output buffer, stats — it
// takes from the driverCtx.

// filterProject builds a page processor over prog, with the task's literals;
// dyn: it also runs the scan's arrived dynamic filters.
func filterProject(prog *expr.Program, dyn bool) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		op := operators.NewFilterProject(ctx.opCtx(memory.System), prog.NewProcessor(ctx.task.params))
		if dyn {
			op.Processor().SetDynamicFilters(ctx.task.dynArrivals.Load, ctx.task.dynArrived(ctx.pipe))
		}
		return op, nil
	}
}

// partitionedOutput builds the sink into the task's output buffer.
func partitionedOutput(mode operators.OutputMode, hashCols []int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewPartitionedOutput(ctx.opCtx(memory.System), ctx.task.output, mode, hashCols), nil
	}
}

func limitOp(n, offset int64) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewLimit(ctx.opCtx(memory.System), n, offset), nil
	}
}

func sortOp(cols []int, desc []bool, pageSize int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewSort(ctx.opCtx(memory.User), cols, desc, pageSize), nil
	}
}

func topNOp(cols []int, desc []bool, n int64) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewTopN(ctx.opCtx(memory.User), cols, desc, n), nil
	}
}

// windowOp builds a window operator whose functions' arguments read the
// task's literals.
func windowOp(part, cols []int, desc []bool, funcs []plan.WindowExpr, pageSize int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		w := operators.NewWindow(ctx.opCtx(memory.User), part, cols, desc, funcs, pageSize)
		w.SetParams(ctx.task.params)
		return w, nil
	}
}

func enforceSingleRow(ts []types.Type) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		return operators.NewEnforceSingleRow(ctx.opCtx(memory.System), ts), nil
	}
}

// hashAggregation builds an aggregation sized for its instance's share of
// est's groups (Task.groupsPerInstance), spilling when the task may.
func hashAggregation(groupCols []int, groupTs []types.Type, specs []operators.AggSpec, est *plan.GroupEstimate, pageSize int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		per, _ := ctx.task.groupsPerInstance(est, ctx.pipe)
		spills := ctx.task.cfg.SpillEnabled
		op := operators.NewHashAggregation(ctx.opCtx(memory.User), groupCols, groupTs, specs, spills, pageSize, int(math.Ceil(per)))
		op.SetSpillDir(ctx.task.cfg.SpillDir)
		if spills {
			ctx.task.registerRevocable(op)
		}
		return op, nil
	}
}

func tableWriter(catalog, table string) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		conn, err := ctx.task.connectors.Connector(catalog)
		if err != nil {
			return nil, err
		}
		sink, err := conn.PageSink(table)
		if err != nil {
			return nil, err
		}
		w := operators.NewTableWriter(ctx.opCtx(memory.System), sink)
		w.WriteDelay = ctx.task.cfg.WriteDelay
		return w, nil
	}
}

// hashBuild builds into the task's bridge of join ji.
func hashBuild(ji int, keys []int, keyTs []types.Type) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		bridge := ctx.task.bridges[ji]
		bridge.AddBuilder()
		return operators.NewHashBuild(ctx.opCtx(memory.User), bridge, keys, keyTs), nil
	}
}

// lookupJoin probes the task's bridge of join ji and emits the channels
// probeOut and buildOut.
func lookupJoin(ji int, jt plan.JoinType, probeKeys []int, res func(*driverCtx) *operators.JoinResidual,
	probeTs, buildTs []types.Type, probeOut, buildOut []int, pageSize int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
		bridge := ctx.task.bridges[ji]
		bridge.AddProbe()
		op := operators.NewLookupJoin(ctx.opCtx(memory.User), bridge, jt, probeKeys, res(ctx), probeTs, buildTs, pageSize)
		op.SetOutputChannels(probeOut, buildOut)
		return op, nil
	}
}

// indexJoin probes the connector's index on table(keyCols).
func indexJoin(catalog, table string, keyCols, outCols []string, jt plan.JoinType, probeKeys []int,
	res func(*driverCtx) *operators.JoinResidual, probeTs, buildTs []types.Type, pageSize int) opFactory {
	return func(ctx *driverCtx) (operators.Operator, error) {
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
		return operators.NewIndexJoin(ctx.opCtx(memory.User), idx.Lookup, jt, probeKeys, res(ctx), probeTs, buildTs, pageSize), nil
	}
}
