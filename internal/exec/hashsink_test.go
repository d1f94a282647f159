package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// TestHashSinksTakeLentPages: a hash sink over more than one partition copies
// every row into its partition's page, so it releases its input and the
// operator in front of it — an aggregation, a filter/project, a lookup join —
// lends its output. Every other output mode, and hash mode over one partition,
// queues the page itself, and nothing is lent to it.
func TestHashSinksTakeLentPages(t *testing.T) {
	bigint := []types.Type{types.Bigint}
	producers := []struct {
		name string
		make func() (op operators.Operator, lends func() bool)
	}{
		{"aggregation", func() (operators.Operator, func() bool) {
			agg := operators.NewHashAggregation(operators.NopContext(), []int{0}, bigint,
				[]operators.AggSpec{{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint}}, false, 0, 0)
			return agg, agg.LendsOutput
		}},
		{"filter/project", func() (operators.Operator, func() bool) {
			fp := operators.NewFilterProject(operators.NopContext(), expr.NewPageProcessor(nil, []expr.Expr{col(0, types.Bigint)}))
			return fp, fp.Processor().BorrowsOutput
		}},
		{"lookup join", func() (operators.Operator, func() bool) {
			join := operators.NewLookupJoin(operators.NopContext(), operators.NewJoinBridge(), plan.InnerJoin, []int{0}, nil, bigint, bigint, 0)
			return join, join.LendsOutput
		}},
	}
	type sink struct {
		name  string
		make  func() operators.Operator
		lends bool
	}
	var sinks []sink
	for _, m := range []struct {
		name string
		mode operators.OutputMode
	}{{"single", operators.OutputSingle}, {"hash", operators.OutputHash}, {"broadcast", operators.OutputBroadcast}, {"round-robin", operators.OutputRoundRobin}} {
		for _, n := range []int{1, 2} {
			sinks = append(sinks, sink{
				name: fmt.Sprintf("partitioned output, %s, %d partitions", m.name, n),
				make: func() operators.Operator {
					return operators.NewPartitionedOutput(operators.NopContext(), shuffle.NewOutputBuffer(n, 1<<20), m.mode, []int{0})
				},
				lends: m.mode == operators.OutputHash && n == 2,
			})
		}
	}
	for _, p := range producers {
		for _, s := range sinks {
			op, lends := p.make()
			lendOutputs([]operators.Operator{op, s.make()})
			if lends() != s.lends {
				t.Errorf("%s in front of a %s: lends %v, want %v", p.name, s.name, lends(), s.lends)
			}
		}
	}
}

// groupsIntoHashSink runs one partial aggregation of groups fixed-key groups
// into a two-partition hash sink, lent as a task lends it, and returns what
// its output phase — Finish to the last page the sink takes — allocates per
// group. Its operators' scratch goes back to the pool at the end, as a
// finishing driver gives it back.
func groupsIntoHashSink(tb testing.TB, pages []*block.Page, groups int) float64 {
	specs := []operators.AggSpec{
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		{Func: plan.AggSum, ArgCol: 2, Out: types.Double},
		{Func: plan.AggMax, ArgCol: 1, Out: types.Bigint},
	}
	agg := operators.NewHashAggregation(operators.NopContext(), []int{0}, []types.Type{types.Bigint}, specs, false, 0, groups)
	buf := shuffle.NewOutputBuffer(2, 1<<30)
	sink := operators.NewPartitionedOutput(operators.NopContext(), buf, operators.OutputHash, []int{0})
	ops := []operators.Operator{agg, sink}
	lendOutputs(ops)
	for _, p := range pages {
		if err := agg.AddInput(p); err != nil {
			tb.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	agg.Finish()
	for !agg.IsFinished() {
		p, err := agg.Output()
		if err != nil {
			tb.Fatal(err)
		}
		if p != nil {
			if err := sink.AddInput(p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	NewDriver(ops).finishDriver(time.Now())
	buf.Destroy(fmt.Errorf("done measuring"))
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(groups)
}

// TestAggregationIntoHashSinkCopiesOnce: a partial aggregation feeding a hash
// shuffle writes each group once on the producer side — the sink's copy into
// its partition's page — because the aggregation renders its pages into lent
// scratch. Its four 8-byte columns cost 32 bytes a group in that copy. A warm
// second run (the first one's scratch and table back in the pools) measures
// 32.3 bytes a group; with the aggregation's own pages made too it measured
// 64 to 65, twice over. The ceiling is 48, between the two.
func TestAggregationIntoHashSinkCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const groups, pageRows = 32_768, 4096
	var pages []*block.Page
	for from := 0; from < groups; from += pageRows {
		keys, longs, doubles := make([]int64, pageRows), make([]int64, pageRows), make([]float64, pageRows)
		for i := range keys {
			keys[i], longs[i], doubles[i] = int64(from+i), int64(i), float64(i)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(keys, nil), block.NewLongBlock(longs, nil), block.NewDoubleBlock(doubles, nil)))
	}
	alloctest.HoldCollections(t)
	groupsIntoHashSink(t, pages, groups)
	got := groupsIntoHashSink(t, pages, groups)
	if got > 48 {
		t.Errorf("a warm partial aggregation into a 2-partition hash sink allocates %.1f bytes per group emitted, want <= 48: the aggregation's pages are copied again", got)
	} else {
		t.Logf("a warm partial aggregation into a 2-partition hash sink: %.1f bytes per group emitted", got)
	}
}
