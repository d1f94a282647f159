package operators

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// Regression test: ExecutionNanos feeds the memory arbiter's revocation
// heuristic (spill the operator with the most execution time per byte of
// progress, §IV-F2) and used to report lifetime wall-clock — an operator
// idle since construction looked "expensive" just by existing.
func TestHashAggregationExecutionNanosIsCPUTime(t *testing.T) {
	specs := []AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	ctx := NopContext()
	op := NewHashAggregation(ctx, []int{0}, []types.Type{types.Bigint}, specs, true, 0, 0)
	in := block.NewPage(
		block.NewLongBlock([]int64{1, 2}, nil),
		block.NewLongBlock([]int64{10, 20}, nil),
	)
	if err := op.AddInput(in); err != nil {
		t.Fatal(err)
	}

	// Idle time must not count as execution time.
	time.Sleep(120 * time.Millisecond)
	if got := op.ExecutionNanos(); got > (60 * time.Millisecond).Nanoseconds() {
		t.Errorf("ExecutionNanos = %v after 120ms idle — reporting wall-clock, not CPU",
			time.Duration(got))
	}

	// Attributed CPU time is what it reports.
	ctx.Stats.AddCPU((5 * time.Millisecond).Nanoseconds())
	if got := op.ExecutionNanos(); got != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("ExecutionNanos = %v, want the 5ms of attributed CPU", time.Duration(got))
	}
}
