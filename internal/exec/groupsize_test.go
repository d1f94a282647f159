package exec

import (
	"math"
	"testing"

	"repro/internal/plan"
)

// TestGroupsPerInstance: a partial step's instance expects Cardenas' share of
// the groups its rows are drawn from — lineitem grouped by l_orderkey, 30 000
// keys over 120 000 rows on two single-threaded workers, is 25 940 groups an
// instance (EXPLAIN ANALYZE observes 25 175 and 26 611) — and a final step's
// instance an equal part of the groups. The stage's task count comes from the
// scheduler, and a scan pipeline runs scanDrivers drivers: a missing task count
// or a nonsense estimate sizes nothing, but a scan-fed partial step always
// knows its instances.
func TestGroupsPerInstance(t *testing.T) {
	task := func(threads int, stages []int) *Task {
		return &Task{ID: TaskID{QueryID: "q", Fragment: 1}, executor: &Executor{cfg: ExecutorConfig{Threads: threads}},
			cfg: TaskConfig{TargetSplitConcurrency: 4, StageTasks: stages}}
	}
	partial := &plan.GroupEstimate{Groups: 30_000, Rows: 120_000, Source: plan.EstStats}
	final := &plan.GroupEstimate{Groups: 30_000, Source: plan.EstHistory}
	scan, exchange := &pipelineSpec{source: srcScan}, &pipelineSpec{source: srcExchange}
	for _, tc := range []struct {
		name    string
		task    *Task
		est     *plan.GroupEstimate
		p       *pipelineSpec
		groups  float64
		drivers int
	}{
		{"partial, two tasks of one driver", task(1, []int{1, 2}), partial, scan, 25_940, 1},
		{"partial, one task of two drivers", task(2, []int{1, 1}), partial, scan, 25_940, 2},
		{"partial, eight threads: the split-concurrency target bounds the drivers", task(8, []int{1, 1}), partial, scan, 18_964, 4},
		{"final, two tasks", task(1, []int{1, 2}), final, exchange, 15_000, 1},
		{"final, four tasks", task(1, []int{1, 4}), final, exchange, 7_500, 1},
		{"no task count", task(1, nil), final, exchange, 0, 1},
		{"no estimate", task(1, []int{1, 2}), nil, exchange, 0, 1},
		{"NaN groups", task(1, []int{1, 2}), &plan.GroupEstimate{Groups: math.NaN(), Source: plan.EstStats}, exchange, 0, 1},
	} {
		groups, drivers := tc.task.groupsPerInstance(tc.est, tc.p)
		if math.Abs(groups-tc.groups) > 1 || drivers != tc.drivers {
			t.Errorf("%s: %.1f groups on each of %d drivers, want %.0f on %d", tc.name, groups, drivers, tc.groups, tc.drivers)
		}
	}
}
