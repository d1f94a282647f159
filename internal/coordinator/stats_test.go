package coordinator

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/operators"
	"repro/internal/workload"
)

// TestFinishedQueryStatsMatchSnapshots: a finished query keeps its tasks'
// tallies, not snapshots of their stats, and builds QueryStats when asked.
// Its stages and operator rows must be the ones the snapshot builder gives —
// each task's operators copied into a TaskStats when the query finished, then
// rolled up — kept here as the reference.
func TestFinishedQueryStatsMatchSnapshots(t *testing.T) {
	catalog := NewCatalogManager()
	catalog.Register(workload.LoadTPCHMemory("tpch", 0.01))
	workers := make([]*exec.Worker, 2)
	for i := range workers {
		workers[i] = exec.NewWorker(i, catalog, exec.WorkerConfig{Threads: 2})
	}
	c := New(catalog, workers, Config{DefaultCatalog: "tpch"})
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	filters := 0
	for _, sql := range []string{
		// A selective build: the join's dynamic filter reaches the probe scan.
		`SELECT o_orderstatus, count(*), sum(l_quantity) FROM tpch.orders
			JOIN tpch.lineitem ON o_orderkey = l_orderkey WHERE o_totalprice < 20000 GROUP BY o_orderstatus`,
		"SELECT l_returnflag, count(*) FROM tpch.lineitem WHERE l_quantity > 10 GROUP BY l_returnflag",
	} {
		res, err := c.Execute(sql, Session{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		q := c.queries[res.QueryID]
		c.mu.Unlock()
		q.mu.Lock()
		final, live := q.final, len(q.tasks)
		q.mu.Unlock()
		if final == nil || live != 0 {
			t.Fatalf("%s: the finished query holds %d tallies and %d tasks", sql, len(final), live)
		}
		want := make([]exec.TaskStats, len(final))
		for i, tt := range final {
			want[i] = snapshotTask(tt)
		}
		wantStages := rollUp(want)

		st, ok := c.QueryStats(res.QueryID)
		if !ok {
			t.Fatalf("%s: no stats", sql)
		}
		if !reflect.DeepEqual(st.Stages, wantStages) {
			t.Errorf("%s: stages\n%+v\nwant\n%+v", sql, st.Stages, wantStages)
		}
		got, ref := FormatOperatorTable(st), FormatOperatorTable(QueryStats{Stages: wantStages})
		if got != ref {
			t.Errorf("%s: operator rows\n%s\nwant\n%s", sql, got, ref)
		}
		if st.RowsRead == 0 || len(st.Stages) < 2 {
			t.Errorf("%s: %d rows read over %d stages", sql, st.RowsRead, len(st.Stages))
		}
		filters += countDynFilters(st)
	}
	if filters == 0 {
		t.Error("no statement's stats carry a dynamic filter")
	}
}

// snapshotTask is the snapshot builder a finished query's stats were made
// with while it kept TaskStats: every operator's counters copied into a fresh
// slice, scan rows and output rows summed from the copies.
func snapshotTask(tt exec.TaskTally) exec.TaskStats {
	st := exec.TaskStats{
		TaskID:        tt.ID.String(),
		Fragment:      tt.ID.Fragment,
		CPUNanos:      tt.CPUNanos,
		OutputBufUtil: tt.OutputBufUtil,
		SplitsQueued:  tt.SplitsQueued,
		SplitsRunning: tt.SplitsRunning,
		SplitsDone:    tt.SplitsDone,
		ActiveDrivers: tt.ActiveDrivers,
	}
	st.Pipelines = make([]exec.PipelineStats, 0, len(tt.Pipelines))
	for _, p := range tt.Pipelines {
		ps := exec.PipelineStats{
			Pipeline:    p.Pipeline,
			Drivers:     p.Drivers,
			DriversDone: p.DriversDone,
			Operators:   make([]operators.OpStatsSnapshot, 0, len(p.Ops)),
		}
		for _, s := range p.Ops {
			ps.Operators = append(ps.Operators, s.Snapshot())
		}
		ps.DynFilters = p.DynFilters
		st.Pipelines = append(st.Pipelines, ps)
		if p.Scan && len(p.Ops) > 0 {
			src := ps.Operators[0]
			st.ScanRows += src.RowsOut
			st.RowsRead += src.RowsOut - src.DynRowsFiltered
			st.BytesRead += src.BytesRead
		}
	}
	if len(st.Pipelines) > 0 {
		for _, p := range st.Pipelines {
			if p.Pipeline != 0 || len(p.Operators) == 0 {
				continue
			}
			sink := p.Operators[len(p.Operators)-1]
			st.OutputRows = sink.RowsIn
			st.OutputBytes = sink.BytesIn
		}
	}
	return st
}

// rollUp is QueryStats' per-stage rollup over snapshots.
func rollUp(tasks []exec.TaskStats) []StageStats {
	stages := map[int]*StageStats{}
	for _, ts := range tasks {
		sg := stages[ts.Fragment]
		if sg == nil {
			sg = &StageStats{Fragment: ts.Fragment}
			stages[ts.Fragment] = sg
		}
		sg.Tasks++
		sg.CPUNanos += ts.CPUNanos
		sg.TaskInputRows = append(sg.TaskInputRows, ts.ScanRows)
		sg.TaskSplits = append(sg.TaskSplits, ts.SplitsDone)
		mergePipelines(sg, ts.Pipelines)
	}
	frags := make([]int, 0, len(stages))
	for f := range stages {
		frags = append(frags, f)
	}
	sort.Ints(frags)
	var out []StageStats
	for _, f := range frags {
		sg := stages[f]
		sg.Skew = inputSkew(sg.TaskInputRows)
		out = append(out, *sg)
	}
	return out
}

func countDynFilters(st QueryStats) int {
	n := 0
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			n += len(pl.DynFilters)
		}
	}
	return n
}
