package exec

import (
	"repro/internal/operators"
)

// PipelineStats is a live snapshot of one pipeline of a task.
type PipelineStats struct {
	Pipeline    int                         `json:"pipeline"`
	Drivers     int                         `json:"drivers"`
	DriversDone int                         `json:"driversDone"`
	Operators   []operators.OpStatsSnapshot `json:"operators"`
	// DynFilters is what the dynamic-filter subscriptions of the pipeline's
	// scan did (operators.OpStats.DynFilters).
	DynFilters []operators.DynFilterStats `json:"dynFilters,omitempty"`
}

// TaskStats is a live snapshot of one task: split progress, driver
// occupancy, and per-operator rollups. Safe to call while the task runs —
// operator counters are atomics, the rest is read under the task lock.
type TaskStats struct {
	TaskID        string `json:"taskId"`
	Fragment      int    `json:"fragment"`
	SplitsQueued  int    `json:"splitsQueued"`
	SplitsRunning int    `json:"splitsRunning"`
	SplitsDone    int    `json:"splitsDone"`
	ActiveDrivers int    `json:"activeDrivers"`
	CPUNanos      int64  `json:"cpuNanos"`
	RowsRead      int64  `json:"rowsRead"`
	// ScanRows is what the connectors produced for the task's scans, before
	// a dynamic filter dropped any: the work its splits were, whatever the
	// filters' timing made of it (StageStats.Skew is taken over it).
	ScanRows      int64           `json:"scanRows"`
	BytesRead     int64           `json:"bytesRead"`
	OutputRows    int64           `json:"outputRows"`
	OutputBytes   int64           `json:"outputBytes"`
	OutputBufUtil float64         `json:"outputBufferUtilization"`
	Pipelines     []PipelineStats `json:"pipelines"`
}

// TaskTally is what a task keeps for its statistics: its scalar counters and,
// per pipeline, the operator stats it allocated, each named by the compiled
// template, and what its dynamic filters counted. A finished query holds its
// tasks' tallies, not the tasks — no bridge, buffer or operator — and Stats
// builds the TaskStats snapshot from one when it is asked for. A remote task's
// tally holds its CPU time only.
type TaskTally struct {
	ID            TaskID
	CPUNanos      int64
	SplitsQueued  int
	SplitsRunning int
	SplitsDone    int
	ActiveDrivers int
	OutputBufUtil float64
	Pipelines     []PipelineTally
}

// PipelineTally is one pipeline of a TaskTally.
type PipelineTally struct {
	Pipeline, Drivers, DriversDone int
	// Scan marks a pipeline whose source is a table scan (Ops[0]).
	Scan bool
	// Ops are the task's own counters, by operator position: they are read,
	// not copied, so a tally of a running task stays live.
	Ops        []*operators.OpStats
	DynFilters []operators.DynFilterStats
}

// Tally takes the task's tally.
func (t *Task) Tally() TaskTally {
	tt := TaskTally{ID: t.ID, CPUNanos: t.handle.CPUNanos(), OutputBufUtil: t.output.Utilization()}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt.ActiveDrivers = t.activeDrivers
	tt.Pipelines = make([]PipelineTally, len(t.compiled))
	for i, p := range t.compiled {
		scan := p.source == srcScan
		if scan {
			queued, running, done := p.morsels.splitStats()
			tt.SplitsQueued += queued
			tt.SplitsRunning += running
			tt.SplitsDone += done
		}
		tt.Pipelines[i] = PipelineTally{Pipeline: p.id, Drivers: p.driversStarted, DriversDone: p.driversDone,
			Scan: scan, Ops: p.opStats, DynFilters: dynFilterStats(p)}
	}
	return tt
}

// Stats snapshots the task's execution state.
func (t *Task) Stats() TaskStats {
	tt := t.Tally()
	return tt.Stats()
}

// ScanRows is TaskStats.ScanRows, read off the scans' counters.
func (tt *TaskTally) ScanRows() int64 {
	var rows int64
	for _, p := range tt.Pipelines {
		if p.Scan && len(p.Ops) > 0 {
			rows += p.Ops[0].RowsOut()
		}
	}
	return rows
}

// Stats builds the tally's snapshot.
func (tt *TaskTally) Stats() TaskStats {
	st := TaskStats{
		TaskID:        tt.ID.String(),
		Fragment:      tt.ID.Fragment,
		SplitsQueued:  tt.SplitsQueued,
		SplitsRunning: tt.SplitsRunning,
		SplitsDone:    tt.SplitsDone,
		ActiveDrivers: tt.ActiveDrivers,
		CPUNanos:      tt.CPUNanos,
		OutputBufUtil: tt.OutputBufUtil,
		Pipelines:     make([]PipelineStats, 0, len(tt.Pipelines)),
	}
	for _, p := range tt.Pipelines {
		ps := PipelineStats{
			Pipeline:    p.Pipeline,
			Drivers:     p.Drivers,
			DriversDone: p.DriversDone,
			Operators:   make([]operators.OpStatsSnapshot, len(p.Ops)),
			DynFilters:  p.DynFilters,
		}
		for i, s := range p.Ops {
			ps.Operators[i] = s.Snapshot()
		}
		st.Pipelines = append(st.Pipelines, ps)
		if p.Scan && len(ps.Operators) > 0 {
			// Rows read are the rows a scan gave the query: what the connector
			// produced less what the scan's dynamic filters dropped (they run
			// in the processor placed on it and are counted on its stats).
			// Bytes read are what its sources fetched, not the size of the
			// pages they made: a lazy column that never loads was not read.
			src := ps.Operators[0]
			st.ScanRows += src.RowsOut
			st.RowsRead += src.RowsOut - src.DynRowsFiltered
			st.BytesRead += src.BytesRead
		}
		// The root pipeline (id 0) ends in the partitioned output sink; its
		// input is what the task emits downstream.
		if p.Pipeline == 0 && len(ps.Operators) > 0 {
			sink := ps.Operators[len(ps.Operators)-1]
			st.OutputRows = sink.RowsIn
			st.OutputBytes = sink.BytesIn
		}
	}
	return st
}
