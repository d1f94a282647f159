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

// Stats snapshots the task's execution state.
func (t *Task) Stats() TaskStats {
	st := TaskStats{
		TaskID:        t.ID.String(),
		Fragment:      t.ID.Fragment,
		CPUNanos:      t.handle.CPUNanos(),
		OutputBufUtil: t.output.Utilization(),
	}
	t.mu.Lock()
	for _, splits := range t.pendingSplits {
		st.SplitsQueued += len(splits)
	}
	for id, n := range t.runningSplits {
		if _, ok := t.morsels[id]; ok {
			continue // morsel-mode: n counts drivers, not splits
		}
		st.SplitsRunning += n
	}
	for _, n := range t.splitsDone {
		st.SplitsDone += n
	}
	for _, q := range t.morsels {
		queued, running, done := q.splitStats()
		st.SplitsQueued += queued
		st.SplitsRunning += running
		st.SplitsDone += done
	}
	st.ActiveDrivers = t.activeDrivers
	st.Pipelines = make([]PipelineStats, 0, len(t.compiled))
	for _, p := range t.compiled {
		ps := PipelineStats{
			Pipeline:    p.id,
			Drivers:     p.driversStarted,
			DriversDone: p.driversDone,
			Operators:   make([]operators.OpStatsSnapshot, 0, len(p.opStats)),
		}
		for _, s := range p.opStats {
			ps.Operators = append(ps.Operators, s.Snapshot())
		}
		st.Pipelines = append(st.Pipelines, ps)
		if p.source == srcScan && len(p.opStats) > 0 {
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
	}
	t.mu.Unlock()
	// The root pipeline (id 0) ends in the partitioned output sink; its
	// input is what the task emits downstream.
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
