package coordinator

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/operators"
)

// PipelineRollup aggregates one pipeline's operator stats across the tasks
// of a stage.
type PipelineRollup struct {
	Pipeline    int                         `json:"pipeline"`
	Drivers     int                         `json:"drivers"`
	DriversDone int                         `json:"driversDone"`
	Operators   []operators.OpStatsSnapshot `json:"operators"`
}

// StageStats aggregates the tasks of one fragment.
type StageStats struct {
	Fragment int   `json:"fragment"`
	Tasks    int   `json:"tasks"`
	CPUNanos int64 `json:"cpuNanos"`
	// Where the splits went, by task index: the rows each task's scans were
	// handed by their connectors (exec.TaskStats.ScanRows) and the splits it
	// has finished. Skew is the largest task's rows over the mean: 1 is an
	// even stage, Tasks is one task doing all of it, 0 a stage that scanned
	// nothing (or whose tasks are remote and report no rows).
	TaskInputRows []int64          `json:"taskInputRows"`
	TaskSplits    []int            `json:"taskSplits"`
	Skew          float64          `json:"skew"`
	Pipelines     []PipelineRollup `json:"pipelines"`
}

// inputSkew is max/mean of a stage's per-task input rows, 0 for no rows.
func inputSkew(rows []int64) float64 {
	var total int64
	for _, r := range rows {
		total += r
	}
	if total == 0 {
		return 0
	}
	return float64(slices.Max(rows)) * float64(len(rows)) / float64(total)
}

// QueryStats is the live rollup served by /v1/query/{id}/stats: query-level
// progress counters plus per-stage, per-pipeline, per-operator breakdowns.
// It is valid both while the query runs (live counters) and after it
// finishes (final totals — tasks are retained on the query record).
type QueryStats struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is why a failed query failed; a recovered operator panic carries
	// its stack here.
	Error string `json:"error,omitempty"`
	// Switches is the query's effective switch set (exec.Switches.String).
	Switches        string `json:"switches"`
	ElapsedNanos    int64  `json:"elapsedNanos"`
	CPUNanos        int64  `json:"cpuNanos"`
	BlockedNanos    int64  `json:"blockedNanos"`
	PeakMemoryBytes int64  `json:"peakMemoryBytes"`
	SplitsTotal     int64  `json:"splitsTotal"`
	SplitsQueued    int    `json:"splitsQueued"`
	SplitsRunning   int    `json:"splitsRunning"`
	SplitsDone      int    `json:"splitsDone"`
	RowsRead        int64  `json:"rowsRead"`
	BytesRead       int64  `json:"bytesRead"`
	OutputRows      int64  `json:"outputRows"`
	Tasks           int    `json:"tasks"`
	// Dynamic-filter effect rollups: probe rows dropped by pushed build-side
	// summaries, splits skipped outright (empty build short-circuit), and
	// total time scans spent gated waiting for a filter to arrive.
	DynRowsFiltered    int64 `json:"dynRowsFiltered,omitempty"`
	DynSplitsSkipped   int64 `json:"dynSplitsSkipped,omitempty"`
	DynFilterWaitNanos int64 `json:"dynFilterWaitNanos,omitempty"`
	// Vectorized-projection rollups: projections evaluated by the columnar
	// kernels and shared-subtree evaluations saved by CSE.
	VecProjEvals int64        `json:"vecProjEvals,omitempty"`
	CSEHits      int64        `json:"cseHits,omitempty"`
	Stages       []StageStats `json:"stages"`
}

// QueryStats snapshots a query's execution statistics, rolling task stats up
// into per-stage operator aggregates.
func (c *Coordinator) QueryStats(id string) (QueryStats, bool) {
	c.mu.Lock()
	q, ok := c.queries[id]
	c.mu.Unlock()
	if !ok {
		return QueryStats{}, false
	}

	q.mu.Lock()
	info := q.Info
	tasks, final := q.tasks, q.final
	qmem := q.qmem
	result := q.result
	q.mu.Unlock()

	st := QueryStats{
		ID:          info.ID,
		State:       info.State.String(),
		Switches:    q.session.Switches.String(),
		SplitsTotal: q.splitsTotal.Load(),
		Tasks:       len(tasks) + len(final),
	}
	if info.Err != nil {
		st.Error = info.Err.Error()
	}
	switch {
	case info.Started.IsZero():
	case info.Finished.IsZero():
		st.ElapsedNanos = time.Since(info.Started).Nanoseconds()
	default:
		st.ElapsedNanos = info.Finished.Sub(info.Started).Nanoseconds()
	}
	if qmem != nil {
		st.PeakMemoryBytes = qmem.PeakBytes()
	}
	if result != nil {
		st.OutputRows = result.RowCount()
	}

	if final == nil {
		final = make([]exec.TaskStats, len(tasks))
		for i, t := range tasks {
			final[i] = t.Stats()
		}
	}
	stages := map[int]*StageStats{}
	for _, ts := range final {
		st.CPUNanos += ts.CPUNanos
		st.SplitsQueued += ts.SplitsQueued
		st.SplitsRunning += ts.SplitsRunning
		st.SplitsDone += ts.SplitsDone
		st.RowsRead += ts.RowsRead
		st.BytesRead += ts.BytesRead
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
	for _, f := range frags {
		sg := stages[f]
		sg.Skew = inputSkew(sg.TaskInputRows)
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				st.BlockedNanos += op.BlockedNanos
				st.DynRowsFiltered += op.DynRowsFiltered
				st.DynSplitsSkipped += op.DynSplitsSkipped
				st.DynFilterWaitNanos += op.DynWaitNanos
				st.VecProjEvals += op.VecProjEvals
				st.CSEHits += op.CSEHits
			}
		}
		st.Stages = append(st.Stages, *sg)
	}
	return st, true
}

// DynFilterTotals reports the cumulative dynamic-filter effect across all
// finished queries: rows dropped on probe scans, splits skipped outright, and
// total time spent gated waiting for filters.
func (c *Coordinator) DynFilterTotals() (rowsFiltered, splitsSkipped, waitNanos int64) {
	return c.dynRowsFiltered.Load(), c.dynSplitsSkipped.Load(), c.dynWaitNanos.Load()
}

// ControlPlaneTotals reports what distributed mode's control plane did across
// all queries: dynamic-filter summaries that arrived from workers' status
// channels, unions a worker acknowledged, and query DELETEs that failed.
func (c *Coordinator) ControlPlaneTotals() (publications, deliveries, deleteFailures int64) {
	return c.dynPublications.Load(), c.dynDeliveries.Load(), c.deleteFailures.Load()
}

// VecProjTotals reports the cumulative vectorized-projection counters
// across all finished queries: kernel evaluations, CSE-saved evaluations,
// and dictionary projection cache evictions.
func (c *Coordinator) VecProjTotals() (vecEvals, cseHits, dictEvictions int64) {
	return c.vecProjEvals.Load(), c.cseHits.Load(), c.dictEvictions.Load()
}

// StageSkew is the coordinator-lifetime distribution of StageStats.Skew over
// the scanning stages of finished queries (/v1/metrics exports it).
func (c *Coordinator) StageSkew() *metrics.BucketHistogram { return c.stageSkew }

// DictionaryRows returns, per operator name, the rows finished queries
// handled by dictionary entry instead of row by row (/v1/metrics exports it as
// presto_dictionary_rows_total).
func (c *Coordinator) DictionaryRows() map[string]int64 {
	c.dictRowsMu.Lock()
	defer c.dictRowsMu.Unlock()
	out := make(map[string]int64, len(c.dictRows))
	for name, rows := range c.dictRows {
		out[name] = rows
	}
	return out
}

// ScanRowsPerPage is the coordinator-lifetime distribution of the mean page a
// task's scan operator produced, over finished queries (/v1/metrics exports
// it): mass in the low buckets means tables made of tiny pages.
func (c *Coordinator) ScanRowsPerPage() *metrics.BucketHistogram { return c.scanRowsPerPage }

// accumulateDynStats folds one finished query's dynamic-filter and
// vectorized-projection counters, its scanning stages' input skew and its
// scans' page sizes into the coordinator-lifetime totals.
func (c *Coordinator) accumulateDynStats(tasks []exec.TaskStats) {
	stageRows := map[int][]int64{}
	for _, ts := range tasks {
		stageRows[ts.Fragment] = append(stageRows[ts.Fragment], ts.ScanRows)
	}
	for _, rows := range stageRows {
		if skew := inputSkew(rows); skew > 0 {
			c.stageSkew.Observe(skew)
		}
	}
	for _, ts := range tasks {
		for _, pl := range ts.Pipelines {
			for _, op := range pl.Operators {
				c.dynRowsFiltered.Add(op.DynRowsFiltered)
				c.dynSplitsSkipped.Add(op.DynSplitsSkipped)
				c.dynWaitNanos.Add(op.DynWaitNanos)
				c.vecProjEvals.Add(op.VecProjEvals)
				c.cseHits.Add(op.CSEHits)
				c.dictEvictions.Add(op.DictEvictions)
				if op.DictRows > 0 {
					c.dictRowsMu.Lock()
					if c.dictRows == nil {
						c.dictRows = map[string]int64{}
					}
					c.dictRows[op.Name] += op.DictRows
					c.dictRowsMu.Unlock()
				}
				if pages := scanPages(op); pages > 0 {
					c.scanRowsPerPage.Observe(float64(op.RowsOut) / float64(pages))
				}
			}
		}
	}
}

// scanPages is how many pages a table scan produced, 0 for any other operator
// (the name is the one exec's pipeline compiler gives a scan source).
func scanPages(op operators.OpStatsSnapshot) int64 {
	if op.Name != "TableScan" {
		return 0
	}
	return op.PagesOut
}

// mergePipelines folds one task's pipelines into the stage rollup
// element-wise: every task of a stage compiles the same fragment, so
// pipeline and operator positions line up.
func mergePipelines(sg *StageStats, pls []exec.PipelineStats) {
	for _, pl := range pls {
		var target *PipelineRollup
		for i := range sg.Pipelines {
			if sg.Pipelines[i].Pipeline == pl.Pipeline {
				target = &sg.Pipelines[i]
				break
			}
		}
		if target == nil {
			sg.Pipelines = append(sg.Pipelines, PipelineRollup{Pipeline: pl.Pipeline})
			target = &sg.Pipelines[len(sg.Pipelines)-1]
		}
		target.Drivers += pl.Drivers
		target.DriversDone += pl.DriversDone
		for i, op := range pl.Operators {
			if i < len(target.Operators) {
				target.Operators[i].Merge(op)
			} else {
				target.Operators = append(target.Operators, op)
			}
		}
	}
}

// joinSlash renders per-task counts as "150012 / 149988".
func joinSlash[T int | int64](vs []T) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(parts, " / ")
}

// FormatOperatorTable renders the per-operator breakdown appended to
// EXPLAIN ANALYZE output and printed by presto-cli --stats.
func FormatOperatorTable(st QueryStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Operator stats:\n")
	for _, sg := range st.Stages {
		fmt.Fprintf(&sb, "Fragment %d (%d tasks, cpu %s):\n",
			sg.Fragment, sg.Tasks, time.Duration(sg.CPUNanos).Round(10*time.Microsecond))
		if sg.Skew > 0 {
			fmt.Fprintf(&sb, "  Tasks: %d (rows %s, splits %s, skew %.2f)\n", sg.Tasks,
				joinSlash(sg.TaskInputRows), joinSlash(sg.TaskSplits), sg.Skew)
		}
		for _, pl := range sg.Pipelines {
			fmt.Fprintf(&sb, "  pipeline %d (%d drivers):\n", pl.Pipeline, pl.Drivers)
			for _, op := range pl.Operators {
				fmt.Fprintf(&sb, "    %-20s rows %d/%d  wall %s  cpu %s  blocked %s  peak mem %d B",
					op.Name, op.RowsIn, op.RowsOut,
					time.Duration(op.WallNanos).Round(10*time.Microsecond),
					time.Duration(op.CPUNanos).Round(10*time.Microsecond),
					time.Duration(op.BlockedNanos).Round(10*time.Microsecond),
					op.PeakMemBytes)
				if pages := scanPages(op); pages > 0 {
					fmt.Fprintf(&sb, "  pages %d (avg %d rows)", pages, op.RowsOut/pages)
				}
				if total := op.CacheHits + op.CacheMisses; total > 0 {
					fmt.Fprintf(&sb, "  cache %d/%d", op.CacheHits, total)
				}
				if op.DynRowsFiltered+op.DynSplitsSkipped+op.DynWaitNanos > 0 {
					fmt.Fprintf(&sb, "  dyn rows-skipped %d  dyn splits-skipped %d  dyn wait %s",
						op.DynRowsFiltered, op.DynSplitsSkipped,
						time.Duration(op.DynWaitNanos).Round(10*time.Microsecond))
				}
				if op.VecProjEvals+op.CSEHits > 0 {
					fmt.Fprintf(&sb, "  vec-proj %d  cse-hits %d", op.VecProjEvals, op.CSEHits)
				}
				if op.EncodedCols > 0 {
					fmt.Fprintf(&sb, "  encoded-cols %d", op.EncodedCols)
				}
				if op.DictRows > 0 {
					fmt.Fprintf(&sb, "  dict-rows %d", op.DictRows)
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}
