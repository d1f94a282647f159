package main

import (
	"time"

	"repro/internal/analyzer"
	"repro/internal/coordinator"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
)

// planTimes is one outside replay of the coordinator's planning phases on a
// statement's text. Zero durations mean the phase does not apply (DDL is
// parsed but never planned).
type planTimes struct {
	parseStart                         time.Time
	parse, analyze, optimize, fragment time.Duration
}

func (p planTimes) total() time.Duration { return p.parse + p.analyze + p.optimize + p.fragment }

// replayPlan times the benchmark's own calls into the parser, analyzer and
// optimizer, against the engine's catalog. It is not the in-program path: the
// coordinator may serve the same statement from its plan cache.
func (e *engine) replayPlan(sql string) planTimes {
	var pt planTimes
	pt.parseStart = time.Now()
	stmt, err := sqlparser.Parse(sql)
	t1 := time.Now()
	pt.parse = t1.Sub(pt.parseStart)
	if err != nil {
		return pt
	}
	logical, err := analyzer.New(e.coord.Catalog, "memory").PlanStatement(stmt)
	t2 := time.Now()
	if err != nil {
		return pt
	}
	pt.analyze = t2.Sub(t1)
	opt := optimizer.New(e.coord.Catalog, optimizer.DefaultConfig())
	optimized := opt.Optimize(logical)
	t3 := time.Now()
	pt.optimize = t3.Sub(t2)
	opt.Fragment(optimized)
	pt.fragment = time.Since(t3)
	return pt
}

// Operator groups for the CPU shares, by the names the engine gives its
// operators in QueryStats.
var operatorGroup = map[string]string{
	"TableScan": "scan", "Values": "scan",
	"FilterProject":   "filterproject",
	"HashAggregation": "hashagg", "Distinct": "hashagg",
	"HashBuild": "join", "LookupJoin": "join", "IndexJoin": "join",
	"ExchangeSource": "exchange", "LocalExchangeSource": "exchange",
	"LocalExchangeSink": "exchange", "PartitionedOutput": "exchange",
	"Sort": "sort_topn", "TopN": "sort_topn", "Limit": "sort_topn", "Window": "sort_topn",
	"TableWriter": "writer",
}

// layerStats accumulates the per-op layer numbers of a traced run.
type layerStats struct {
	ops int

	parseUs, analyzeUs, optimizeUs, fragmentUs []float64
	firstPageMs, drainMs, outsideExecMs        []float64
	queryPeakMB                                []float64
	planNanos, latencyNanos                    int64

	statOps                                int // ops that had a QueryStats rollup
	cpuNanos, blockedNanos, elapsedNanos   int64
	splits                                 int64
	groupCPU                               map[string]int64
	operatorCPU                            int64
	scanRows, scanCPU                      int64
	aggRows, aggCPU                        int64
	probeRows, probeCPU                    int64
	vecEvals, cseHits                      int64
	dynRowsFiltered, rowsRead, dynWaitNano int64
	bytesRead                              int64
	spillFiles, spillWritten, spillRead    int64
}

func newLayerStats() *layerStats { return &layerStats{groupCPU: map[string]int64{}} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// addOp folds in one traced statement: its planning replay, its latency
// split, and the engine's own rollup for it when there is one (DDL, cached
// results and HTTP-distributed queries have none or an empty one).
func (l *layerStats) addOp(pt planTimes, r *opResult, st coordinator.QueryStats, haveStats bool) {
	l.ops++
	l.parseUs = append(l.parseUs, us(pt.parse))
	if pt.analyze > 0 {
		l.analyzeUs = append(l.analyzeUs, us(pt.analyze))
		l.optimizeUs = append(l.optimizeUs, us(pt.optimize))
		l.fragmentUs = append(l.fragmentUs, us(pt.fragment))
	}
	l.planNanos += int64(pt.total())
	l.latencyNanos += int64(r.latency())
	l.firstPageMs = append(l.firstPageMs, ms(r.firstPage.Sub(r.start)))
	l.drainMs = append(l.drainMs, ms(r.end.Sub(r.firstPage)))
	l.spillFiles += r.spill.FilesCreated
	l.spillWritten += r.spill.BytesWritten
	l.spillRead += r.spill.BytesRead
	if !haveStats {
		return
	}
	l.statOps++
	l.outsideExecMs = append(l.outsideExecMs, ms(r.latency()-time.Duration(st.ElapsedNanos)))
	l.queryPeakMB = append(l.queryPeakMB, float64(st.PeakMemoryBytes)/mb)
	l.cpuNanos += st.CPUNanos
	l.blockedNanos += st.BlockedNanos
	l.elapsedNanos += st.ElapsedNanos
	l.splits += st.SplitsTotal
	l.vecEvals += st.VecProjEvals
	l.cseHits += st.CSEHits
	l.dynRowsFiltered += st.DynRowsFiltered
	l.dynWaitNano += st.DynFilterWaitNanos
	l.rowsRead += st.RowsRead
	l.bytesRead += st.BytesRead
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				l.operatorCPU += op.CPUNanos
				if g, ok := operatorGroup[op.Name]; ok {
					l.groupCPU[g] += op.CPUNanos
				}
				switch op.Name {
				case "TableScan":
					l.scanRows += op.RowsOut
					l.scanCPU += op.CPUNanos
				case "HashAggregation":
					l.aggRows += op.RowsIn
					l.aggCPU += op.CPUNanos
				case "LookupJoin":
					l.probeRows += op.RowsIn
					l.probeCPU += op.CPUNanos
				}
			}
		}
	}
}

func perSecond(rows, nanos int64) float64 {
	return ratio(float64(rows), float64(nanos)/1e9)
}

// clientMetrics renders what the benchmark measured itself around each traced
// statement: the planning replay, the latency split, the spill counters.
func (l *layerStats) clientMetrics(out map[string]float64) {
	out["sqlparser.parse_us"] = median(l.parseUs)
	out["analyzer.analyze_us"] = median(l.analyzeUs)
	out["optimizer.optimize_us"] = median(l.optimizeUs)
	out["optimizer.fragment_us"] = median(l.fragmentUs)
	out["coordinator.plan_share"] = ratio(float64(l.planNanos), float64(l.latencyNanos))
	out["coordinator.first_page_ms"] = median(l.firstPageMs)
	out["coordinator.drain_ms"] = median(l.drainMs)
	out["spill.bytes_written_per_input_row"] = ratio(float64(l.spillWritten), float64(l.rowsRead))
	out["spill.read_amplification"] = ratio(float64(l.spillRead), float64(l.spillWritten))
	out["spill.files_per_op"] = ratio(float64(l.spillFiles), float64(l.ops))
}

// rollupMetrics renders what comes from the engine's QueryStats rollup of the
// traced statements' tasks. The HTTP-distributed coordinator has no such
// rollup, so a traced join_http run takes these from its join_local twin.
func (l *layerStats) rollupMetrics(out map[string]float64) {
	out["coordinator.outside_exec_ms"] = median(l.outsideExecMs)
	out["memory.query_peak_mb"] = median(l.queryPeakMB)
	n := float64(l.statOps)
	out["exec.cpu_ms_per_op"] = ratio(float64(l.cpuNanos)/1e6, n)
	out["exec.blocked_ms_per_op"] = ratio(float64(l.blockedNanos)/1e6, n)
	out["exec.cpu_utilisation"] = ratio(float64(l.cpuNanos), float64(l.elapsedNanos)*benchWorkers*benchThreads)
	out["exec.splits_per_op"] = ratio(float64(l.splits), n)
	for _, g := range []string{"scan", "filterproject", "hashagg", "join", "exchange", "sort_topn", "writer"} {
		out["operators."+g+"_cpu_share"] = ratio(float64(l.groupCPU[g]), float64(l.operatorCPU))
	}
	out["operators.scan_rows_per_s"] = perSecond(l.scanRows, l.scanCPU)
	out["operators.hashagg_rows_per_s"] = perSecond(l.aggRows, l.aggCPU)
	out["operators.join_probe_rows_per_s"] = perSecond(l.probeRows, l.probeCPU)
	out["expr.vecproj_evals_per_op"] = ratio(float64(l.vecEvals), n)
	out["expr.cse_hits_per_op"] = ratio(float64(l.cseHits), n)
	out["dynfilter.rows_filtered_share"] = ratio(float64(l.dynRowsFiltered), float64(l.dynRowsFiltered+l.rowsRead))
	out["dynfilter.wait_ms_per_op"] = ratio(float64(l.dynWaitNano)/1e6, n)
}
