package presto

// An aggregation's group estimate sizes its first table and is a hint: a wrong
// one changes no row and fails no query, and it shows in EXPLAIN ANALYZE
// against what happened (DESIGN.md, "Sizing a group table").

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/workload"
)

// estimateShapes are the benchmark statements whose group tables the
// estimates size most: h18 and q78 of join_local (lineitem grouped by order
// key under a semi join, and under a join) and scan_agg's topk.
var estimateShapes = map[string]string{
	"h18": `SELECT c_name, c_custkey, o_orderkey, o_orderdate, count(*), sum(l_quantity)
		FROM tpch.customer JOIN tpch.orders ON c_custkey = o_custkey
		JOIN tpch.lineitem ON o_orderkey = l_orderkey
		WHERE o_orderkey IN (SELECT l_orderkey FROM tpch.lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 250)
		GROUP BY c_name, c_custkey, o_orderkey, o_orderdate
		ORDER BY o_orderdate, o_orderkey LIMIT 100`,
	"q78": `SELECT o_orderstatus, count(*), sum(total_lines)
		FROM tpch.orders JOIN (SELECT l_orderkey, count(*) AS total_lines FROM tpch.lineitem GROUP BY l_orderkey) l
		ON o_orderkey = l.l_orderkey
		GROUP BY o_orderstatus ORDER BY o_orderstatus`,
	"topk": `SELECT l_partkey, count(*) AS c FROM tpch.lineitem WHERE l_linenumber <> 3
		GROUP BY l_partkey ORDER BY c DESC, l_partkey LIMIT 100`,
}

const estimateScale = 0.5

// estimateNodeCap is the per-node query memory of the wrong-estimate test,
// with spilling off: with every table sized by doubling the three statements
// pass under half of it (h18, the largest, peaks at 1.6–2.0 MB over both nodes
// at estimateScale, and fails under 512 KB a node), and a presize may take a
// quarter of it.
const estimateNodeCap = 2 << 20

// scaledStats is the TPC-H connector with statistics factor times off: its
// row counts and column NDVs are scaled, so every statistics estimate the
// optimizer derives from them is wrong by about that factor. Factor changes
// between statements, never during one.
type scaledStats struct {
	*memconn.Connector
	factor float64
}

func (s *scaledStats) Stats(table string) connector.TableStats {
	st := s.Connector.Stats(table)
	if st.Unknown() {
		return st
	}
	scale := func(n int64) int64 { return max(1, int64(math.Round(float64(n)*s.factor))) }
	ndv := make(map[string]int64, len(st.ColumnNDV))
	for col, n := range st.ColumnNDV {
		ndv[col] = scale(n)
	}
	st.RowCount, st.ColumnNDV = scale(st.RowCount), ndv
	return st
}

// requirePlanShape fails the test unless sql plans on coord as one SINGLE
// fragment when oneTask, and as a distributed plan when not.
func requirePlanShape(t *testing.T, coord *coordinator.Coordinator, sql string, oneTask bool) {
	t.Helper()
	if !oneTask {
		requireDistributed(t, coord, sql)
		return
	}
	_, dp, err := coord.Plan(sql, Session{})
	if err != nil {
		t.Fatalf("%s: plan: %v", sql, err)
	}
	if len(dp.Fragments) != 1 || !dp.Fragments[0].Single {
		t.Fatalf("%s: planned as %d fragments, want one single fragment:\n%s", sql, len(dp.Fragments), dp.Format())
	}
}

// planEstimates sums the groups the partial and final aggregations of sql's
// plan expect, and counts the steps that have an estimate.
func planEstimates(t *testing.T, coord *coordinator.Coordinator, sql string) (groups float64, steps int) {
	t.Helper()
	_, dp, err := coord.Plan(sql, Session{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			if a, ok := n.(*plan.Aggregation); ok && a.Est != nil {
				groups += a.Est.Groups
				steps++
			}
		})
	}
	return groups, steps
}

// operatorEstimates sums the groups the hash aggregations of a finished query
// were sized to expect, as its stats document serves them, and fails the test
// on an estimate whose source is not statistics.
func operatorEstimates(t *testing.T, st QueryStats) float64 {
	t.Helper()
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var served QueryStats
	if err := json.Unmarshal(doc, &served); err != nil {
		t.Fatal(err)
	}
	groups := 0.0
	for _, sg := range served.Stages {
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				if op.EstGroups == 0 {
					continue
				}
				if op.EstSource != string(plan.EstStats) {
					t.Errorf("fragment %d: %s estimate %.0f has source %q, want %q", sg.Fragment, op.Name, op.EstGroups, op.EstSource, plan.EstStats)
				}
				groups += op.EstGroups
			}
		}
	}
	return groups
}

// near reports whether got is within 1.25× of want.
func near(got, want float64) bool { return got <= 1.25*want && want <= 1.25*got }

// TestGroupEstimateWrongByHundred: with the connector's statistics a hundred
// times too large, and a hundred times too small, every aggregation that has
// a statistics estimate in h18, q78 and topk expects about that factor times
// its honest groups, in process and on HTTP workers. Each statement returns
// the rows it returns with no estimate, under a per-node limit it passes
// today with spilling off — so no reservation went past the cap, the
// presize's own included (its quarter rule is TestPresizeIsAHint's) — and in
// process the operators show the scaled estimate (HTTP workers keep their
// operator stats). An aggregation over a join's output (h18's and q78's
// outer GROUP BY) has no statistics estimate, so a wrong estimate cannot be
// injected there. A hundred times too small, the tables pass the optimizer's
// small-plan bounds: each statement runs as one task on one node, under the
// same per-node limit, with one SINGLE step where the honest plan has a
// partial and a final one, and that step's operator expects the groups its
// plan does.
func TestGroupEstimateWrongByHundred(t *testing.T) {
	limits := memory.QueryLimits{PerNodeUser: estimateNodeCap}
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true, DisableStats: true})
	t.Cleanup(ref.Close)
	ref.Register(workload.LoadTPCHMemory("tpch", estimateScale))

	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true,
		DisablePlanCache: true, PerNodeQueryMemoryBytes: estimateNodeCap})
	t.Cleanup(local.Close)
	localStats := &scaledStats{Connector: workload.LoadTPCHMemory("tpch", estimateScale), factor: 1}
	local.Register(localStats)
	remote := newDistClusterWith(t, 2, distConfig{limits: limits})
	remoteStats := &scaledStats{Connector: workload.LoadTPCHMemory("tpch", estimateScale), factor: 1}
	remote.catalog.Register(remoteStats)

	for _, id := range []string{"h18", "q78", "topk"} {
		sql := estimateShapes[id]
		want := roundedRows(mustExec(t, ref, sql))
		var honestPlan, honestOps float64
		var honestSteps int
		for _, factor := range []float64{1, 100, 0.01} {
			name := fmt.Sprintf("%s ×%v", id, factor)
			localStats.factor, remoteStats.factor = factor, factor
			// A hundred times too small, every table here is under the
			// optimizer's small-plan bounds: the statement is one task, and
			// each aggregation with an estimate is one SINGLE step, not a
			// partial and a final one, that expects every group.
			oneTask := factor < 1
			requirePlanShape(t, local.Coordinator, sql, oneTask)
			requirePlanShape(t, remote.Coord, sql, oneTask)
			wantSteps, wantGroups := honestSteps, factor*honestPlan
			if oneTask {
				wantSteps, wantGroups = honestSteps/2, factor*honestPlan/2
			}

			groups, steps := planEstimates(t, local.Coordinator, sql)
			res, err := local.Execute(sql)
			if err != nil {
				t.Fatalf("%s in-process: %v", name, err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatalf("%s in-process: %v", name, err)
			}
			assertRows(t, name+" in-process", roundedRows(rows), want)
			st, _ := local.QueryStats(res.QueryID)
			ops := operatorEstimates(t, st)
			switch {
			case factor == 1:
				honestPlan, honestSteps, honestOps = groups, steps, ops
				wantSteps, wantGroups = steps, groups
				if steps == 0 || ops == 0 {
					t.Fatalf("%s: no aggregation has a statistics estimate", name)
				}
			case oneTask:
				if st.Tasks != 1 {
					t.Errorf("%s in-process: %d tasks, want 1", name, st.Tasks)
				}
				if steps != wantSteps || !near(groups, wantGroups) {
					t.Errorf("%s: %d steps expect %.0f groups, want %d expecting about %.0f", name, steps, groups, wantSteps, wantGroups)
				}
				if !near(ops, groups) {
					t.Errorf("%s in-process: the one task's operators expect %.0f groups, want its plan's %.0f", name, ops, groups)
				}
			default:
				if steps != wantSteps || !near(groups, wantGroups) {
					t.Errorf("%s: %d steps expect %.0f groups, want %d expecting about %.0f", name, steps, groups, wantSteps, wantGroups)
				}
				if !near(ops, factor*honestOps) {
					t.Errorf("%s in-process: the operators expect %.0f groups, want about %.0f", name, ops, factor*honestOps)
				}
			}

			if groups, steps := planEstimates(t, remote.Coord, sql); steps != wantSteps || !near(groups, wantGroups) {
				t.Errorf("%s on HTTP workers: %d steps expect %.0f groups, want %d expecting about %.0f", name, steps, groups, wantSteps, wantGroups)
			}
			rows, err = remote.Query(sql)
			if err != nil {
				t.Fatalf("%s on HTTP workers: %v", name, err)
			}
			assertRows(t, name+" on HTTP workers", roundedRows(rows), want)
		}
	}
}

// TestGroupEstimateInExplainAnalyze: EXPLAIN ANALYZE shows each statistics
// estimate of q78 (the order-key aggregation's partial and final steps)
// beside the groups that arrived, and nothing for the status aggregation over
// the join, which has none.
func TestGroupEstimateInExplainAnalyze(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", estimateScale))
	requireDistributed(t, c.Coordinator, estimateShapes["q78"])
	withEst, without := 0, 0
	for _, r := range mustExec(t, c, "EXPLAIN ANALYZE "+estimateShapes["q78"]) {
		line := r[0].String()
		switch {
		case !strings.Contains(line, "HashAggregation"):
		case strings.Contains(line, "groups est") && strings.Contains(line, "(stats)"):
			withEst++
		default:
			without++
		}
	}
	if withEst != 2 || without != 2 {
		t.Errorf("EXPLAIN ANALYZE shows %d aggregations with a statistics estimate and %d without, want 2 and 2", withEst, without)
	}
}
