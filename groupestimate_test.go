package presto

// An aggregation's group estimate sizes its first table and is a hint: a wrong
// one changes no row and fails no query, it shows in EXPLAIN ANALYZE against
// what happened, history corrects it, and nothing that identifies a plan moves
// with it (DESIGN.md, "Sizing a group table").

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/coordinator"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/serving"
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

// forceGroupEstimates records, as history, factor times the groups each
// partial and final aggregation of sql expects — its statistics estimate, or
// 1 000 where it has none — under the fingerprints the optimizer looks them up
// by, so the next plan of sql carries them.
func forceGroupEstimates(t *testing.T, coord *coordinator.Coordinator, h optimizer.History, sql string, factor float64) {
	t.Helper()
	_, dp, err := coord.Plan(sql, Session{})
	if err != nil {
		t.Fatal(err)
	}
	opts := optimizer.HistoryFingerprintOpts(coord.Catalog, dp)
	for _, f := range dp.Fragments {
		plan.Walk(f.Root, func(n plan.Node) {
			a, ok := n.(*plan.Aggregation)
			if !ok || a.Step == plan.AggSingle {
				return
			}
			groups := 1000.0
			if a.Est != nil && a.Est.Source == plan.EstStats {
				groups = a.Est.Groups
			}
			h.Record(plan.CardFingerprint(a, opts), factor*groups)
		})
	}
}

// TestGroupEstimateWrongByHundred: with every aggregation of h18, q78 and topk
// told to expect a hundred times too many groups, and a hundred times too few,
// in-process and on HTTP workers, each statement returns the rows it returns
// with no estimate, under a per-node limit it passes today with spilling off —
// so no reservation went past the cap, the presize's own included (its quarter
// rule is TestPresizeIsAHint's) — and the wrong estimates did reach the
// operators.
func TestGroupEstimateWrongByHundred(t *testing.T) {
	limits := memory.QueryLimits{PerNodeUser: estimateNodeCap}
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true, DisableStats: true})
	t.Cleanup(ref.Close)
	ref.Register(workload.LoadTPCHMemory("tpch", estimateScale))

	local := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true,
		DisablePlanCache: true, EnableHBO: true, PerNodeQueryMemoryBytes: estimateNodeCap})
	t.Cleanup(local.Close)
	local.Register(workload.LoadTPCHMemory("tpch", estimateScale))
	remoteHistory := optimizer.NewMemoryHistory()
	remote := newDistClusterWith(t, 2, distConfig{history: remoteHistory, limits: limits})
	remote.catalog.Register(workload.LoadTPCHMemory("tpch", estimateScale))

	for _, id := range []string{"h18", "q78", "topk"} {
		sql := estimateShapes[id]
		want := roundedRows(mustExec(t, ref, sql))
		for _, factor := range []float64{100, 0.01} {
			forceGroupEstimates(t, local.Coordinator, local.Coordinator.History(), sql, factor)
			res, err := local.Execute(sql)
			if err != nil {
				t.Fatalf("%s ×%v in-process: %v", id, factor, err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatalf("%s ×%v in-process: %v", id, factor, err)
			}
			assertRows(t, fmt.Sprintf("%s ×%v in-process", id, factor), roundedRows(rows), want)
			st, _ := local.QueryStats(res.QueryID)
			if !sizedFromHistory(st) {
				t.Errorf("%s ×%v in-process: no aggregation was sized from the forced estimates", id, factor)
			}

			forceGroupEstimates(t, remote.Coord, remoteHistory, sql, factor)
			rows, err = remote.Query(sql)
			if err != nil {
				t.Fatalf("%s ×%v on HTTP workers: %v", id, factor, err)
			}
			assertRows(t, fmt.Sprintf("%s ×%v on HTTP workers", id, factor), roundedRows(rows), want)
		}
	}
}

// sizedFromHistory reports whether any hash aggregation of the query was
// sized from a history estimate.
func sizedFromHistory(st QueryStats) bool {
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				if op.EstSource == string(plan.EstHistory) {
					return true
				}
			}
		}
	}
	return false
}

// TestGroupEstimateQErrorFromHistory: the first run of q78 sizes its order-key
// aggregation from statistics and its status aggregation not at all; the
// second, with history-based optimization on, sizes every aggregation from the
// rows the first recorded, and EXPLAIN ANALYZE and the stats endpoint's
// document show each estimate within 1.25× of the groups that arrived. The
// EXPLAIN text, every node's fingerprint and the result-cache base are the
// same under both sets of estimates.
func TestGroupEstimateQErrorFromHistory(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1, DisableResultCache: true, EnableHBO: true})
	t.Cleanup(c.Close)
	c.Register(workload.LoadTPCHMemory("tpch", estimateScale))
	sql := estimateShapes["q78"]

	type planView struct {
		text, resultBase string
		fps              []uint64
		sources          []string
	}
	view := func() planView {
		logical, dp, err := c.Coordinator.Plan(sql, Session{})
		if err != nil {
			t.Fatal(err)
		}
		v := planView{text: plan.Format(logical) + dp.Format()}
		v.resultBase = fmt.Sprint(serving.ResultBase(plan.Format(logical), nil))
		for _, f := range dp.Fragments {
			plan.Walk(f.Root, func(n plan.Node) {
				v.fps = append(v.fps, plan.CardFingerprint(n, optimizer.HistoryFingerprintOpts(c.Coordinator.Catalog, dp)))
				if a, ok := n.(*plan.Aggregation); ok && a.Step != plan.AggSingle {
					src := "none"
					if a.Est != nil {
						src = string(a.Est.Source)
					}
					v.sources = append(v.sources, src)
				}
			})
		}
		return v
	}
	before := view()
	if got := strings.Join(before.sources, ","); got != "stats,stats,none,none" {
		t.Errorf("first plan's estimate sources %s, want stats,stats,none,none", got)
	}
	mustExec(t, c, sql)
	after := view()
	if got := strings.Join(after.sources, ","); got != "history,history,history,history" {
		t.Errorf("second plan's estimate sources %s, want history on every step", got)
	}
	if after.text != before.text || after.resultBase != before.resultBase || fmt.Sprint(after.fps) != fmt.Sprint(before.fps) {
		t.Errorf("the plan's identity moved with its estimates:\n%s\n%s", before.text, after.text)
	}

	rows := mustExec(t, c, "EXPLAIN ANALYZE "+sql)
	lines := 0
	for _, r := range rows {
		if line := r[0].String(); strings.Contains(line, "HashAggregation") {
			lines++
			if !strings.Contains(line, "groups est") || !strings.Contains(line, "(history)") {
				t.Errorf("EXPLAIN ANALYZE shows no history estimate: %s", line)
			}
		}
	}
	if lines != 4 {
		t.Errorf("EXPLAIN ANALYZE shows %d aggregations, want 4", lines)
	}

	res, err := c.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	st, _ := c.QueryStats(res.QueryID)
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var served QueryStats
	if err := json.Unmarshal(doc, &served); err != nil {
		t.Fatal(err)
	}
	aggs := 0
	for _, sg := range served.Stages {
		for _, pl := range sg.Pipelines {
			for _, op := range pl.Operators {
				if op.Name != "HashAggregation" {
					continue
				}
				aggs++
				if op.EstSource != string(plan.EstHistory) || op.GroupQError() > 1.25 {
					t.Errorf("fragment %d: estimate %.0f (%s) against %d groups, q-error %.2f; want history within 1.25x",
						sg.Fragment, op.EstGroups, op.EstSource, op.RowsOut, op.GroupQError())
				}
			}
		}
	}
	if aggs != 4 {
		t.Errorf("the stats document shows %d aggregations, want 4", aggs)
	}
}
