package exec

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// ---- dynamic filters in the processor on the scan ----

// Tables of the dynamic-filter tests: the probe side p(a bigint, b double,
// s varchar), whose a cycles through dynProbeKeys values, and the build side
// u(k bigint) holding the first dynBuildKeys of them.
const (
	dynProbeKeys = 100
	dynBuildKeys = 10
	dynPageRows  = 4096
)

func dynProbePages(pages int) []*block.Page {
	tags := []string{"x", "y", "z"}
	var out []*block.Page
	for pg := 0; pg < pages; pg++ {
		a, b, s := make([]int64, dynPageRows), make([]float64, dynPageRows), make([]string, dynPageRows)
		for i := range a {
			n := pg*dynPageRows + i
			a[i], b[i], s[i] = int64(n%dynProbeKeys), float64(n%7), tags[n%3]
		}
		out = append(out, block.NewPage(block.NewLongBlock(a, nil), block.NewDoubleBlock(b, nil), block.NewVarcharBlock(s, nil)))
	}
	return out
}

func dynBuildPage() *block.Page {
	k := make([]int64, dynBuildKeys)
	for i := range k {
		k[i] = int64(i)
	}
	return block.NewPage(block.NewLongBlock(k, nil))
}

// dynBuildSummary is the summary the build side's keys make.
func dynBuildSummary() *dynfilter.Summary {
	s := dynfilter.NewSummary(types.Bigint)
	for k := 0; k < dynBuildKeys; k++ {
		s.AddLong(int64(k), dynfilter.DefaultMaxSet)
	}
	return s
}

// dynJoinPlan is p JOIN u ON a = k with p subscribed to filter 1 on a, under
// a partial aggregation by s when agg is set. The join publishes nothing: the
// tests deliver the summary themselves, when they mean to.
func dynJoinPlan(agg bool) plan.Node {
	probe := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "p"}, Columns: []string{"a", "b", "s"},
		Out:        plan.Schema{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}},
		DynFilters: []plan.ScanDynFilter{{ID: 1, Col: 0}}}
	build := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "u"}, Columns: []string{"k"},
		Out: plan.Schema{{Name: "k", T: types.Bigint}}}
	join := &plan.Join{Type: plan.InnerJoin, Left: probe, Right: build,
		Equi: []plan.EquiClause{{Left: 0, Right: 0}}, Out: append(append(plan.Schema{}, probe.Out...), build.Out...)}
	if !agg {
		return join
	}
	return &plan.Aggregation{Input: join, GroupBy: []expr.Expr{col(2, types.Varchar)},
		Aggregates: []plan.Aggregate{{Func: plan.AggCountAll, Out: types.Bigint}, {Func: plan.AggSum, Arg: col(1, types.Double), Out: types.Double}},
		Step:       plan.AggPartial,
		Out:        plan.Schema{{Name: "s", T: types.Varchar}, {Name: "n", T: types.Bigint}, {Name: "sum", T: types.Double}}}
}

// dynTask compiles root over conn as one task on an executor of the given
// threads; its splits start without waiting for filters.
func dynTask(tb testing.TB, root plan.Node, conn connector.Connector, threads int, cfg TaskConfig) *Task {
	tb.Helper()
	ex := NewExecutor(ExecutorConfig{Threads: threads, Quanta: time.Millisecond})
	tb.Cleanup(ex.Close)
	pool := memory.NewNodePool(1<<30, 0)
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	frag := &plan.Fragment{Root: root, OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle}, OutputConsumer: -1}
	cfg.DynamicFilterWait = -1
	task, err := NewTask(TaskID{QueryID: "q"}, frag, 0, ex, &testRegistry{conn: conn}, qmem, pool, nil, 1, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return task
}

func dynTables(probePages int) *memconn.Connector {
	conn := memconn.New("mem")
	conn.SplitsPerTable = 1
	conn.LoadTable("p", []connector.Column{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}}, dynProbePages(probePages))
	conn.LoadTable("u", []connector.Column{{Name: "k", T: types.Bigint}}, []*block.Page{dynBuildPage()})
	return conn
}

// TestDynFilteredScanGathersOnce: Scan(dyn) -> Join -> Aggregation compiles an
// identity processor onto the scan, which drops the rows the filter rules out
// through its selection vector and gathers the survivors once, into vectors it
// lends the join; the join lends the aggregation its own. Once the vectors are
// sized a further page of 4096 rows, nine in ten of them filtered, costs page
// headers: 0.13 bytes a scanned row (ceiling 0.5). With the filter applied at
// the source the same pages cost 3.5: every scan column of the surviving tenth
// copied by FilterPositions before the join saw it. Under the borrowed-page
// poison (scripts/check.sh) the same pages must still aggregate to the same
// groups.
func TestDynFilteredScanGathersOnce(t *testing.T) {
	task := dynTask(t, dynJoinPlan(true), dynTables(0), 1, TaskConfig{})
	if got := strings.Join(opNames(task)[0], ","); got != "FilterProject,LookupJoin,HashAggregation,PartitionedOutput" {
		t.Fatalf("Scan(dyn) -> Join -> Aggregation compiled to %s", got)
	}
	ops := pipelineOps(t, task)
	fp, join, agg := ops[0][0].(*operators.FilterProjectOperator), ops[0][1].(*operators.LookupJoinOperator), ops[0][2].(*operators.HashAggregationOperator)
	if !fp.Processor().BorrowsOutput() || !join.LendsOutput() {
		t.Fatal("the processor on the scan and the join must both lend in front of a releasing consumer")
	}
	hb := ops[1][0]
	if err := hb.AddInput(dynBuildPage()); err != nil {
		t.Fatal(err)
	}
	hb.Finish()
	task.compiled[1].buildBridge.NoMoreBuilders()
	task.DeliverFilter(1, dynBuildSummary())

	drive := func(pages []*block.Page) {
		for _, p := range pages {
			if err := fp.AddInput(p); err != nil {
				t.Fatal(err)
			}
			out, err := fp.Output()
			if err != nil || out == nil {
				t.Fatalf("processor output %v, %v", out, err)
			}
			if int64(out.RowCount()) != dynPageRows-dynDropped(p) {
				t.Fatalf("the filter kept %d of %d rows", out.RowCount(), p.RowCount())
			}
			if err := join.AddInput(out); err != nil {
				t.Fatal(err)
			}
			for {
				joined, err := join.Output()
				if err != nil {
					t.Fatal(err)
				}
				if joined == nil {
					break
				}
				if err := agg.AddInput(joined); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pages := dynProbePages(72)
	drive(pages[:8])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(pages[8:])
	runtime.ReadMemStats(&after)
	rows := (len(pages) - 8) * dynPageRows
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); raceEnabled {
		t.Logf("%.3f bytes per scanned row under the race detector, which changes what allocates", got)
	} else if got > 0.5 {
		t.Errorf("a steady-state Scan(dyn) -> Join -> Aggregation driver allocates %.2f bytes per scanned row, want <= 0.5", got)
	} else {
		t.Logf("%.3f bytes per scanned row over %d pages", got, len(pages)-8)
	}
	if want, got := dynDropped(pages...), task.compiled[0].opStats[0].DynRowsFiltered(); got != want {
		t.Errorf("%d rows counted as dynamically filtered on the scan, want %d", got, want)
	}

	// The groups: every surviving row, once.
	agg.Finish()
	var groups []string
	var total int64
	for !agg.IsFinished() {
		out, err := agg.Output()
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			continue
		}
		for r := 0; r < out.RowCount(); r++ {
			groups = append(groups, out.Col(0).Str(r))
			total += out.Col(1).Long(r)
		}
	}
	sort.Strings(groups)
	if strings.Join(groups, ",") != "x,y,z" || total != int64(len(pages)*dynPageRows)-task.compiled[0].opStats[0].DynRowsFiltered() {
		t.Errorf("groups %v counting %d rows", groups, total)
	}
}

// dynDropped counts the rows of pages the build summary rules out.
func dynDropped(pages ...*block.Page) int64 {
	var n int64
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			if p.Col(0).Long(r) >= dynBuildKeys {
				n++
			}
		}
	}
	return n
}

// hookConnector is memconn with a page source that calls afterFirst once,
// when the second page of a split is asked for.
type hookConnector struct {
	*memconn.Connector
	afterFirst func()
}

func (c *hookConnector) PageSource(s connector.Split, columns []string, h plan.TableHandle) (connector.PageSource, error) {
	src, err := c.Connector.PageSource(s, columns, h)
	if err != nil || h.Table != "p" {
		return src, err
	}
	return &hookSource{PageSource: src, after: c.afterFirst}, nil
}

type hookSource struct {
	connector.PageSource
	pages int
	after func()
}

func (s *hookSource) NextPage() (*block.Page, error) {
	if s.pages++; s.pages == 2 && s.after != nil {
		s.after()
	}
	return s.PageSource.NextPage()
}

// runDynJoin runs p JOIN u as one task over a single six-page probe split and
// returns the joined rows' count, the sum of their a and what the probe scan's
// stats say. late, if set, is delivered between the split's first and second
// page; one driver reads the split, so the first page has been through the
// processor by then.
func runDynJoin(t *testing.T, late *dynfilter.Summary, morsels bool) (rows, sumA int64, scan operators.OpStatsSnapshot) {
	t.Helper()
	conn := &hookConnector{Connector: dynTables(6)}
	cfg := TaskConfig{TargetSplitConcurrency: 1}
	if !morsels {
		cfg.Switches = DisableMorsels
	}
	task := dynTask(t, dynJoinPlan(false), conn, 2, cfg)
	if late != nil {
		conn.afterFirst = func() { task.DeliverFilter(1, late) }
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	// The build scan is scan 0 (the build side compiles first), the probe scan 1.
	for scanID, table := range []string{"u", "p"} {
		src, err := conn.Splits(plan.TableHandle{Catalog: "mem", Table: table})
		if err != nil {
			t.Fatal(err)
		}
		batch, _ := src.NextBatch(10)
		if len(batch.Splits) != 1 || !batch.Done {
			t.Fatalf("table %s enumerates %d splits", table, len(batch.Splits))
		}
		if err := task.AddSplit(scanID, batch.Splits[0]); err != nil {
			t.Fatal(err)
		}
		task.NoMoreSplits(scanID)
	}
	if !task.waitDone(10 * time.Second) {
		t.Fatal("task did not finish")
	}
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	var token int64
	for {
		pages, next, done := task.Output().Partition(0).Fetch(token, 0, 100*time.Millisecond)
		for _, p := range pages {
			rows += int64(p.RowCount())
			for r := 0; r < p.RowCount(); r++ {
				sumA += p.Col(0).Long(r)
			}
		}
		token = next
		if done {
			break
		}
	}
	for _, pl := range task.Stats().Pipelines {
		if pl.Operators[0].Name == "TableScan" && pl.Operators[0].RowsOut > dynBuildKeys {
			scan = pl.Operators[0]
		}
	}
	return rows, sumA, scan
}

// TestDynFilterLateArrivalFiltersOpenSplit: a summary that arrives after a
// split opened filters the pages of that split still to be read. It used to
// filter none of them: the row predicates were those that had arrived when the
// split opened. The scan still reports every row it read; the rows of pages
// two to six that cannot join are counted as filtered; and the join answers as
// it does with no filter at all.
func TestDynFilterLateArrivalFiltersOpenSplit(t *testing.T) {
	for _, morsels := range []bool{false, true} {
		wantRows, wantSum, plain := runDynJoin(t, nil, morsels)
		if wantRows == 0 || plain.DynRowsFiltered != 0 {
			t.Fatalf("unfiltered run: %d rows joined, %d filtered", wantRows, plain.DynRowsFiltered)
		}
		rows, sum, scan := runDynJoin(t, dynBuildSummary(), morsels)
		if rows != wantRows || sum != wantSum {
			t.Errorf("morsels=%v: a late filter changed the join: %d rows (sum %d), want %d (%d)", morsels, rows, sum, wantRows, wantSum)
		}
		if scan.RowsOut != plain.RowsOut || scan.RowsOut != 6*dynPageRows {
			t.Errorf("morsels=%v: the scan reports %d rows, want the %d it read, filter or none", morsels, scan.RowsOut, plain.RowsOut)
		}
		if want := dynDropped(dynProbePages(6)[1:]...); scan.DynRowsFiltered != want {
			t.Errorf("morsels=%v: %d rows filtered, want the %d of pages two to six that cannot join", morsels, scan.DynRowsFiltered, want)
		}
	}
}
