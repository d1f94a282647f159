package exec

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// ---- where a dynamic filter tests rows, and when it arrives ----

// dynProbeScan is a fresh scan of p subscribed to filter 1 on a; dynBuildScan
// a fresh scan of u.
func dynProbeScan() *plan.Scan {
	return &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "p"}, Columns: []string{"a", "b", "s"},
		Out:        plan.Schema{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}},
		DynFilters: []plan.ScanDynFilter{{ID: 1, Col: 0, ShortCircuit: true}}}
}

func dynBuildScan() *plan.Scan {
	return &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "u"}, Columns: []string{"k"},
		Out: plan.Schema{{Name: "k", T: types.Bigint}}}
}

// innerJoin joins left column l to right column r, publishing the filters
// ids on that key.
func innerJoin(left, right plan.Node, l, r int, ids ...int) *plan.Join {
	j := &plan.Join{Type: plan.InnerJoin, Left: left, Right: right, Equi: []plan.EquiClause{{Left: l, Right: r}},
		Out: append(append(plan.Schema{}, left.Schema()...), right.Schema()...)}
	for _, id := range ids {
		j.DynFilters = append(j.DynFilters, plan.JoinDynFilter{ID: id})
	}
	return j
}

// TestDynFilterPlacement: a scan subscription whose rows reach the join that
// publishes the filter through nothing but Filter/Project, in one pipeline,
// only prunes — the join's lookup is the row test — and gets no processor of
// its own; rows that pass another join's probe or build or a fragment
// boundary first are tested row by row, by a processor on the scan. Only a
// subscription to a filter built in another fragment waits for it.
func TestDynFilterPlacement(t *testing.T) {
	cases := []struct {
		name      string
		root      func(p *plan.Scan) plan.Node
		rowTested bool
		ops       string // the scan pipeline's operators
	}{
		{"direct", func(p *plan.Scan) plan.Node { return innerJoin(p, dynBuildScan(), 0, 0, 1) },
			false, "LookupJoin,PartitionedOutput"},
		{"filter-project", func(p *plan.Scan) plan.Node {
			kept := &plan.Filter{Input: p, Predicate: &expr.Compare{Op: expr.CmpGe, L: col(0, types.Bigint), R: lit(types.BigintValue(0))}}
			return innerJoin(project(kept, col(0, types.Bigint), col(2, types.Varchar)), dynBuildScan(), 0, 0, 1)
		}, false, "FilterProject,LookupJoin,PartitionedOutput"},
		{"another join's probe", func(p *plan.Scan) plan.Node {
			return innerJoin(innerJoin(p, dynBuildScan(), 0, 0), dynBuildScan(), 0, 0, 1)
		}, true, "FilterProject,LookupJoin,LookupJoin,PartitionedOutput"},
		{"a join's build", func(p *plan.Scan) plan.Node {
			return innerJoin(innerJoin(dynBuildScan(), p, 0, 0), dynBuildScan(), 1, 0, 1)
		}, true, "FilterProject,HashBuild"},
		{"remote source", func(p *plan.Scan) plan.Node { return p }, true, "FilterProject,PartitionedOutput"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := dynProbeScan()
			task := dynTask(t, tc.root(p), dynTables(0), 1, TaskConfig{})
			at := -1
			for i, spec := range task.compiled {
				if spec.scanNode == p {
					at = i
				}
			}
			spec := task.compiled[at]
			if len(spec.dynSubs) != 1 {
				t.Fatalf("the probe scan has %d subscriptions", len(spec.dynSubs))
			}
			sub := spec.dynSubs[0]
			if sub.rowTested != tc.rowTested || sub.own == (tc.name == "remote source") {
				t.Errorf("row-tested %v own %v, want row-tested %v, own unless the filter comes from another fragment",
					sub.rowTested, sub.own, tc.rowTested)
			}
			if got := opsOf(task, at); got != tc.ops {
				t.Errorf("the probe scan's pipeline compiled to %s, want %s", got, tc.ops)
			}

			// Only a row-tested scan's processor drops what the summary rules
			// out; a prune-only one's (the plan's own filter) keeps every row.
			task.DeliverFilter(1, dynBuildSummary())
			fp, ok := pipelineOps(t, task)[at][0].(*operators.FilterProjectOperator)
			if !ok {
				if tc.rowTested {
					t.Fatal("a row-tested scan got no processor")
				}
				return
			}
			page := dynProbePages(1)[0]
			if err := fp.AddInput(page); err != nil {
				t.Fatal(err)
			}
			out, err := fp.Output()
			if err != nil {
				t.Fatal(err)
			}
			want := int64(page.RowCount())
			if tc.rowTested {
				want -= dynDropped(page)
			}
			if got := int64(out.RowCount()); got != want {
				t.Errorf("the processor on the scan kept %d of %d rows, want %d", got, page.RowCount(), want)
			}
			tested, passed := int64(0), int64(0)
			if tc.rowTested {
				tested, passed = int64(page.RowCount()), want
			}
			stats := dynFilterStats(spec)
			if len(stats) != 1 || stats[0].RowTested != tc.rowTested || stats[0].RowsTested != tested || stats[0].RowsPassed != passed {
				t.Errorf("the scan's filter stats %+v, want row-tested %v, %d rows tested and %d passed", stats, tc.rowTested, tested, passed)
			}
		})
	}
}

// opsOf names pipeline i's operators after its source.
func opsOf(task *Task, i int) string {
	names := opNames(task)[i]
	out := ""
	for k, n := range names {
		if k > 0 {
			out += ","
		}
		out += n
	}
	return out
}

// pagedConnector is memconn whose page sources call before(table, n) ahead of
// reading the n-th page (from 1) of any split.
type pagedConnector struct {
	*memconn.Connector
	before func(table string, n int)
}

func (c *pagedConnector) PageSource(s connector.Split, columns []string, h plan.TableHandle) (connector.PageSource, error) {
	src, err := c.Connector.PageSource(s, columns, h)
	if err != nil {
		return nil, err
	}
	return &pagedSource{PageSource: src, table: h.Table, before: c.before}, nil
}

type pagedSource struct {
	connector.PageSource
	table  string
	pages  int
	before func(table string, n int)
}

func (s *pagedSource) NextPage() (*block.Page, error) {
	s.pages++
	s.before(s.table, s.pages)
	return s.PageSource.NextPage()
}

// TestDynFilterArrivesWithItsBuild: a task's own filter is in place before
// the join's build releases its probes. The filtered scan feeds another
// join's build, so it reads while the publishing join waits for its own
// build: two pages while that build waits for them; then it waits for the
// build to be released, and every page it reads after that is tested against
// the filter. The filter's publication to other fragments is delayed, and this
// task has none to make: delivery to the task's own scans does not wait for
// it. (It used to: the
// summary reached the task's own scans on a goroutine, through the same
// publication, after the probes were released.)
func TestDynFilterArrivesWithItsBuild(t *testing.T) {
	// p reaches the publishing join through the inner join's build, which
	// keeps it reading while the outer join waits for b, and makes its
	// subscription row-tested.
	p, b := dynProbeScan(), dynBuildScan()
	root := innerJoin(innerJoin(dynBuildScan(), p, 0, 0), b, 1, 0, 1)
	inj := faultinject.New(1, faultinject.Rule{Site: faultinject.SiteFilterPublish, Kind: faultinject.KindDelay, Rate: 1, Delay: time.Second})
	probeRead := make(chan struct{})
	var task *Task
	var built *operators.JoinBridge
	conn := &pagedConnector{Connector: dynTables(6)}
	conn.before = func(table string, n int) {
		switch {
		case table == "u" && n == 1:
			select {
			case <-probeRead:
			case <-time.After(10 * time.Second):
				t.Error("the probe scan never read its first two pages")
			}
		case table == "p" && n == 3:
			close(probeRead)
			deadline := time.Now().Add(10 * time.Second)
			for !built.Built() {
				if time.Now().After(deadline) {
					t.Error("the build was never released")
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	task = dynTask(t, root, conn, 4, TaskConfig{TargetSplitConcurrency: 1, Inject: inj})
	at := -1
	for i, spec := range task.compiled {
		switch spec.scanNode {
		case p:
			at = i
		case b:
			built = spec.buildBridge
		}
	}
	if !task.compiled[at].dynSubs[0].rowTested {
		t.Fatal("the scan behind another join's build does not test rows")
	}
	for _, spec := range task.compiled {
		if spec.source != srcScan {
			continue
		}
		src, err := conn.Splits(spec.handle)
		if err != nil {
			t.Fatal(err)
		}
		batch, _ := src.NextBatch(10)
		for _, s := range batch.Splits {
			if err := task.AddSplit(spec.scanID, s); err != nil {
				t.Fatal(err)
			}
		}
		task.NoMoreSplits(spec.scanID)
	}
	for token, done := int64(0), false; !done; {
		var err error
		if _, token, done, err = task.Output().Partition(0).Fetch(token, 0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !task.waitDone(10 * time.Second) {
		t.Fatal("task did not finish")
	}
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	pages := dynProbePages(6)
	scan := task.compiled[at].opStats[0]
	subs, after := dynFilterStats(task.compiled[at]), int64(4*dynPageRows)
	if len(subs) != 1 || subs[0].RowsTested != after || scan.DynRowsFiltered() != dynDropped(pages[2:]...) {
		t.Errorf("filter stats %+v, %d rows filtered; want the %d rows of pages three to six tested and the %d of them that cannot join filtered",
			subs, scan.DynRowsFiltered(), after, dynDropped(pages[2:]...))
	}
}
