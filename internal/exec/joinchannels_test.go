package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// joinOf joins l and r on column lk = rk; a SEMI or ANTI join keeps l's
// schema, the others concatenate the two.
func joinOf(jt plan.JoinType, l, r plan.Node, lk, rk int, residual expr.Expr) *plan.Join {
	out := append(plan.Schema{}, l.Schema()...)
	if jt != plan.SemiJoin && jt != plan.AntiJoin {
		out = append(out, r.Schema()...)
	}
	return &plan.Join{Type: jt, Left: l, Right: r, Equi: []plan.EquiClause{{Left: lk, Right: rk}}, Residual: residual, Out: out}
}

func sumBy(in plan.Node, group, arg int) *plan.Aggregation {
	sch := in.Schema()
	return &plan.Aggregation{Input: in, GroupBy: []expr.Expr{col(group, sch[group].T)},
		Aggregates: []plan.Aggregate{{Func: plan.AggSum, Arg: col(arg, sch[arg].T), Out: sch[arg].T}},
		Step:       plan.AggPartial, Out: plan.Schema{{Name: "k", T: sch[group].T}, {Name: "s", T: sch[arg].T}}}
}

// TestJoinChainBorrowRule: the ownership rule is transitive. Every operator
// of Join -> Project -> Join -> Project -> Agg lends its output, because each
// one's consumer releases its input; put a broadcast output buffer or a TopN,
// which keep the pages they are given, behind the chain and nothing in front
// of them lends — a processor that does not lend does not release either.
func TestJoinChainBorrowRule(t *testing.T) {
	inner := joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, nil)
	mid := project(inner, col(0, types.Bigint), col(4, types.Double), col(5, types.Varchar))
	outer := joinOf(plan.InnerJoin, mid, scanT(), 0, 0, nil)
	top := project(outer, col(2, types.Varchar), arith(expr.OpAdd, col(1, types.Double), col(4, types.Double), types.Double))
	cases := []struct {
		name  string
		root  plan.Node
		part  plan.PartitioningKind
		chain string
		lends bool
	}{
		{"chain ends in a hash aggregation", sumBy(top, 0, 1), plan.PartitionSingle,
			"LookupJoin,FilterProject,LookupJoin,FilterProject,HashAggregation,PartitionedOutput", true},
		{"chain ends in a broadcast output", project(inner, col(0, types.Bigint), col(4, types.Double)), plan.PartitionBroadcast,
			"LookupJoin,FilterProject,PartitionedOutput", false},
		{"chain ends in a top-n", &plan.TopN{Input: inner, Keys: []plan.SortKey{{Col: 0}}, N: 3}, plan.PartitionSingle,
			"LookupJoin,TopN,PartitionedOutput", false},
	}
	for _, c := range cases {
		task := compileTestFragmentPart(t, c.root, c.part)
		names := opNames(task)
		const probe = 0 // the root pipeline is created first, each build side's after it
		for pi, ops := range pipelineOps(t, task) {
			if pi != probe {
				continue
			}
			if got := strings.Join(names[pi], ","); got != c.chain {
				t.Fatalf("%s: probe pipeline is %s, want %s", c.name, got, c.chain)
			}
			for i, op := range ops {
				switch x := op.(type) {
				case *operators.LookupJoinOperator:
					if x.LendsOutput() != c.lends {
						t.Errorf("%s: %s #%d lends its output = %v, want %v", c.name, names[pi][i], i, x.LendsOutput(), c.lends)
					}
				case *operators.FilterProjectOperator:
					if got := x.Processor().BorrowsOutput(); got != c.lends || x.ReleasesInput() != c.lends {
						t.Errorf("%s: %s #%d lends = %v, releases = %v, want both %v", c.name, names[pi][i], i, got, x.ReleasesInput(), c.lends)
					}
				}
			}
		}
	}
}

// joinTestTable is table t(a bigint, b double, s varchar) of the channel
// tests: duplicate and NULL keys over three pages.
func joinTestTable() *memconn.Connector {
	conn := memconn.New("mem")
	var pages []*block.Page
	for pg := 0; pg < 3; pg++ {
		const rows = 50
		a, an, b, s := make([]int64, rows), make([]bool, rows), make([]float64, rows), make([]string, rows)
		for r := 0; r < rows; r++ {
			i := pg*rows + r
			a[r], an[r], b[r], s[r] = int64(i%23), i%17 == 0, float64(i)/2, fmt.Sprintf("s%d", i%4)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(a, an), block.NewDoubleBlock(b, nil), block.NewVarcharBlock(s, nil)))
	}
	conn.LoadTable("t", []connector.Column{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}}, pages)
	return conn
}

// runJoinFragment runs root as one task over joinTestTable, every scan fed
// the table's splits, and returns the output rows, rendered and sorted, and
// the bytes its lookup joins emitted. A partial aggregation's rows are merged
// by group first (how many partial rows a group gets depends on how the
// drivers shared the input): the last column is summed, exactly — the
// table's doubles are multiples of a half.
func runJoinFragment(t testing.TB, root plan.Node) (rows []string, joinBytes int64) {
	t.Helper()
	frag := &plan.Fragment{Root: root, OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle}, OutputConsumer: -1}
	cf, err := Compile(frag, TaskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return runCompiledJoin(t, root, cf, nil)
}

// runCompiledJoin is runJoinFragment over cf, root's compiled form, run with
// the literals vals (none: its own).
func runCompiledJoin(t testing.TB, root plan.Node, cf *CompiledFragment, vals []types.Value) (rows []string, joinBytes int64) {
	t.Helper()
	conn := joinTestTable()
	ex := NewExecutor(ExecutorConfig{Threads: 2, Quanta: time.Millisecond})
	defer ex.Close()
	pool := memory.NewNodePool(1<<30, 0)
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	task, err := newTask(TaskID{QueryID: "q"}, cf, &TaskFragment{Values: vals}, 0, ex, &testRegistry{conn: conn}, qmem, pool, 1, nil, TaskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	for _, p := range task.compiled {
		if p.source != srcScan {
			continue
		}
		scanID := p.scanID
		src, err := conn.Splits(plan.TableHandle{Catalog: "mem", Table: "t"})
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			batch, err := src.NextBatch(10)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range batch.Splits {
				if err := task.AddSplit(scanID, s); err != nil {
					t.Fatal(err)
				}
			}
			done = batch.Done
		}
		task.NoMoreSplits(scanID)
	}
	if !task.waitDone(10 * time.Second) {
		t.Fatal("task did not finish")
	}
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	_, partial := root.(*plan.Aggregation)
	sums := map[string]float64{}
	var token int64
	for done := false; !done; {
		var pages []*block.Page
		var err error
		if pages, token, done, err = task.Output().Partition(0).Fetch(token, 0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for r := 0; r < p.RowCount(); r++ {
				var sb strings.Builder
				last := p.ColCount() - 1
				for c := 0; c <= last; c++ {
					if partial && c == last {
						if v := p.Col(c).Value(r); !v.Null {
							sums[sb.String()] += v.F + float64(v.I)
						}
						break
					}
					sb.WriteString(renderCell(p.Col(c), r) + "|")
				}
				if !partial {
					rows = append(rows, sb.String())
				}
			}
		}
	}
	for k, v := range sums {
		rows = append(rows, fmt.Sprintf("%s%v|", k, v))
	}
	sort.Strings(rows)
	for _, spec := range task.compiled {
		for _, st := range spec.opStats {
			if st.Name == "LookupJoin" {
				joinBytes += st.BytesOut()
			}
		}
	}
	return rows, joinBytes
}

// TestCompiledJoinChannelsDifferential: the pipeline compiler tells a join
// which channels to emit and rewrites its consumer's column references to
// match — a projection stack and its predicate, an aggregation's columns, an
// outer join's keys, residual and own channels. Each shape must return exactly
// the rows it returns when every join is fenced off behind a Limit, which
// reads every column; and its joins must in fact emit fewer bytes.
func TestCompiledJoinChannelsDifferential(t *testing.T) {
	big, dbl, str := types.Bigint, types.Double, types.Varchar
	// The schema of Join(t, t) is (a b s a b s); of a join of that with t, nine
	// columns.
	shapes := map[string]func(fence func(plan.Node) plan.Node) plan.Node{
		"project over join": func(f func(plan.Node) plan.Node) plan.Node {
			return project(f(joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, nil)), col(5, str), arith(expr.OpAdd, col(1, dbl), col(4, dbl), dbl))
		},
		"filtered project over left join": func(f func(plan.Node) plan.Node) plan.Node {
			j := f(joinOf(plan.LeftJoin, scanT(), scanT(), 0, 0, nil))
			pred := &expr.Compare{Op: expr.CmpGt, L: col(1, dbl), R: lit(types.DoubleValue(20))}
			return project(&plan.Filter{Input: j, Predicate: pred}, col(2, str), col(4, dbl), col(2, str))
		},
		"aggregation over join": func(f func(plan.Node) plan.Node) plan.Node {
			return sumBy(f(joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, nil)), 5, 1)
		},
		"join over join": func(f func(plan.Node) plan.Node) plan.Node {
			// The outer key is the inner build side's key; the outer residual
			// reads an inner probe column that nothing else does.
			inner := f(joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, nil))
			residual := &expr.Compare{Op: expr.CmpLt, L: col(1, dbl), R: col(7, dbl)}
			outer := f(joinOf(plan.InnerJoin, inner, scanT(), 3, 0, residual))
			return project(outer, col(2, str), col(8, str), col(4, dbl))
		},
		"semi join over left join": func(f func(plan.Node) plan.Node) plan.Node {
			inner := f(joinOf(plan.LeftJoin, scanT(), scanT(), 0, 0, nil))
			outer := f(joinOf(plan.SemiJoin, inner, scanT(), 3, 0, nil))
			return sumBy(outer, 2, 4)
		},
		"count over join": func(f func(plan.Node) plan.Node) plan.Node {
			j := f(joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, nil))
			return &plan.Aggregation{Input: project(j), Aggregates: []plan.Aggregate{{Func: plan.AggCountAll, Out: big}},
				Step: plan.AggPartial, Out: plan.Schema{{Name: "n", T: big}}}
		},
	}
	fenced := func(n plan.Node) plan.Node { return &plan.Limit{Input: n, N: 1 << 40} }
	open := func(n plan.Node) plan.Node { return n }
	for name, shape := range shapes {
		want, wantBytes := runJoinFragment(t, shape(fenced))
		got, gotBytes := runJoinFragment(t, shape(open))
		if len(want) == 0 {
			t.Fatalf("%s: no rows; the test is vacuous", name)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %d rows with channel lists, %d with every channel; first rows\n%v\n%v", name, len(got), len(want), got[:min(3, len(got))], want[:min(3, len(want))])
		}
		if gotBytes >= wantBytes {
			t.Errorf("%s: the joins emitted %d bytes with channel lists, %d with every channel", name, gotBytes, wantBytes)
		}
	}
}
