package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/expr"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// ---- compiling plan shapes ----

func col(i int, t types.Type) *expr.ColumnRef { return &expr.ColumnRef{Index: i, T: t} }
func lit(v types.Value) *expr.Const           { return expr.NewConst(v) }

func arith(op expr.BinOp, l, r expr.Expr, t types.Type) expr.Expr {
	return &expr.Arith{Op: op, L: l, R: r, T: t}
}

// project stacks a Project with a schema derived from the expressions.
func project(in plan.Node, exprs ...expr.Expr) *plan.Project {
	out := make(plan.Schema, len(exprs))
	for i, e := range exprs {
		out[i] = plan.Field{Name: fmt.Sprintf("c%d", i), T: e.Type()}
	}
	return &plan.Project{Input: in, Exprs: exprs, Out: out}
}

// compileTestFragment compiles root as a single-partition fragment on a task
// whose catalog "mem" holds table t(a bigint, b double, s varchar).
func compileTestFragment(tb testing.TB, root plan.Node) *Task {
	tb.Helper()
	return compileTestFragmentPart(tb, root, plan.PartitionSingle)
}

// compileTestFragmentPart is compileTestFragment with the given output
// partitioning.
func compileTestFragmentPart(tb testing.TB, root plan.Node, part plan.PartitioningKind) *Task {
	tb.Helper()
	conn := memconn.New("mem")
	conn.LoadTable("t", []connector.Column{
		{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar},
	}, nil)
	frag := &plan.Fragment{Root: root, OutputPartitioning: plan.Partitioning{Kind: part}, OutputConsumer: -1}
	return createTask(tb, &testRegistry{conn: conn}, WorkerConfig{Threads: 1}, frag, nil, FilterRelay{})
}

func scanT() *plan.Scan {
	return &plan.Scan{
		Handle:  plan.TableHandle{Catalog: "mem", Table: "t"},
		Columns: []string{"a", "b", "s"},
		Out:     plan.Schema{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}},
	}
}

// pipelineOps instantiates one driver's operators (behind the source) for
// every pipeline of the task, lending decided as a driver decides it.
func pipelineOps(tb testing.TB, task *Task) [][]operators.Operator {
	tb.Helper()
	var out [][]operators.Operator
	for _, spec := range task.compiled {
		ops, err := spec.mkOps(&driverCtx{task: task})
		if err != nil {
			tb.Fatal(err)
		}
		lendOutputs(ops)
		out = append(out, ops)
	}
	return out
}

func opNames(task *Task) [][]string {
	var out [][]string
	for _, spec := range task.compiled {
		var names []string
		for _, st := range spec.opStats[1:] {
			names = append(names, st.Name)
		}
		out = append(out, names)
	}
	return out
}

// aPlusOneOver is a computed, deterministic projection over bigint column i;
// aPlusOne reads table t's column a.
func aPlusOneOver(i int) expr.Expr {
	return arith(expr.OpAdd, col(i, types.Bigint), lit(types.BigintValue(1)), types.Bigint)
}

func aPlusOne() expr.Expr { return aPlusOneOver(0) }

func randomCall() expr.Expr {
	rnd, _ := expr.LookupBuiltin("random")
	return &expr.Call{Fn: rnd}
}

// TestBorrowOnlyBeforeReleasers compiles a projection in front of every kind
// of consumer and requires the page processor to lend its output exactly when
// the operator behind it releases its input: a hash aggregation, a lookup
// join, or a processor that itself lends.
func TestBorrowOnlyBeforeReleasers(t *testing.T) {
	proj := func(in plan.Node) plan.Node { return project(in, col(0, types.Bigint), aPlusOne()) }
	bigints := plan.Schema{{Name: "c0", T: types.Bigint}, {Name: "c1", T: types.Bigint}}
	agg := func(in plan.Node) plan.Node {
		return &plan.Aggregation{Input: in, GroupBy: []expr.Expr{col(0, types.Bigint)},
			Aggregates: []plan.Aggregate{{Func: plan.AggSum, Arg: col(1, types.Bigint), Out: types.Bigint}},
			Step:       plan.AggPartial, Out: bigints}
	}
	roots := map[string]plan.Node{
		"HashAggregation":   agg(proj(&plan.Filter{Input: scanT(), Predicate: &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint), R: lit(types.BigintValue(0))}})),
		"PartitionedOutput": proj(scanT()),
		"HashBuild": &plan.Join{Type: plan.InnerJoin, Left: scanT(), Right: proj(scanT()),
			Equi: []plan.EquiClause{{Left: 0, Right: 0}}, Out: append(scanT().Out, bigints...)},
		"LookupJoin": &plan.Join{Type: plan.InnerJoin, Left: proj(scanT()), Right: scanT(),
			Equi: []plan.EquiClause{{Left: 0, Right: 0}}, Out: append(append(plan.Schema{}, bigints...), scanT().Out...)},
		"TopN":        &plan.TopN{Input: proj(scanT()), Keys: []plan.SortKey{{Col: 0}}, N: 3},
		"Sort":        &plan.Sort{Input: proj(scanT()), Keys: []plan.SortKey{{Col: 0}}},
		"Limit":       &plan.Limit{Input: proj(scanT()), N: 3},
		"TableWriter": &plan.TableWrite{Input: project(scanT(), col(0, types.Bigint), col(1, types.Double), col(2, types.Varchar)), Catalog: "mem", Table: "t", Out: plan.Schema{{Name: "rows", T: types.Bigint}}},
		// Two layers that do not compose (the inner random() is read by the
		// outer list): the first processor feeds the second, which feeds
		// the aggregation.
		"FilterProject": agg(project(project(scanT(), col(0, types.Bigint), randomCall()),
			col(0, types.Bigint), &expr.Cast{E: col(1, types.Double), T: types.Bigint})),
	}
	for consumer, root := range roots {
		task := compileTestFragment(t, root)
		seen := false
		for pi, ops := range pipelineOps(t, task) {
			for i, op := range ops {
				fp, ok := op.(*operators.FilterProjectOperator)
				if !ok {
					continue
				}
				next := opNames(task)[pi][i+1]
				seen = seen || next == consumer
				want := next == "HashAggregation" || next == "LookupJoin"
				if nfp, ok := ops[i+1].(*operators.FilterProjectOperator); ok {
					want = nfp.Processor().BorrowsOutput()
				}
				if got := fp.Processor().BorrowsOutput(); got != want {
					t.Errorf("%s: FilterProject in front of %s lends its output = %v, want %v", consumer, next, got, want)
				}
			}
		}
		if !seen {
			t.Errorf("%s: no FilterProject compiled in front of it: %v", consumer, opNames(task))
		}
	}
}

// TestProjectStackCompilesToOneFilterProject: Project*(Filter?(y)) is one
// operator when the layers compose, the plan it was compiled from is
// untouched (EXPLAIN prints the layers as planned), and a layer that must not
// be inlined stays its own operator.
func TestProjectStackCompilesToOneFilterProject(t *testing.T) {
	pred := &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint), R: lit(types.BigintValue(0))}
	l1 := project(&plan.Filter{Input: scanT(), Predicate: pred}, col(0, types.Bigint), col(1, types.Double), aPlusOne())
	l2 := project(l1, col(2, types.Bigint), col(0, types.Bigint), col(0, types.Bigint), arith(expr.OpMul, col(1, types.Double), col(1, types.Double), types.Double))
	l3 := project(l2, arith(expr.OpAdd, col(0, types.Bigint), col(1, types.Bigint), types.Bigint), col(3, types.Double), lit(types.VarcharValue("k")))
	before := plan.Format(l3)
	task := compileTestFragment(t, l3)
	if got := opNames(task); len(got) != 1 || strings.Join(got[0], ",") != "FilterProject,PartitionedOutput" {
		t.Errorf("three composable layers over a filter compiled to %v", got)
	}
	if after := plan.Format(l3); after != before {
		t.Errorf("compiling changed the plan:\n%s\nwas\n%s", after, before)
	}

	// a+1 read twice by the layer above: that layer is not inlined, the one
	// above it still is.
	twice := project(project(l1, col(2, types.Bigint), col(2, types.Bigint)), col(1, types.Bigint), col(0, types.Bigint))
	task = compileTestFragment(t, twice)
	if got := opNames(task); len(got) != 1 || strings.Join(got[0], ",") != "FilterProject,FilterProject,PartitionedOutput" {
		t.Errorf("a layer reading a computed column twice compiled to %v", got)
	}
}

func TestComposeProjectionsRule(t *testing.T) {
	a, b := col(0, types.Bigint), col(1, types.Double)
	inner := []expr.Expr{a, aPlusOne(), lit(types.BigintValue(7)), randomCall(), b}
	cases := []struct {
		name  string
		outer []expr.Expr
		ok    bool
	}{
		{"columns and constants read many times", []expr.Expr{col(0, types.Bigint), col(0, types.Bigint), col(2, types.Bigint), col(2, types.Bigint), col(4, types.Double), col(4, types.Double)}, true},
		{"computed read once, inside an expression", []expr.Expr{arith(expr.OpMul, col(1, types.Bigint), col(0, types.Bigint), types.Bigint)}, true},
		{"computed read twice in one expression", []expr.Expr{arith(expr.OpMul, col(1, types.Bigint), col(1, types.Bigint), types.Bigint)}, false},
		{"computed read by two expressions", []expr.Expr{col(1, types.Bigint), aPlusOneOver(1)}, false},
		{"non-deterministic read once", []expr.Expr{col(3, types.Double)}, false},
		{"non-deterministic not read", []expr.Expr{col(0, types.Bigint)}, true},
	}
	for _, c := range cases {
		got, ok := composeProjections(c.outer, inner)
		if ok != c.ok {
			t.Errorf("%s: composed = %v, want %v", c.name, ok, c.ok)
			continue
		}
		for i, e := range got {
			for _, idx := range expr.Columns(e) {
				if idx > 1 {
					t.Errorf("%s: composed expression %d (%s) still reads inner column %d", c.name, i, e, idx)
				}
			}
		}
	}
}

// ---- projection composition: property test ----

// stackPage is the input of the generated stacks: a bigint with NULLs, a
// double with NaN, -0.0 and NULLs, a varchar with "" and NULLs, and a divisor
// that is zero in some rows only when zeros is set.
func stackPage(r *rand.Rand, n int, zeros bool) *block.Page {
	a, an := make([]int64, n), make([]bool, n)
	b, bn := make([]float64, n), make([]bool, n)
	s, sn := make([]string, n), make([]bool, n)
	d := make([]int64, n)
	edges := []float64{math.Copysign(0, -1), 0, math.NaN(), 2, 2.5, -3}
	for i := 0; i < n; i++ {
		a[i], an[i] = int64(r.Intn(21)-10), r.Intn(7) == 0
		b[i], bn[i] = edges[r.Intn(len(edges))], r.Intn(7) == 0
		s[i], sn[i] = []string{"", "ab", "cd", "abc"}[r.Intn(4)], r.Intn(6) == 0
		d[i] = int64(r.Intn(5) + 1)
		if zeros && r.Intn(40) == 0 {
			d[i] = 0
		}
	}
	return block.NewPage(&block.LongBlock{T: types.Bigint, Vals: a, Nulls: an}, block.NewDoubleBlock(b, bn),
		block.NewVarcharBlock(s, sn), block.NewLongBlock(d, nil))
}

var stackSchema = []types.Type{types.Bigint, types.Double, types.Varchar, types.Bigint}

// stackGen generates one projection layer over a schema. tainted marks input
// columns that depend on random() and so differ from run to run.
type stackGen struct {
	r       *rand.Rand
	in      []types.Type
	tainted []bool
}

func (g *stackGen) pick(t types.Type) (int, bool) {
	var idx []int
	for i, ct := range g.in {
		if ct == t {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0, false
	}
	return idx[g.r.Intn(len(idx))], true
}

// operand is a column of type t when there is one, else a constant.
func (g *stackGen) operand(t types.Type) expr.Expr {
	if i, ok := g.pick(t); ok && g.r.Intn(4) > 0 {
		return col(i, t)
	}
	switch t {
	case types.Bigint:
		return lit(types.BigintValue(int64(g.r.Intn(7) - 3)))
	case types.Double:
		return lit(types.DoubleValue(float64(g.r.Intn(5)) / 2))
	default:
		return lit(types.VarcharValue([]string{"", "x", "-"}[g.r.Intn(3)]))
	}
}

// gen draws one expression. divide allows a division that fails on a zero
// divisor; random allows a non-deterministic call.
func (g *stackGen) gen(divide, random bool) expr.Expr {
	t := []types.Type{types.Bigint, types.Double, types.Varchar}[g.r.Intn(3)]
	switch k := g.r.Intn(8); {
	case k == 0 && random:
		return randomCall()
	case k == 1 && divide:
		return arith(expr.OpDiv, g.operand(types.Bigint), g.operand(types.Bigint), types.Bigint)
	case k <= 2: // identity
		if i, ok := g.pick(t); ok {
			return col(i, t)
		}
		return g.operand(t)
	case k == 3: // constant
		return g.operand(types.Unknown)
	case k <= 5: // arithmetic or concat
		op := []expr.BinOp{expr.OpAdd, expr.OpSub, expr.OpMul}[g.r.Intn(3)]
		if t == types.Varchar {
			op = expr.OpConcat
		}
		return arith(op, g.operand(t), g.operand(t), t)
	default: // CASE
		cond := &expr.Compare{Op: expr.CmpGt, L: g.operand(types.Bigint), R: g.operand(types.Bigint)}
		return &expr.Case{T: t, Whens: []expr.CaseWhen{{Cond: cond, Then: g.operand(t)}}, Else: g.operand(t)}
	}
}

// dependsOnTainted reports whether e reads a tainted column or calls random().
func (g *stackGen) dependsOnTainted(e expr.Expr) bool {
	if !expr.IsDeterministic(e) {
		return true
	}
	for _, c := range expr.Columns(e) {
		if g.tainted[c] {
			return true
		}
	}
	return false
}

// runLayered evaluates the stack one layer at a time, each layer its own
// owning processor, the filter in the bottom one.
func runLayered(pred expr.Expr, layers [][]expr.Expr, p *block.Page) (*block.Page, error) {
	for i, l := range layers {
		var f expr.Expr
		if i == 0 {
			f = pred
		}
		out, err := expr.NewPageProcessor(f, l).Process(p)
		if err != nil || out == nil {
			return nil, err
		}
		p = out
	}
	return p, nil
}

// runOps pushes p through a chain of filter/project operators.
func runOps(ops []operators.Operator, p *block.Page) (*block.Page, error) {
	for _, op := range ops {
		if err := op.AddInput(p); err != nil {
			return nil, err
		}
		out, err := op.Output()
		if err != nil || out == nil {
			return nil, err
		}
		p = out
	}
	return p, nil
}

// renderCell renders one cell so that NULL, -0.0 and NaN payloads are all
// distinguishable (doubles by bit pattern).
func renderCell(b block.Block, r int) string {
	switch {
	case b.IsNull(r):
		return "∅"
	case b.Type() == types.Double:
		return fmt.Sprintf("%016x", math.Float64bits(b.Double(r)))
	}
	return fmt.Sprint(b.Value(r))
}

func renderCol(b block.Block) string {
	var sb strings.Builder
	for r := 0; r < b.Len(); r++ {
		sb.WriteString(renderCell(b, r) + ";")
	}
	return sb.String()
}

// TestProjectionCompositionProperty generates two- and three-deep Project
// stacks over a filter (identity, arithmetic, CASE, concat, constants, a
// non-deterministic call, inner expressions read twice), compiles each the
// way a fragment is compiled, and requires what the compiled operators
// produce to equal the stack run one layer at a time: the same rows in every
// column that does not depend on random(), and a failure for the same page.
// Errors are made reachable by construction: only the layer under the top may
// divide, and then the top layer passes every column of it through.
func TestProjectionCompositionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	pred := &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint), R: lit(types.BigintValue(-4))}
	fused, split := 0, 0
	for iter := 0; iter < 300; iter++ {
		depth := 2 + r.Intn(2)
		divides := r.Intn(2) == 0
		g := &stackGen{r: r, in: stackSchema, tainted: make([]bool, len(stackSchema))}
		var layers [][]expr.Expr
		var root plan.Node = &plan.Filter{Input: &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "t"},
			Columns: []string{"a", "b", "s", "d"}, Out: plan.Schema{{Name: "a", T: types.Bigint}, {Name: "b", T: types.Double}, {Name: "s", T: types.Varchar}, {Name: "d", T: types.Bigint}}}, Predicate: pred}
		for l := 0; l < depth; l++ {
			var exprs []expr.Expr
			top, underTop := l == depth-1, l == depth-2
			if top && divides {
				for _, i := range r.Perm(len(g.in)) {
					exprs = append(exprs, col(i, g.in[i]))
				}
				exprs = append(exprs, lit(types.BigintValue(1)))
			} else {
				for n := 2 + r.Intn(5); n > 0; n-- {
					exprs = append(exprs, g.gen(divides && underTop, true))
				}
			}
			in, tainted := make([]types.Type, len(exprs)), make([]bool, len(exprs))
			for i, e := range exprs {
				in[i], tainted[i] = e.Type(), g.dependsOnTainted(e)
			}
			g.in, g.tainted = in, tainted
			layers = append(layers, exprs)
			root = project(root, exprs...)
		}

		task := compileTestFragment(t, root)
		ops := pipelineOps(t, task)[0]
		ops = ops[:len(ops)-1] // drop the output sink
		if len(ops) == 1 {
			fused++
		} else {
			split++
		}
		for pg := 0; pg < 3; pg++ {
			p := stackPage(r, 64+r.Intn(200), divides && pg == 1)
			want, wantErr := runLayered(pred, layers, p)
			got, gotErr := runOps(ops, p)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("iter %d page %d (%d operators): layered err = %v, compiled err = %v\n%s", iter, pg, len(ops), wantErr, gotErr, plan.Format(root))
			}
			if wantErr != nil {
				continue
			}
			if (want == nil) != (got == nil) || (want != nil && want.RowCount() != got.RowCount()) {
				t.Fatalf("iter %d page %d: row counts differ\n%s", iter, pg, plan.Format(root))
			}
			for c := 0; want != nil && c < want.ColCount(); c++ {
				if g.tainted[c] {
					continue
				}
				if w, h := renderCol(want.Col(c)), renderCol(got.Col(c)); w != h {
					t.Fatalf("iter %d page %d column %d (%d operators):\ncompiled %s\nlayered  %s\n%s", iter, pg, c, len(ops), h, w, plan.Format(root))
				}
			}
		}
	}
	if fused < 50 || split < 20 {
		t.Errorf("generator is lopsided: %d stacks fused into one operator, %d did not", fused, split)
	}
}

// ---- filter -> project -> aggregate over borrowed pages ----

// edgePages builds the aggregation input: group key k (varchar with "" and
// NULL), v (double with NaN, -0.0, NULL), s (varchar for min/max), n (bigint
// with NULLs) and f (the filter column); page by page k turns dictionary and
// RLE, and v and s turn lazy.
func edgePages(r *rand.Rand, pages, rows int) []*block.Page {
	keys := []string{"", "a", "b", "ab", "k4", "k5"}
	edges := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, -2, 1e6}
	var out []*block.Page
	for pg := 0; pg < pages; pg++ {
		k, kn := make([]string, rows), make([]bool, rows)
		v, vn := make([]float64, rows), make([]bool, rows)
		s, sn := make([]string, rows), make([]bool, rows)
		n, nn := make([]int64, rows), make([]bool, rows)
		f := make([]int64, rows)
		for i := 0; i < rows; i++ {
			k[i], kn[i] = keys[r.Intn(len(keys))], r.Intn(9) == 0
			v[i], vn[i] = edges[r.Intn(len(edges))], r.Intn(8) == 0
			s[i], sn[i] = fmt.Sprintf("s%03d", r.Intn(500)), r.Intn(10) == 0
			if r.Intn(50) == 0 {
				s[i] = ""
			}
			n[i], nn[i] = int64(r.Intn(40)), r.Intn(7) == 0
			f[i] = int64(r.Intn(10))
		}
		var kb block.Block = block.NewVarcharBlock(k, kn)
		var vb block.Block = block.NewDoubleBlock(v, vn)
		var sb block.Block = block.NewVarcharBlock(s, sn)
		switch pg % 4 {
		case 1:
			kb = block.DictEncode(kb, 1)
		case 2:
			kb = block.NewRLEBlock(types.VarcharValue(keys[pg%len(keys)]), rows)
		case 3:
			vFlat, sFlat := vb, sb
			vb = block.NewLazyBlock(types.Double, rows, func(*block.Arena) block.Block { return vFlat })
			sb = block.NewLazyBlock(types.Varchar, rows, func(*block.Arena) block.Block { return sFlat })
		}
		out = append(out, block.NewPage(kb, vb, sb, &block.LongBlock{T: types.Bigint, Vals: n, Nulls: nn}, block.NewLongBlock(f, nil)))
	}
	return out
}

// runFusedAgg drives filter -> project -> aggregate by hand the way a driver
// does (a page goes from the processor straight into the aggregation), lending
// the processor's output when lend is set, revoking the aggregation every
// revokeEvery pages (0 = never), and returns the result rows rendered and
// sorted.
func runFusedAgg(t *testing.T, pages []*block.Page, groupCols []int, groupTs []types.Type, specs []operators.AggSpec, lend bool, revokeEvery int) []string {
	t.Helper()
	pred := &expr.Compare{Op: expr.CmpGt, L: col(4, types.Bigint), R: lit(types.BigintValue(2))}
	inner := []expr.Expr{col(0, types.Varchar), col(1, types.Double), col(2, types.Varchar), col(3, types.Bigint)}
	outer := []expr.Expr{
		col(0, types.Varchar),
		arith(expr.OpConcat, col(0, types.Varchar), lit(types.VarcharValue("|")), types.Varchar),
		arith(expr.OpMul, col(1, types.Double), lit(types.DoubleValue(2)), types.Double),
		col(2, types.Varchar),
		col(3, types.Bigint),
		col(3, types.Bigint),
	}
	composed, ok := composeProjections(outer, inner)
	if !ok {
		t.Fatal("the test stack does not compose")
	}
	fp := operators.NewFilterProject(operators.NopContext(), expr.NewPageProcessor(pred, composed))
	agg := operators.NewHashAggregation(operators.NopContext(), groupCols, groupTs, specs, revokeEvery > 0, 64, 0)
	agg.SetSpillDir(t.TempDir())
	if lend {
		lendOutputs([]operators.Operator{fp, agg})
		if !fp.Processor().BorrowsOutput() {
			t.Fatal("a processor in front of a hash aggregation does not lend")
		}
	}
	for i, p := range pages {
		if err := fp.AddInput(p); err != nil {
			t.Fatal(err)
		}
		out, err := fp.Output()
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			if err := agg.AddInput(out); err != nil {
				t.Fatal(err)
			}
		}
		if revokeEvery > 0 && i%revokeEvery == revokeEvery-1 {
			if _, err := agg.Revoke(); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg.Finish()
	var rows []string
	for {
		out, err := agg.Output()
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			break
		}
		for r := 0; r < out.RowCount(); r++ {
			var sb strings.Builder
			for c := 0; c < out.ColCount(); c++ {
				sb.WriteString(renderCell(out.Col(c), r) + "|")
			}
			rows = append(rows, sb.String())
		}
	}
	if revokeEvery > 0 && agg.SpillCount() == 0 {
		t.Fatal("the aggregation never spilled")
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// TestBorrowedAggregationMatchesOwned: an aggregation fed borrowed pages gives
// the rows it gives fed owned ones — group keys taken from a lent varchar
// vector and from dictionary, RLE and lazy columns, min/max over varchar and
// over doubles with NaN and -0.0, DISTINCT sets, spill forced every few pages
// so that revoked groups outlive many overwritten pages. Run under
// scripts/check.sh the poison is linked on and a late read cannot go unseen;
// without it the next page's values stand in for the poison.
func TestBorrowedAggregationMatchesOwned(t *testing.T) {
	pages := edgePages(rand.New(rand.NewSource(59)), 24, 257)
	// After the projection: 0 k, 1 k||'|', 2 v*2, 3 s, 4 n, 5 n.
	cases := []struct {
		name        string
		groupCols   []int
		groupTs     []types.Type
		specs       []operators.AggSpec
		revokeEvery int
	}{
		{"spilling, computed and encoded varchar keys, min/max", []int{1, 0}, []types.Type{types.Varchar, types.Varchar}, []operators.AggSpec{
			{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
			{Func: plan.AggSum, ArgCol: 2, Out: types.Double},
			{Func: plan.AggMin, ArgCol: 3, Out: types.Varchar},
			{Func: plan.AggMax, ArgCol: 3, Out: types.Varchar},
			{Func: plan.AggMin, ArgCol: 2, Out: types.Double},
			{Func: plan.AggMax, ArgCol: 2, Out: types.Double},
			{Func: plan.AggAvg, ArgCol: 4, Out: types.Double},
			{Func: plan.AggSum, ArgCol: 5, Out: types.Bigint},
		}, 3},
		{"single encoded key, no spill", []int{0}, []types.Type{types.Varchar}, []operators.AggSpec{
			{Func: plan.AggCount, ArgCol: 3, Out: types.Bigint},
			{Func: plan.AggMax, ArgCol: 3, Out: types.Varchar},
			{Func: plan.AggSum, ArgCol: 2, Out: types.Double},
		}, 0},
		{"fixed-width key from a lent vector", []int{4}, []types.Type{types.Bigint}, []operators.AggSpec{
			{Func: plan.AggMin, ArgCol: 1, Out: types.Varchar},
			{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
		}, 5},
		{"DISTINCT", []int{1}, []types.Type{types.Varchar}, []operators.AggSpec{
			{Func: plan.AggCount, ArgCol: 4, Distinct: true, Out: types.Bigint},
			{Func: plan.AggCount, ArgCol: 3, Distinct: true, Out: types.Bigint},
			{Func: plan.AggSum, ArgCol: 5, Distinct: true, Out: types.Bigint},
			{Func: plan.AggMin, ArgCol: 3, Out: types.Varchar},
		}, 0},
		{"global", nil, nil, []operators.AggSpec{
			{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
			{Func: plan.AggMax, ArgCol: 1, Out: types.Varchar},
			{Func: plan.AggAvg, ArgCol: 2, Out: types.Double},
		}, 0},
	}
	for _, c := range cases {
		want := runFusedAgg(t, pages, c.groupCols, c.groupTs, c.specs, false, c.revokeEvery)
		got := runFusedAgg(t, pages, c.groupCols, c.groupTs, c.specs, true, c.revokeEvery)
		if len(want) == 0 {
			t.Fatalf("%s: no result rows", c.name)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: borrowed pages changed the result:\nborrowed %v\nowned    %v", c.name, got, want)
		}
	}
}

// ---- what a filtered page costs ----

// h01Pipeline compiles the scan_agg h01 shape — partial aggregation over the
// aggregation's projection over the pruning projection over a date filter —
// and returns one driver's processor and aggregation, and lineitem-like pages
// of 4096 rows to feed them; with encoded set the two group-key columns arrive
// as the memory catalog stores them, each under one dictionary its pages share.
func h01Pipeline(tb testing.TB, pages int, encoded bool) (*operators.FilterProjectOperator, *operators.HashAggregationOperator, []*block.Page) {
	tb.Helper()
	d, v := types.Double, types.Varchar
	scan := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "t"},
		Columns: []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_shipdate", "l_shipmode"},
		Out: plan.Schema{{Name: "l_quantity", T: d}, {Name: "l_extendedprice", T: d}, {Name: "l_discount", T: d}, {Name: "l_tax", T: d},
			{Name: "l_returnflag", T: v}, {Name: "l_shipdate", T: types.Date}, {Name: "l_shipmode", T: v}}}
	filter := &plan.Filter{Input: scan, Predicate: &expr.Compare{Op: expr.CmpLe, L: col(5, types.Date), R: lit(types.Value{T: types.Date, I: 10400})}}
	pruned := project(filter, col(0, d), col(1, d), col(2, d), col(3, d), col(4, v), col(6, v))
	one := lit(types.DoubleValue(1))
	discounted := func() expr.Expr { return arith(expr.OpMul, col(1, d), arith(expr.OpSub, one, col(2, d), d), d) }
	args := project(pruned, col(4, v), col(5, v), col(0, d), col(1, d), discounted(),
		arith(expr.OpMul, discounted(), arith(expr.OpAdd, one, col(3, d), d), d), col(0, d), col(1, d), col(2, d))
	var aggs []plan.Aggregate
	out := plan.Schema{{Name: "_k0", T: v}, {Name: "_k1", T: v}}
	for _, a := range []struct {
		f   plan.AggFunc
		arg int
	}{{plan.AggSum, 2}, {plan.AggSum, 3}, {plan.AggSum, 4}, {plan.AggSum, 5}, {plan.AggSum, 6}, {plan.AggCount, 6},
		{plan.AggSum, 7}, {plan.AggCount, 7}, {plan.AggSum, 8}, {plan.AggCount, 8}, {plan.AggCountAll, -1}} {
		agg := plan.Aggregate{Func: a.f, Out: d}
		if a.f != plan.AggSum {
			agg.Out = types.Bigint
		}
		if a.arg >= 0 {
			agg.Arg = col(a.arg, d)
		}
		aggs = append(aggs, agg)
		out = append(out, plan.Field{Name: fmt.Sprintf("_p%d", len(out)), T: agg.Out})
	}
	root := &plan.Aggregation{Input: args, GroupBy: []expr.Expr{col(0, v), col(1, v)}, Aggregates: aggs, Step: plan.AggPartial, Out: out}
	task := compileTestFragment(tb, root)
	ops := pipelineOps(tb, task)[0]
	if got := strings.Join(opNames(task)[0], ","); got != "FilterProject,HashAggregation,PartitionedOutput" {
		tb.Fatalf("h01 shape compiled to %s", got)
	}

	r := rand.New(rand.NewSource(61))
	flags, modes := []string{"A", "N", "R"}, []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	const rows = 4096
	var in []*block.Page
	for p := 0; p < pages; p++ {
		cols := make([][]float64, 4)
		for c := range cols {
			cols[c] = make([]float64, rows)
			for i := range cols[c] {
				cols[c][i] = float64(r.Intn(5000)) / 100
			}
		}
		flag, mode, date := make([]string, rows), make([]string, rows), make([]int64, rows)
		for i := 0; i < rows; i++ {
			flag[i], mode[i], date[i] = flags[r.Intn(3)], modes[r.Intn(7)], int64(8766+r.Intn(1700))
		}
		in = append(in, block.NewPage(block.NewDoubleBlock(cols[0], nil), block.NewDoubleBlock(cols[1], nil), block.NewDoubleBlock(cols[2], nil),
			block.NewDoubleBlock(cols[3], nil), block.NewVarcharBlock(flag, nil), block.NewDateBlock(date, nil), block.NewVarcharBlock(mode, nil)))
	}
	if encoded {
		var flagEnc, modeEnc block.DictEncoder
		idx := make([][2][]int32, len(in))
		for i, p := range in {
			idx[i][0], _ = flagEnc.Encode(p.Col(4), 256)
			idx[i][1], _ = modeEnc.Encode(p.Col(6), 256)
		}
		flagDict, modeDict := flagEnc.Dict(), modeEnc.Dict()
		for i, p := range in {
			p.Cols[4], p.Cols[6] = block.NewDictionaryBlock(flagDict, idx[i][0]), block.NewDictionaryBlock(modeDict, idx[i][1])
		}
	}
	return ops[0].(*operators.FilterProjectOperator), ops[1].(*operators.HashAggregationOperator), in
}

// drive pushes pages through processor and aggregation as the driver loop
// does and returns the rows that went in.
func drive(tb testing.TB, fp *operators.FilterProjectOperator, agg *operators.HashAggregationOperator, pages []*block.Page) int {
	rows := 0
	for _, p := range pages {
		rows += p.RowCount()
		if err := fp.AddInput(p); err != nil {
			tb.Fatal(err)
		}
		out, err := fp.Output()
		if err != nil {
			tb.Fatal(err)
		}
		if out == nil {
			continue
		}
		if err := agg.AddInput(out); err != nil {
			tb.Fatal(err)
		}
	}
	return rows
}

// finish ends a driver of fp and agg as the driver loop does: its operators
// closed and their arenas released to the pool.
func finish(fp *operators.FilterProjectOperator, agg *operators.HashAggregationOperator) {
	NewDriver([]operators.Operator{fp, agg}).finishDriver(time.Now())
}

// allocatedPerRow is what driving pages through fp and agg allocates per
// input row.
func allocatedPerRow(tb testing.TB, fp *operators.FilterProjectOperator, agg *operators.HashAggregationOperator, pages []*block.Page) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := drive(tb, fp, agg, pages)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
}

// TestFilterProjectAggAllocationCeiling: once a driver of the h01 shape has
// seen a few pages — its 21 groups made — a further page costs the output
// page's headers and nothing per row: 0.9 bytes per input row at 4096-row
// pages. Through two processors and owned pages it was 94 (every surviving
// row's projected cells, twice over). With the two group keys under
// dictionaries the filtered index vectors are lent like any other vector and
// the group memo is a lease: the same headers. And the vectors are leases, so
// a second driver of the shape, built after the first has finished, meets the
// same ceiling from its first page: it finds what the first one grew in the
// pool. The ceilings are about twice the measurements.
func TestFilterProjectAggAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, c := range []struct {
		name    string
		encoded bool
		ceiling float64 // bytes per input row
	}{{"flat keys", false, 2.0}, {"dictionary keys", true, 0.2}} {
		fp, agg, pages := h01Pipeline(t, 72, c.encoded)
		alloctest.HoldCollections(t)
		drive(t, fp, agg, pages[:8])
		if got := allocatedPerRow(t, fp, agg, pages[8:]); got > c.ceiling {
			t.Errorf("%s: a steady-state filter -> project -> aggregate driver allocates %.2f bytes per input row over %d pages, want <= %.2f", c.name, got, len(pages)-8, c.ceiling)
		} else {
			t.Logf("%s: %.3f bytes per input row over %d pages", c.name, got, len(pages)-8)
		}
		finish(fp, agg)

		fp, agg, _ = h01Pipeline(t, 0, c.encoded)
		if got := allocatedPerRow(t, fp, agg, pages[8:]); got > c.ceiling {
			t.Errorf("%s: a second driver allocates %.2f bytes per input row over its first %d pages, want <= %.2f", c.name, got, len(pages)-8, c.ceiling)
		} else {
			t.Logf("%s: a second driver, from its first page: %.3f bytes per input row over %d pages", c.name, got, len(pages)-8)
		}
		finish(fp, agg)
	}
}

// BenchmarkFilterProjectAgg times one driver of the h01 shape over 72 pages
// of 4096 rows, group keys flat and under dictionaries, processor and
// aggregation built once per round as a driver builds them and finished as a
// driver finishes; run with -benchmem for bytes and allocations per round.
func BenchmarkFilterProjectAgg(b *testing.B) {
	for _, encoded := range []bool{false, true} {
		b.Run(fmt.Sprintf("dictkeys=%v", encoded), func(b *testing.B) {
			b.ReportAllocs()
			var rows int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fp, agg, pages := h01Pipeline(b, 72, encoded)
				b.StartTimer()
				rows += drive(b, fp, agg, pages)
				finish(fp, agg)
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
