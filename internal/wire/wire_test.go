package wire

import (
	"bytes"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/types"
)

func bigintVal(i int64) types.Value   { return types.BigintValue(i) }
func varcharVal(s string) types.Value { return types.VarcharValue(s) }

func col(i int, t types.Type, name string) expr.Expr {
	return &expr.ColumnRef{Index: i, T: t, Name: name}
}

// testFragments hand-builds fragments exercising every node kind and most
// expression kinds the compiler can emit.
func testFragments(t testing.TB) []*plan.Fragment {
	t.Helper()
	scanOut := plan.Schema{
		{Name: "k", T: types.Bigint},
		{Name: "v", T: types.Double},
		{Name: "s", T: types.Varchar},
	}
	lo := bigintVal(1)
	hi := bigintVal(100)
	scan := &plan.Scan{
		Handle: plan.TableHandle{
			Catalog: "memory",
			Table:   "d",
			Layout:  "default",
			Constraint: &plan.Domain{Columns: map[string]*plan.ColumnDomain{
				"k": {
					T:      types.Bigint,
					Points: []types.Value{bigintVal(7)},
					Ranges: []plan.Range{{Lo: &lo, Hi: &hi, LoClosed: true}},
				},
				"s": {T: types.Varchar, NullAllowed: true},
			}},
		},
		Columns: []string{"k", "v", "s"},
		Out:     scanOut,
	}
	length, ok := expr.LookupBuiltin("length")
	if !ok {
		t.Fatal("builtin length missing")
	}
	pred := &expr.And{
		L: &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint, "k"), R: &expr.Const{Val: bigintVal(0)}},
		R: &expr.Or{
			L: &expr.Like{E: col(2, types.Varchar, "s"), Pattern: &expr.Const{Val: varcharVal("%x%")}, Negate: true},
			R: &expr.Not{E: &expr.IsNull{E: col(1, types.Double, "v")}},
		},
	}
	filter := &plan.Filter{Input: scan, Predicate: pred}
	proj := &plan.Project{
		Input: filter,
		Exprs: []expr.Expr{
			col(0, types.Bigint, "k"),
			&expr.Arith{Op: expr.OpAdd, L: col(0, types.Bigint, "k"), R: &expr.Const{Val: bigintVal(1)}, T: types.Bigint},
			&expr.Case{
				T: types.Varchar,
				Whens: []expr.CaseWhen{{
					Cond: &expr.Between{E: col(0, types.Bigint, "k"), Lo: &expr.Const{Val: bigintVal(1)}, Hi: &expr.Const{Val: bigintVal(5)}},
					Then: &expr.Const{Val: varcharVal("low")},
				}},
				Else: &expr.Const{Val: varcharVal("high")},
			},
			&expr.Call{Fn: length, Args: []expr.Expr{col(2, types.Varchar, "s")}},
			&expr.Cast{E: col(0, types.Bigint, "k"), T: types.Double},
			&expr.In{E: col(0, types.Bigint, "k"), List: []expr.Expr{&expr.Const{Val: bigintVal(1)}, &expr.Const{Val: bigintVal(2)}}},
			&expr.Neg{E: col(1, types.Double, "v")},
			&expr.Subscript{
				Base:  &expr.ArrayCtor{Elems: []expr.Expr{col(0, types.Bigint, "k")}},
				Index: &expr.Const{Val: bigintVal(1)},
				T:     types.Bigint,
			},
		},
		Out: plan.Schema{
			{Name: "k", T: types.Bigint}, {Name: "k1", T: types.Bigint},
			{Name: "band", T: types.Varchar}, {Name: "len", T: types.Bigint},
			{Name: "kd", T: types.Double}, {Name: "kin", T: types.Boolean},
			{Name: "nv", T: types.Double}, {Name: "sub", T: types.Bigint},
		},
	}
	agg := &plan.Aggregation{
		Input:   proj,
		GroupBy: []expr.Expr{col(2, types.Varchar, "band")},
		Aggregates: []plan.Aggregate{
			{Func: plan.AggCountAll, Out: types.Bigint},
			{Func: plan.AggSum, Arg: col(1, types.Bigint, "k1"), Distinct: true, Out: types.Bigint},
		},
		Step: plan.AggPartial,
		Out:  plan.Schema{{Name: "band", T: types.Varchar}, {Name: "c", T: types.Bigint}, {Name: "sm", T: types.Bigint}},
	}

	remote := &plan.RemoteSource{
		SourceFragments: []int{1},
		Out:             agg.Out,
	}
	finalAgg := &plan.Aggregation{
		Input:   remote,
		GroupBy: []expr.Expr{col(0, types.Varchar, "band")},
		Aggregates: []plan.Aggregate{
			{Func: plan.AggSum, Arg: col(1, types.Bigint, "c"), Out: types.Bigint},
		},
		Step: plan.AggFinal,
		Out:  plan.Schema{{Name: "band", T: types.Varchar}, {Name: "c", T: types.Bigint}},
	}
	topn := &plan.TopN{Input: finalAgg, Keys: []plan.SortKey{{Col: 1, Descending: true}}, N: 10}
	output := &plan.Output{Input: topn, Names: []string{"band", "c"}}

	join := &plan.Join{
		Type:     plan.LeftJoin,
		Left:     scan,
		Right:    &plan.Values{Rows: [][]types.Value{{bigintVal(1), varcharVal("a")}, {types.NullValue(types.Bigint), varcharVal("b")}}, Out: plan.Schema{{Name: "jk", T: types.Bigint}, {Name: "js", T: types.Varchar}}},
		Equi:     []plan.EquiClause{{Left: 0, Right: 0}},
		Residual: &expr.Compare{Op: expr.CmpNe, L: col(2, types.Varchar, "s"), R: col(4, types.Varchar, "js")},
		Strategy: plan.StrategyPartitioned,
		Out: plan.Schema{
			{Name: "k", T: types.Bigint}, {Name: "v", T: types.Double}, {Name: "s", T: types.Varchar},
			{Name: "jk", T: types.Bigint}, {Name: "js", T: types.Varchar},
		},
	}
	window := &plan.Window{
		Input:       join,
		PartitionBy: []int{2},
		OrderBy:     []plan.SortKey{{Col: 0}},
		Funcs:       []plan.WindowExpr{{Func: plan.WinRowNumber, Out: types.Bigint}},
		Out:         append(append(plan.Schema{}, join.Out...), plan.Field{Name: "rn", T: types.Bigint}),
	}
	sorted := &plan.Sort{Input: window, Keys: []plan.SortKey{{Col: 0}, {Col: 5, Descending: true}}}
	limited := &plan.Limit{Input: sorted, N: 100, Offset: 5, Partial: true}
	distinct := &plan.Distinct{Input: &plan.Union{Inputs: []plan.Node{limited, limited}}}
	exchange := &plan.LocalExchange{Input: distinct, Ways: 4, HashCols: []int{0}}
	write := &plan.TableWrite{
		Input:   &plan.EnforceSingleRow{Input: exchange},
		Catalog: "memory", Table: "out",
		Out: plan.Schema{{Name: "rows", T: types.Bigint}},
	}

	return []*plan.Fragment{
		{
			ID:                 0,
			Root:               output,
			OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
			OutputConsumer:     -1,
		},
		{
			ID:                 1,
			Root:               agg,
			OutputPartitioning: plan.Partitioning{Kind: plan.PartitionHash, Cols: []int{0}},
			OutputConsumer:     0,
		},
		{
			ID:                 2,
			Root:               write,
			OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSource},
			OutputConsumer:     0,
		},
	}
}

// TestFragmentRoundTrip marshals each fragment, unmarshals it, re-marshals the
// result, and requires byte-identical JSON: the codec must be lossless for
// everything it encodes.
func TestFragmentRoundTrip(t *testing.T) {
	for _, f := range testFragments(t) {
		raw1, err := MarshalFragment(f)
		if err != nil {
			t.Fatalf("fragment %d: marshal: %v", f.ID, err)
		}
		got, err := UnmarshalFragment(raw1)
		if err != nil {
			t.Fatalf("fragment %d: unmarshal: %v", f.ID, err)
		}
		if got.ID != f.ID || got.OutputConsumer != f.OutputConsumer ||
			got.OutputPartitioning.Kind != f.OutputPartitioning.Kind {
			t.Fatalf("fragment %d: envelope mismatch: %+v", f.ID, got)
		}
		raw2, err := MarshalFragment(got)
		if err != nil {
			t.Fatalf("fragment %d: re-marshal: %v", f.ID, err)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("fragment %d: round trip not stable:\n%s\nvs\n%s", f.ID, raw1, raw2)
		}
	}
}

// TestFragmentDecodedStructure spot-checks that decoding rebuilds real plan
// nodes, not just JSON shells.
func TestFragmentDecodedStructure(t *testing.T) {
	frags := testFragments(t)
	raw, err := MarshalFragment(frags[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := UnmarshalFragment(raw)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := f.Root.(*plan.Aggregation)
	if !ok {
		t.Fatalf("root is %T, want *plan.Aggregation", f.Root)
	}
	if agg.Step != plan.AggPartial || len(agg.Aggregates) != 2 {
		t.Fatalf("aggregation lost shape: %+v", agg)
	}
	if agg.Aggregates[0].Func != plan.AggCountAll || !agg.Aggregates[1].Distinct {
		t.Fatalf("aggregate details lost: %+v", agg.Aggregates)
	}
	proj, ok := agg.Input.(*plan.Project)
	if !ok {
		t.Fatalf("agg input is %T", agg.Input)
	}
	call, ok := proj.Exprs[3].(*expr.Call)
	if !ok || call.Fn.Name != "length" {
		t.Fatalf("call expr lost builtin: %#v", proj.Exprs[3])
	}
	filter, ok := proj.Input.(*plan.Filter)
	if !ok {
		t.Fatalf("project input is %T", proj.Input)
	}
	scan, ok := filter.Input.(*plan.Scan)
	if !ok {
		t.Fatalf("filter input is %T", filter.Input)
	}
	cd := scan.Handle.Constraint.Columns["k"]
	if cd == nil || len(cd.Points) != 1 || cd.Points[0].I != 7 ||
		len(cd.Ranges) != 1 || cd.Ranges[0].Lo == nil || cd.Ranges[0].Lo.I != 1 ||
		!cd.Ranges[0].LoClosed || cd.Ranges[0].HiClosed {
		t.Fatalf("constraint domain lost: %+v", cd)
	}
}

// TestFragmentRejectsGarbage covers the decode-validation paths.
func TestFragmentRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"id":1}`,
		`{"id":1,"root":{"kind":"nosuch"},"partKind":0,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"filter"},"partKind":0,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"scan"},"partKind":0,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"scan","handle":{"catalog":"m","table":"t"},"out":[{"name":"x","t":99}]},"partKind":0,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"values"},"partKind":99,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"project","inputs":[{"kind":"values"}],"exprs":[{"kind":"call","name":"nosuchfn"}]},"partKind":0,"outputConsumer":-1}`,
		`{"id":1,"root":{"kind":"filter","inputs":[{"kind":"values"}],"pred":{"kind":"cmp","op":77}},"partKind":0,"outputConsumer":-1}`,
	}
	for _, c := range cases {
		if _, err := UnmarshalFragment([]byte(c)); err == nil {
			t.Fatalf("accepted garbage fragment: %s", c)
		}
	}
}

type oneCatalog struct{ conn connector.Connector }

func (r oneCatalog) Connector(string) (connector.Connector, error) { return r.conn, nil }

// TestCompilingLeavesFragmentUnchanged: stacked projections compose into one
// page processor in the pipeline compiler, not in the plan, so a fragment
// reads the same on the wire and in EXPLAIN after a task has compiled it.
func TestCompilingLeavesFragmentUnchanged(t *testing.T) {
	scan := &plan.Scan{Handle: plan.TableHandle{Catalog: "memory", Table: "d"}, Columns: []string{"k", "v"},
		Out: plan.Schema{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Double}}}
	filter := &plan.Filter{Input: scan, Predicate: &expr.Compare{Op: expr.CmpGt, L: col(0, types.Bigint, "k"), R: &expr.Const{Val: bigintVal(0)}}}
	pruned := &plan.Project{Input: filter, Exprs: []expr.Expr{col(1, types.Double, "v"), col(0, types.Bigint, "k")},
		Out: plan.Schema{{Name: "v", T: types.Double}, {Name: "k", T: types.Bigint}}}
	args := &plan.Project{Input: pruned, Exprs: []expr.Expr{col(1, types.Bigint, "k"),
		&expr.Arith{Op: expr.OpMul, L: col(0, types.Double, "v"), R: col(0, types.Double, "v"), T: types.Double}, col(0, types.Double, "v")},
		Out: plan.Schema{{Name: "_k0", T: types.Bigint}, {Name: "_a0", T: types.Double}, {Name: "_a1", T: types.Double}}}
	agg := &plan.Aggregation{Input: args, GroupBy: []expr.Expr{col(0, types.Bigint, "_k0")},
		Aggregates: []plan.Aggregate{{Func: plan.AggSum, Arg: col(1, types.Double, "_a0"), Out: types.Double}, {Func: plan.AggMax, Arg: col(2, types.Double, "_a1"), Out: types.Double}},
		Step:       plan.AggPartial, Out: plan.Schema{{Name: "_k0", T: types.Bigint}, {Name: "_p1", T: types.Double}, {Name: "_p2", T: types.Double}}}
	frag := &plan.Fragment{ID: 1, Root: agg, OutputPartitioning: plan.Partitioning{Kind: plan.PartitionHash, Cols: []int{0}}}

	rawBefore, err := MarshalFragment(frag)
	if err != nil {
		t.Fatal(err)
	}
	explainBefore := plan.Format(frag.Root)

	conn := memconn.New("memory")
	conn.LoadTable("d", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Double}}, nil)
	ex := exec.NewExecutor(exec.ExecutorConfig{Threads: 1})
	defer ex.Close()
	pool := memory.NewNodePool(1<<30, 0)
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	if _, err := exec.NewTask(exec.TaskID{QueryID: "q", Fragment: 1}, frag, 0, ex, oneCatalog{conn}, qmem, pool, nil, 2, nil, exec.TaskConfig{}); err != nil {
		t.Fatal(err)
	}

	rawAfter, err := MarshalFragment(frag)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBefore, rawAfter) {
		t.Errorf("compiling changed the fragment's wire form:\n%s\nwas\n%s", rawAfter, rawBefore)
	}
	if got := plan.Format(frag.Root); got != explainBefore {
		t.Errorf("compiling changed the fragment's EXPLAIN text:\n%s\nwas\n%s", got, explainBefore)
	}
}
