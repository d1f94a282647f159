package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
	union := &plan.Union{Inputs: []plan.Node{limited, limited}}
	var keys []expr.Expr
	for i, f := range union.Schema() {
		keys = append(keys, col(i, f.T, f.Name))
	}
	// DISTINCT: every column a key, no aggregates.
	distinct := &plan.Aggregation{Input: union, GroupBy: keys, Step: plan.AggSingle, Out: union.Schema()}
	write := &plan.TableWrite{
		Input:   &plan.EnforceSingleRow{Input: distinct},
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

// nonFiniteFragment carries NaN (Go's and another), ±Inf and −0.0 everywhere
// a double constant reaches a worker: VALUES rows, a predicate constant and a
// pushed-down domain point.
func nonFiniteFragment() *plan.Fragment {
	out := plan.Schema{{Name: "x", T: types.Double}}
	var rows [][]types.Value
	var points []types.Value
	for _, f := range []float64{math.NaN(), math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		rows = append(rows, []types.Value{types.DoubleValue(f)})
		points = append(points, types.DoubleValue(f))
	}
	scan := &plan.Scan{
		Handle: plan.TableHandle{Catalog: "memory", Table: "d", Constraint: &plan.Domain{
			Columns: map[string]*plan.ColumnDomain{"x": {T: types.Double, Points: points}}}},
		Columns: []string{"x"},
		Out:     out,
	}
	filter := &plan.Filter{Input: scan, Predicate: &expr.Compare{Op: expr.CmpNe, L: col(0, types.Double, "x"),
		R: &expr.Const{Val: types.DoubleValue(math.Inf(-1))}}}
	join := &plan.Join{Left: filter, Right: &plan.Values{Rows: rows, Out: out},
		Equi: []plan.EquiClause{{}}, Out: append(append(plan.Schema{}, out...), out...)}
	return &plan.Fragment{ID: 3, Root: &plan.Output{Input: join, Names: []string{"x", "y"}}, OutputConsumer: -1}
}

// TestFragmentRoundTrip: every fragment decodes to a tree equal to the one
// encoded — doubles bit for bit, builtins by name — and re-encodes to the
// same bytes.
func TestFragmentRoundTrip(t *testing.T) {
	for _, f := range append(testFragments(t), nonFiniteFragment()) {
		raw1, err := MarshalFragment(f)
		if err != nil {
			t.Fatalf("fragment %d: marshal: %v", f.ID, err)
		}
		got, err := UnmarshalFragment(raw1)
		if err != nil {
			t.Fatalf("fragment %d: unmarshal: %v\n%s", f.ID, err, raw1)
		}
		if d := diff("fragment", reflect.ValueOf(f), reflect.ValueOf(got)); d != "" {
			t.Fatalf("fragment %d: round trip changed %s\n%s", f.ID, d, raw1)
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

// diff returns where two values first differ, comparing doubles by their bits
// and builtins by name, or "" when they do not.
func diff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer, reflect.Slice, reflect.Map:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side"
			}
			return ""
		}
	}
	switch a.Kind() {
	case reflect.Interface:
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: %s vs %s", path, a.Elem().Type(), b.Elem().Type())
		}
		return diff(path, a.Elem(), b.Elem())
	case reflect.Pointer:
		if fa, ok := a.Interface().(*expr.Builtin); ok {
			if fb := b.Interface().(*expr.Builtin); fa.Name != fb.Name {
				return fmt.Sprintf("%s: builtin %s vs %s", path, fa.Name, fb.Name)
			}
			return ""
		}
		return diff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if sf := a.Type().Field(i); sf.IsExported() {
				if d := diff(path+"."+sf.Name, a.Field(i), b.Field(i)); d != "" {
					return d
				}
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d elements", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if !b.MapIndex(k).IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := diff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %016x vs %016x", path, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %#v vs %#v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// fill sets every exported field v reaches to a value other than its zero:
// an enum to its first valid value above zero, a double to a NaN that is not
// Go's, a child to a leaf of its interface. A struct type already being filled
// further up is left zero, or a value holding values would never end.
func fill(t *testing.T, v reflect.Value, path string, open map[reflect.Type]bool) {
	switch v.Kind() {
	case reflect.Interface:
		leaves := map[reflect.Type]any{
			nodeType: &plan.RemoteSource{SourceFragments: []int{1}},
			exprType: &expr.LambdaRef{I: 1, T: types.Bigint},
		}
		v.Set(reflect.ValueOf(leaves[v.Type()]))
	case reflect.Pointer:
		if v.Type() == builtinType {
			fn, _ := expr.LookupBuiltin("length")
			v.Set(reflect.ValueOf(fn))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path, open)
	case reflect.Struct:
		if open[v.Type()] {
			return
		}
		open[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				fill(t, v.Field(i), path+"."+sf.Name, open)
			}
		}
		delete(open, v.Type())
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(t, s.Index(0), path+"[0]", open)
		v.Set(s)
	case reflect.Map:
		m, elem := reflect.MakeMapWithSize(v.Type(), 1), reflect.New(v.Type().Elem()).Elem()
		fill(t, elem, path+"[k]", open)
		m.SetMapIndex(reflect.ValueOf("k").Convert(v.Type().Key()), elem)
		v.Set(m)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		for n := int64(1); v.Int() == 0 || !valid(v); n++ {
			v.SetInt(n)
		}
	case reflect.String:
		for _, s := range []string{path, "sum", "stats"} { // the name of an aggregate, a window function, an estimate source
			if v.SetString(s); valid(v) {
				break
			}
		}
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(0x7ff0000000000bad))
	default:
		t.Fatalf("%s is a %s: teach fill to set one", path, v.Type())
	}
	if !valid(v) {
		t.Fatalf("%s: teach fill a valid %s", path, v.Type())
	}
}

func valid(v reflect.Value) bool {
	e, ok := v.Interface().(validator)
	return !ok || e.Valid()
}

// TestCodecCarriesEveryField fills every exported field of every registered
// kind, and of the fragment around them, and requires each back from a round
// trip through the codec. A field added to a plan or expression struct is
// covered without editing this test or the codec.
func TestCodecCarriesEveryField(t *testing.T) {
	roots := []any{&plan.Fragment{}}
	for _, k := range kinds {
		roots = append(roots, reflect.New(reflect.TypeOf(k).Elem()).Interface())
	}
	for _, root := range roots {
		name := reflect.TypeOf(root).Elem().String()
		fill(t, reflect.ValueOf(root).Elem(), name, map[reflect.Type]bool{})
		// A kind is sent as what holds it on the wire: a node or an expression.
		sent := reflect.ValueOf(root).Elem()
		if n, ok := root.(plan.Node); ok {
			sent = reflect.ValueOf(&n).Elem()
		} else if x, ok := root.(expr.Expr); ok {
			sent = reflect.ValueOf(&x).Elem()
		}
		var e encoder
		if err := e.value(sent); err != nil || !json.Valid(e.buf) {
			t.Fatalf("%s: encode: %v\n%s", name, err, e.buf)
		}
		got := reflect.New(sent.Type()).Elem()
		d := decoder{data: e.buf}
		if err := d.value(got); err != nil {
			t.Fatalf("%s: decode: %v\n%s", name, err, e.buf)
		}
		if d := diff(name, sent, got); d != "" {
			t.Errorf("round trip changed %s\n%s", d, e.buf)
		}
	}
}

// TestEveryKindRegistered: every type in internal/plan with plan.Node's
// methods, and every type in internal/expr/ir.go with expr.Expr's, has a kind
// in the codec's registry, so a new node or expression fails here rather than
// in a distributed query.
func TestEveryKindRegistered(t *testing.T) {
	want := map[string]bool{}
	for _, src := range []struct {
		pkg, glob string
		methods   []string
	}{
		{"plan", "../plan/*.go", []string{"Schema", "Children", "WithChildren", "Describe"}},
		{"expr", "../expr/ir.go", []string{"Type", "String"}},
	} {
		files, err := filepath.Glob(src.glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v", src.glob, err)
		}
		methods := map[string]map[string]bool{} // receiver type -> its methods
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					if methods[id.Name] == nil {
						methods[id.Name] = map[string]bool{}
					}
					methods[id.Name][fd.Name.Name] = true
				}
			}
		}
		for typ, has := range methods {
			if !slices.ContainsFunc(src.methods, func(m string) bool { return !has[m] }) {
				want[src.pkg+"."+typ] = true
			}
		}
	}
	registered := map[string]bool{}
	for _, k := range kinds {
		registered[reflect.TypeOf(k).Elem().String()] = true
	}
	for typ := range want {
		if !registered[typ] {
			t.Errorf("%s has no kind in the wire registry", typ)
		}
	}
	if len(want) != len(kinds) {
		t.Errorf("the sources declare %d kinds, the registry holds %d", len(want), len(kinds))
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

// TestFragmentRejectsGarbage covers the decode-validation paths: malformed
// documents, then fragments that encode but that a worker compiling them
// would have indexed out of range with, or run with an unknown aggregate.
func TestFragmentRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"ID":1}`,
		`{"Root":{"kind":"nosuch"}}`,
		`{"Root":{"kind":"col","Index":0}}`,
		`{"Root":{"Input":{"kind":"values"},"kind":"filter"}}`,
		`{"Root":{"kind":"filter"}}`,
		`{"Root":{"kind":"scan"},"Extra":1}`,
		`{"Root":{"kind":"scan","Out":[{"Name":"x","T":99}]}}`,
		`{"Root":{"kind":"values"},"OutputPartitioning":{"Kind":99}}`,
		`{"Root":{"kind":"values","Rows":[[{"T":3,"F":"1.5"}]]}}`,
		`{"Root":{"kind":"values","Rows":[[{"T":2,"I":1.5}]]}}`,
		`{"Root":{"kind":"project","Input":{"kind":"values"},"Exprs":[{"kind":"call","Fn":"nosuchfn"}]}}`,
		`{"Root":{"kind":"project","Input":{"kind":"values"},"Exprs":[null]}}`,
		`{"Root":{"kind":"filter","Input":{"kind":"values"},"Predicate":{"kind":"cmp","Op":77,"L":{"kind":"col"},"R":{"kind":"col"}}}}`,
		`{"Root":{"kind":"scan","Handle":{"Constraint":{"Columns":{"x":null}}}}}`,
	}
	for _, c := range cases {
		if _, err := UnmarshalFragment([]byte(c)); err == nil {
			t.Errorf("accepted garbage fragment: %s", c)
		}
	}

	in := &plan.Values{Out: plan.Schema{{Name: "x", T: types.Bigint}}}
	two := plan.Schema{{Name: "x", T: types.Bigint}, {Name: "y", T: types.Bigint}}
	for name, root := range map[string]plan.Node{
		"step 7":      &plan.Aggregation{Input: in, Step: 7, Out: in.Out},
		"join type 9": &plan.Join{Type: 9, Left: in, Right: in, Equi: []plan.EquiClause{{}}, Out: two},
		"equi [5,-3]": &plan.Join{Left: in, Right: in, Equi: []plan.EquiClause{{Left: 5, Right: -3}}, Out: two},
		"unknown aggregate": &plan.Aggregation{Input: in,
			Aggregates: []plan.Aggregate{{Func: "nosuch", Out: types.Bigint}}, Out: in.Out},
		"projection wider than its expressions": &plan.Project{Input: in, Out: two,
			Exprs: []expr.Expr{col(0, types.Bigint, "x")}},
		"filter reading column 1 of 1": &plan.Filter{Input: in, Predicate: col(1, types.Boolean, "b")},
	} {
		raw, err := MarshalFragment(&plan.Fragment{Root: root})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := UnmarshalFragment(raw); err == nil {
			t.Errorf("%s: accepted %s", name, raw)
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
