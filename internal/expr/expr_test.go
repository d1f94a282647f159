package expr

import (
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/types"
)

func evalOne(t *testing.T, e Expr, row []types.Value) types.Value {
	t.Helper()
	var it Interpreter
	v, err := it.Eval(e, ValuesRow(row))
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	e := &Arith{Op: OpAdd, L: NewConst(types.BigintValue(2)), R: NewConst(types.BigintValue(3)), T: types.Bigint}
	if v := evalOne(t, e, nil); v.I != 5 {
		t.Errorf("2+3 = %v", v)
	}
	d := &Arith{Op: OpDiv, L: NewConst(types.DoubleValue(7)), R: NewConst(types.DoubleValue(2)), T: types.Double}
	if v := evalOne(t, d, nil); v.F != 3.5 {
		t.Errorf("7/2 = %v", v)
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	var it Interpreter
	e := &Arith{Op: OpDiv, L: NewConst(types.BigintValue(1)), R: NewConst(types.BigintValue(0)), T: types.Bigint}
	if _, err := it.Eval(e, ValuesRow(nil)); err == nil {
		t.Error("integer division by zero should error in the interpreter")
	}
}

func TestNullPropagation(t *testing.T) {
	e := &Arith{Op: OpMul, L: NewConst(types.NullValue(types.Bigint)), R: NewConst(types.BigintValue(3)), T: types.Bigint}
	if v := evalOne(t, e, nil); !v.Null {
		t.Error("NULL * 3 should be NULL")
	}
	cmp := &Compare{Op: CmpEq, L: NewConst(types.NullValue(types.Bigint)), R: NewConst(types.BigintValue(3))}
	if v := evalOne(t, cmp, nil); !v.Null {
		t.Error("NULL = 3 should be NULL")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := NewConst(types.NullValue(types.Boolean))
	tru := NewConst(types.BooleanValue(true))
	fls := NewConst(types.BooleanValue(false))

	// FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
	if v := evalOne(t, &And{L: fls, R: null}, nil); v.Null || v.B {
		t.Error("FALSE AND NULL should be FALSE")
	}
	if v := evalOne(t, &And{L: tru, R: null}, nil); !v.Null {
		t.Error("TRUE AND NULL should be NULL")
	}
	// TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
	if v := evalOne(t, &Or{L: tru, R: null}, nil); v.Null || !v.B {
		t.Error("TRUE OR NULL should be TRUE")
	}
	if v := evalOne(t, &Or{L: fls, R: null}, nil); !v.Null {
		t.Error("FALSE OR NULL should be NULL")
	}
	if v := evalOne(t, &Not{E: null}, nil); !v.Null {
		t.Error("NOT NULL should be NULL")
	}
}

func TestInWithNulls(t *testing.T) {
	// 1 IN (2, NULL) → NULL; 1 IN (1, NULL) → TRUE.
	in := &In{E: NewConst(types.BigintValue(1)), List: []Expr{
		NewConst(types.BigintValue(2)), NewConst(types.NullValue(types.Bigint)),
	}}
	if v := evalOne(t, in, nil); !v.Null {
		t.Error("1 IN (2, NULL) should be NULL")
	}
	in2 := &In{E: NewConst(types.BigintValue(1)), List: []Expr{
		NewConst(types.BigintValue(1)), NewConst(types.NullValue(types.Bigint)),
	}}
	if v := evalOne(t, in2, nil); v.Null || !v.B {
		t.Error("1 IN (1, NULL) should be TRUE")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l%", true},
		{"hello", "x%", false},
		{"hello", "hello_", false},
		{"", "%", true},
		{"abc", "%b%", true},
		{"aXbXc", "a%b%c", true},
		// _ is one character, not one byte, and so is the step after %.
		{"é", "_", true},
		{"héllo", "h_llo", true},
		{"é", "%__", false},
		{"€bz", "%__b%", false},
		// % is a wildcard even where the string holds a '%'.
		{"%x", "%", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestLikePrefix(t *testing.T) {
	if LikePrefix("abc%def") != "abc" || LikePrefix("xyz") != "xyz" || LikePrefix("%a") != "" {
		t.Error("LikePrefix wrong")
	}
}

func TestBuiltins(t *testing.T) {
	var it Interpreter
	call := func(name string, args ...types.Value) types.Value {
		b, ok := LookupBuiltin(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		argExprs := make([]Expr, len(args))
		for i, a := range args {
			argExprs[i] = NewConst(a)
		}
		v, err := it.Eval(&Call{Fn: b, Args: argExprs}, ValuesRow(nil))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	if v := call("abs", types.BigintValue(-5)); v.I != 5 {
		t.Errorf("abs: %v", v)
	}
	if v := call("lower", types.VarcharValue("AbC")); v.S != "abc" {
		t.Errorf("lower: %v", v)
	}
	if v := call("substr", types.VarcharValue("hello"), types.BigintValue(2), types.BigintValue(3)); v.S != "ell" {
		t.Errorf("substr: %v", v)
	}
	if v := call("coalesce", types.NullValue(types.Bigint), types.BigintValue(9)); v.I != 9 {
		t.Errorf("coalesce: %v", v)
	}
	if v := call("length", types.VarcharValue("abcd")); v.I != 4 {
		t.Errorf("length: %v", v)
	}
	if v := call("strpos", types.VarcharValue("hello"), types.VarcharValue("ll")); v.I != 3 {
		t.Errorf("strpos: %v", v)
	}
	// Positions and lengths count code points; substr gives '' for a start of
	// 0, a length below 1 or a start before the beginning, and a negative
	// start counts from the end.
	for _, c := range []struct {
		name string
		args []types.Value
		want types.Value
	}{
		{"length", []types.Value{types.VarcharValue("héllo")}, types.BigintValue(5)},
		{"strpos", []types.Value{types.VarcharValue("héllo"), types.VarcharValue("l")}, types.BigintValue(3)},
		{"substr", []types.Value{types.VarcharValue("héllo"), types.BigintValue(2), types.BigintValue(2)}, types.VarcharValue("él")},
		{"substr", []types.Value{types.VarcharValue("héllo"), types.BigintValue(3), types.BigintValue(1)}, types.VarcharValue("l")},
		{"substr", []types.Value{types.VarcharValue("hello"), types.BigintValue(-3), types.BigintValue(2)}, types.VarcharValue("ll")},
		{"substr", []types.Value{types.VarcharValue("hello"), types.BigintValue(-6), types.BigintValue(2)}, types.VarcharValue("")},
		{"substr", []types.Value{types.VarcharValue("hello"), types.BigintValue(0), types.BigintValue(2)}, types.VarcharValue("")},
		{"substr", []types.Value{types.VarcharValue("hello"), types.BigintValue(3), types.BigintValue(-1)}, types.VarcharValue("")},
	} {
		if v := call(c.name, c.args...); v.T != c.want.T || v.String() != c.want.String() {
			t.Errorf("%s%v = %q, want %q", c.name, c.args, v, c.want)
		}
	}
	if v := call("greatest", types.BigintValue(2), types.BigintValue(9), types.BigintValue(4)); v.I != 9 {
		t.Errorf("greatest: %v", v)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	var it Interpreter
	arr := NewConst(types.ArrayValue([]types.Value{
		types.BigintValue(1), types.BigintValue(2), types.BigintValue(3),
	}))
	tf, _ := LookupBuiltin("transform")
	lam := &Lambda{NParams: 1, Body: &Arith{Op: OpMul, L: &LambdaRef{I: 0, T: types.Bigint}, R: NewConst(types.BigintValue(10)), T: types.Bigint}}
	v, err := it.Eval(&Call{Fn: tf, Args: []Expr{arr, lam}}, ValuesRow(nil))
	if err != nil || len(v.A) != 3 || v.A[2].I != 30 {
		t.Fatalf("transform: %v %v", v, err)
	}

	ff, _ := LookupBuiltin("filter")
	flam := &Lambda{NParams: 1, Body: &Compare{Op: CmpGt, L: &LambdaRef{I: 0, T: types.Bigint}, R: NewConst(types.BigintValue(1))}}
	v, err = it.Eval(&Call{Fn: ff, Args: []Expr{arr, flam}}, ValuesRow(nil))
	if err != nil || len(v.A) != 2 {
		t.Fatalf("filter: %v %v", v, err)
	}

	rf, _ := LookupBuiltin("reduce")
	rlam := &Lambda{NParams: 2, Body: &Arith{Op: OpAdd, L: &LambdaRef{I: 0, T: types.Bigint}, R: &LambdaRef{I: 1, T: types.Bigint}, T: types.Bigint}}
	v, err = it.Eval(&Call{Fn: rf, Args: []Expr{arr, NewConst(types.BigintValue(0)), rlam}}, ValuesRow(nil))
	if err != nil || v.I != 6 {
		t.Fatalf("reduce: %v %v", v, err)
	}
}

// Property: the compiled evaluator agrees with the interpreter on a
// representative expression over arbitrary inputs — the correctness
// contract behind the codegen optimization (§V-B).
func TestCompiledMatchesInterpreter(t *testing.T) {
	colA := &ColumnRef{Index: 0, T: types.Bigint}
	colB := &ColumnRef{Index: 1, T: types.Double}
	exprs := []Expr{
		&Arith{Op: OpAdd, L: colA, R: NewConst(types.BigintValue(7)), T: types.Bigint},
		&Arith{Op: OpMul, L: colB, R: NewConst(types.DoubleValue(1.5)), T: types.Double},
		&Compare{Op: CmpGt, L: colA, R: NewConst(types.BigintValue(0))},
		&Between{E: colA, Lo: NewConst(types.BigintValue(-10)), Hi: NewConst(types.BigintValue(10))},
		&Case{
			Whens: []CaseWhen{{Cond: &Compare{Op: CmpLt, L: colA, R: NewConst(types.BigintValue(0))}, Then: NewConst(types.BigintValue(-1))}},
			Else:  NewConst(types.BigintValue(1)),
			T:     types.Bigint,
		},
	}
	f := func(a int32, bf float64, null bool) bool {
		var nulls []bool
		if null {
			nulls = []bool{true}
		}
		page := block.NewPage(
			&block.LongBlock{T: types.Bigint, Vals: []int64{int64(a)}, Nulls: nulls},
			block.NewDoubleBlock([]float64{bf}, nil),
		)
		var it Interpreter
		row := &pageRowTest{p: page}
		for _, e := range exprs {
			compiled := Compile(e)
			got, err := compiled.EvalPage(page)
			if err != nil {
				return false
			}
			want, err := it.Eval(e, row)
			if err != nil {
				return false
			}
			gv := got.Value(0)
			if gv.Null != want.Null {
				return false
			}
			if !gv.Null && !gv.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type pageRowTest struct{ p *block.Page }

func (r *pageRowTest) ColValue(i int) types.Value { return r.p.Col(i).Value(0) }

func TestPageProcessorFilter(t *testing.T) {
	col := &ColumnRef{Index: 0, T: types.Bigint}
	pp := NewPageProcessor(
		&Compare{Op: CmpGt, L: col, R: NewConst(types.BigintValue(2))},
		[]Expr{col},
	)
	p := block.NewPage(block.NewLongBlock([]int64{1, 2, 3, 4}, nil))
	out, err := pp.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 2 || out.Col(0).Long(0) != 3 {
		t.Errorf("filter output: %v", out)
	}
}

func TestPageProcessorAllFilteredReturnsNil(t *testing.T) {
	col := &ColumnRef{Index: 0, T: types.Bigint}
	pp := NewPageProcessor(&Compare{Op: CmpGt, L: col, R: NewConst(types.BigintValue(100))}, []Expr{col})
	out, err := pp.Process(block.NewPage(block.NewLongBlock([]int64{1, 2}, nil)))
	if err != nil || out != nil {
		t.Errorf("want nil page, got %v (%v)", out, err)
	}
}

func TestPageProcessorDictionaryPath(t *testing.T) {
	dict := block.NewVarcharBlock([]string{"aa", "bb", "cc"}, nil)
	col := &ColumnRef{Index: 0, T: types.Varchar}
	up, _ := LookupBuiltin("upper")
	pp := NewPageProcessor(nil, []Expr{&Call{Fn: up, Args: []Expr{col}}})
	// Two pages share one dictionary: the second projection must hit the
	// cache (§V-E).
	p1 := block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 1, 2, 0}))
	p2 := block.NewPage(block.NewDictionaryBlock(dict, []int32{2, 2, 1, 0}))
	o1, err := pp.Process(p1)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Col(0).Str(1) != "BB" {
		t.Errorf("dict projection: %v", o1.Col(0).Str(1))
	}
	if _, isDict := o1.Col(0).(*block.DictionaryBlock); !isDict {
		t.Error("projection over a dictionary should stay dictionary-encoded")
	}
	if _, err := pp.Process(p2); err != nil {
		t.Fatal(err)
	}
	if pp.Stats.DictCacheHits != 1 {
		t.Errorf("want 1 shared-dictionary cache hit, got %d", pp.Stats.DictCacheHits)
	}
	if pp.Stats.DictEvals != 1 {
		t.Errorf("want 1 dictionary evaluation, got %d", pp.Stats.DictEvals)
	}
}

func TestPageProcessorRLEPath(t *testing.T) {
	col := &ColumnRef{Index: 0, T: types.Bigint}
	pp := NewPageProcessor(nil, []Expr{&Arith{Op: OpAdd, L: col, R: NewConst(types.BigintValue(1)), T: types.Bigint}})
	p := block.NewPage(block.NewRLEBlock(types.BigintValue(9), 100))
	out, err := pp.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, isRLE := out.Col(0).(*block.RLEBlock); !isRLE {
		t.Error("projection over RLE should stay RLE")
	}
	if out.Col(0).Long(50) != 10 {
		t.Error("RLE projection value")
	}
}

func TestRewriteAndColumns(t *testing.T) {
	colA := &ColumnRef{Index: 2, T: types.Bigint}
	colB := &ColumnRef{Index: 5, T: types.Bigint}
	e := &Arith{Op: OpAdd, L: colA, R: colB, T: types.Bigint}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 5 {
		t.Errorf("Columns: %v", cols)
	}
	shifted := Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*ColumnRef); ok {
			return &ColumnRef{Index: c.Index - 2, T: c.T}
		}
		return nil
	})
	if got := Columns(shifted); got[0] != 0 || got[1] != 3 {
		t.Errorf("rewrite: %v", got)
	}
}

func TestIsDeterministic(t *testing.T) {
	rnd, _ := LookupBuiltin("random")
	if IsDeterministic(&Call{Fn: rnd}) {
		t.Error("random() must be non-deterministic")
	}
	low, _ := LookupBuiltin("lower")
	if !IsDeterministic(&Call{Fn: low, Args: []Expr{NewConst(types.VarcharValue("x"))}}) {
		t.Error("lower() must be deterministic")
	}
}

func TestCaseOperandlessNoMatchYieldsNull(t *testing.T) {
	c := &Case{
		Whens: []CaseWhen{{Cond: NewConst(types.BooleanValue(false)), Then: NewConst(types.BigintValue(1))}},
		T:     types.Bigint,
	}
	if v := evalOne(t, c, nil); !v.Null {
		t.Error("CASE with no matching WHEN and no ELSE should be NULL")
	}
}

func TestSubscript(t *testing.T) {
	arr := NewConst(types.ArrayValue([]types.Value{types.VarcharValue("x"), types.VarcharValue("y")}))
	s := &Subscript{Base: arr, Index: NewConst(types.BigintValue(2)), T: types.Varchar}
	if v := evalOne(t, s, nil); v.S != "y" {
		t.Errorf("arr[2]: %v", v)
	}
	var it Interpreter
	bad := &Subscript{Base: arr, Index: NewConst(types.BigintValue(5)), T: types.Varchar}
	if _, err := it.Eval(bad, ValuesRow(nil)); err == nil {
		t.Error("out-of-bounds subscript should error")
	}
}
