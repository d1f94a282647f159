package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// filterTestPage builds a page covering the encodings the selection kernels
// specialize on: flat long/double with nulls, dictionary varchar, bool,
// RLE varchar, flat varchar, and a row-id column for identifying survivors.
func filterTestPage(r *rand.Rand, n int) *block.Page {
	longs := make([]int64, n)
	longNulls := make([]bool, n)
	doubles := make([]float64, n)
	dblNulls := make([]bool, n)
	bools := make([]bool, n)
	boolNulls := make([]bool, n)
	strs := make([]string, n)
	strNulls := make([]bool, n)
	dictIdx := make([]int32, n)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		longs[i] = int64(r.Intn(21) - 10)
		longNulls[i] = r.Intn(7) == 0
		doubles[i] = float64(r.Intn(21)-10) / 2
		dblNulls[i] = r.Intn(7) == 0
		bools[i] = r.Intn(2) == 0
		boolNulls[i] = r.Intn(9) == 0
		strs[i] = []string{"", "apple", "banana", "apricot", "cherry"}[r.Intn(5)]
		strNulls[i] = r.Intn(6) == 0
		dictIdx[i] = int32(r.Intn(4))
		ids[i] = int64(i)
	}
	dict := block.NewVarcharBlock([]string{"aa", "ab", "zz", ""}, []bool{false, false, false, true})
	return block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: longNulls},
		block.NewDoubleBlock(doubles, dblNulls),
		block.NewDictionaryBlock(dict, dictIdx),
		block.NewBoolBlock(bools, boolNulls),
		block.NewRLEBlock(types.VarcharValue("run"), n),
		block.NewVarcharBlock(strs, strNulls),
		block.NewLongBlock(ids, nil),
	)
}

func colRef(i int, t types.Type) *ColumnRef { return &ColumnRef{Index: i, T: t} }
func longConst(v int64) *Const              { return NewConst(types.BigintValue(v)) }
func dblConst(v float64) *Const             { return NewConst(types.DoubleValue(v)) }
func strConst(v string) *Const              { return NewConst(types.VarcharValue(v)) }

// filterPredicates enumerates the predicate shapes the kernel compiler
// handles, plus shapes it must fall back on.
func filterPredicates() []Expr {
	c0 := func() *ColumnRef { return colRef(0, types.Bigint) }
	c1 := func() *ColumnRef { return colRef(1, types.Double) }
	c2 := func() *ColumnRef { return colRef(2, types.Varchar) }
	c3 := func() *ColumnRef { return colRef(3, types.Boolean) }
	c4 := func() *ColumnRef { return colRef(4, types.Varchar) }
	c5 := func() *ColumnRef { return colRef(5, types.Varchar) }
	var ps []Expr
	// Every comparison op, both operand orders, long and double and varchar.
	for op := CmpEq; op <= CmpGe; op++ {
		ps = append(ps,
			&Compare{Op: op, L: c0(), R: longConst(3)},
			&Compare{Op: op, L: longConst(3), R: c0()},
			&Compare{Op: op, L: c1(), R: dblConst(1.5)},
			&Compare{Op: op, L: c0(), R: dblConst(2.5)}, // long col vs double const
			&Compare{Op: op, L: c5(), R: strConst("banana")},
			&Compare{Op: op, L: c2(), R: strConst("ab")}, // dictionary input
		)
	}
	ps = append(ps,
		// Boolean column shapes.
		c3(),
		&Not{E: c3()},
		&Compare{Op: CmpEq, L: c3(), R: NewConst(types.BooleanValue(false))},
		&Compare{Op: CmpNe, L: NewConst(types.BooleanValue(true)), R: c3()},
		// And/Or/Not nesting, including under negation (FALSE-set evaluation).
		&And{L: &Compare{Op: CmpGt, L: c0(), R: longConst(-2)}, R: &Compare{Op: CmpLt, L: c1(), R: dblConst(3)}},
		&Or{L: &Compare{Op: CmpEq, L: c0(), R: longConst(0)}, R: &Compare{Op: CmpGe, L: c1(), R: dblConst(4)}},
		&Not{E: &And{L: &Compare{Op: CmpGt, L: c0(), R: longConst(0)}, R: c3()}},
		&Not{E: &Or{L: &Compare{Op: CmpLt, L: c0(), R: longConst(0)}, R: &Not{E: c3()}}},
		&And{L: &Or{L: c3(), R: &Compare{Op: CmpLe, L: c0(), R: longConst(2)}},
			R: &Not{E: &Compare{Op: CmpEq, L: c5(), R: strConst("")}}},
		// BETWEEN, both polarities, long and double and the long-col/double-bound mix.
		&Between{E: c0(), Lo: longConst(-3), Hi: longConst(4)},
		&Between{E: c0(), Lo: longConst(-3), Hi: longConst(4), Negate: true},
		&Between{E: c1(), Lo: dblConst(-1), Hi: dblConst(2.5)},
		&Between{E: c1(), Lo: dblConst(-1), Hi: dblConst(2.5), Negate: true},
		&Between{E: c0(), Lo: dblConst(-2.5), Hi: dblConst(3.5)},
		&Not{E: &Between{E: c0(), Lo: longConst(0), Hi: longConst(5)}},
		// IN, both polarities, long and varchar.
		&In{E: c0(), List: []Expr{longConst(1), longConst(-4), longConst(7)}},
		&In{E: c0(), List: []Expr{longConst(1), longConst(-4)}, Negate: true},
		&In{E: c5(), List: []Expr{strConst("apple"), strConst("")}},
		&In{E: c5(), List: []Expr{strConst("apple"), strConst("cherry")}, Negate: true},
		&In{E: c2(), List: []Expr{strConst("aa"), strConst("zz")}},
	)
	// A NULL list element makes every non-member NULL (SQL's three-valued
	// IN): IN keeps its members, NOT IN and NOT (… IN …) keep nothing — over
	// flat, dictionary and RLE inputs, and through the boolean kernel for a
	// computed operand.
	nullLong, nullStr := NewConst(types.NullValue(types.Bigint)), NewConst(types.NullValue(types.Varchar))
	plusOne := func() Expr { return &Arith{Op: OpAdd, L: c0(), R: longConst(1), T: types.Bigint} }
	for _, in := range []*In{
		{E: c0(), List: []Expr{longConst(2), nullLong}},
		{E: c5(), List: []Expr{strConst("apple"), nullStr}},
		{E: c2(), List: []Expr{strConst("aa"), nullStr}},
		{E: c4(), List: []Expr{strConst("run"), nullStr}},
		{E: c4(), List: []Expr{strConst("other"), nullStr}},
		{E: plusOne(), List: []Expr{longConst(2), nullLong}},
	} {
		not := *in
		not.Negate = true
		ps = append(ps, in, &not, &Not{E: in}, &Not{E: &not})
	}
	ps = append(ps,
		// LIKE over flat and dictionary varchar, both polarities.
		&Like{E: c5(), Pattern: strConst("ap%")},
		&Like{E: c5(), Pattern: strConst("%an_na")},
		&Like{E: c5(), Pattern: strConst("a%"), Negate: true},
		&Like{E: c2(), Pattern: strConst("a_")},
		&Not{E: &Like{E: c2(), Pattern: strConst("z%")}},
		// IS NULL / IS NOT NULL on every encoding.
		&IsNull{E: c0()},
		&IsNull{E: c0(), Negate: true},
		&IsNull{E: c1()},
		&IsNull{E: c2()},
		&IsNull{E: c4()},
		&Not{E: &IsNull{E: c5()}},
		// Constant predicates.
		NewConst(types.BooleanValue(true)),
		NewConst(types.BooleanValue(false)),
		NewConst(types.NullValue(types.Boolean)),
		// RLE input.
		&Compare{Op: CmpEq, L: c4(), R: strConst("run")},
		&Compare{Op: CmpNe, L: c4(), R: strConst("run")},
		// Shapes with no kernel: col-vs-col compare, arithmetic operand —
		// must still agree through the boolean-kernel/interpreter fallback.
		&Compare{Op: CmpLt, L: c0(), R: c1()},
		&Compare{Op: CmpGt, L: &Arith{Op: OpAdd, L: c0(), R: longConst(1), T: types.Bigint}, R: longConst(2)},
		// The same under a prior selection and under negation: the boolean
		// kernel only sees the rows its specialized sibling let through.
		&And{L: &Compare{Op: CmpGt, L: c0(), R: longConst(-2)}, R: &Compare{Op: CmpLt, L: c0(), R: c1()}},
		&Not{E: &And{L: &Compare{Op: CmpLt, L: c0(), R: c1()}, R: c3()}},
		// A predicate that fails on some rows (zero divisors, and for double
		// modulo divisors that truncate to zero): those rows do not pass.
		&Compare{Op: CmpGt, L: &Arith{Op: OpDiv, L: longConst(10), R: c0(), T: types.Bigint}, R: longConst(1)},
		&Not{E: &Compare{Op: CmpGt, L: &Arith{Op: OpDiv, L: longConst(10), R: c0(), T: types.Bigint}, R: longConst(1)}},
		&Compare{Op: CmpEq, L: &Arith{Op: OpMod, L: c1(), R: dblConst(2), T: types.Double}, R: dblConst(1)},
		&Compare{Op: CmpGe, L: &Arith{Op: OpMod, L: dblConst(7), R: c1(), T: types.Double}, R: dblConst(0)},
		// No kernel at all (a function call): interpreted leaf under a
		// specialized sibling.
		&And{L: &Compare{Op: CmpGt, L: c0(), R: longConst(0)}, R: &Compare{Op: CmpGt, L: lengthOf(c5()), R: longConst(5)}},
	)
	return ps
}

func lengthOf(e Expr) Expr {
	fn, _ := LookupBuiltin("length")
	return &Call{Fn: fn, Args: []Expr{e}}
}

// passingIDs runs pred as a filter over p and returns the surviving row ids
// (the last column), using the given processor constructor.
func passingIDs(t *testing.T, pp *PageProcessor, p *block.Page) []int64 {
	t.Helper()
	out, err := pp.Process(p)
	if err != nil {
		t.Fatalf("process: %v", err)
	}
	if out == nil {
		return nil
	}
	ids := make([]int64, out.RowCount())
	for i := range ids {
		ids[i] = out.Col(0).Long(i)
	}
	return ids
}

// TestVectorizedFilterDifferential runs every predicate shape through the
// vectorized kernels, the interpreted filter under vectorized projections
// (interpretFilter), and the interpreted processor, and requires
// identical surviving rows in identical order.
func TestVectorizedFilterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pages := []*block.Page{
		filterTestPage(r, 193),
		filterTestPage(r, 1),
		filterTestPage(r, 1024),
	}
	proj := []Expr{colRef(6, types.Bigint)}
	for pi, pred := range filterPredicates() {
		vec := NewPageProcessor(pred, proj)
		off := NewPageProcessor(pred, proj)
		off.interpretFilter()
		interp := NewInterpretedPageProcessor(pred, proj)
		for gi, p := range pages {
			name := fmt.Sprintf("pred %d %s page %d", pi, pred, gi)
			v, o, in := passingIDs(t, vec, p), passingIDs(t, off, p), passingIDs(t, interp, p)
			if fmt.Sprint(v) != fmt.Sprint(o) || fmt.Sprint(v) != fmt.Sprint(in) {
				t.Fatalf("%s:\nvec        %v\nfilter-off %v\ninterp     %v", name, v, o, in)
			}
		}
	}
}

// TestSelKernelsCompiled pins down which predicate shapes read their column
// in place, so fallback regressions are caught rather than silently eating
// the speedup.
func TestSelKernelsCompiled(t *testing.T) {
	kernelized := []Expr{
		&Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(3)},
		&Compare{Op: CmpGe, L: dblConst(1.5), R: colRef(1, types.Double)},
		&Between{E: colRef(0, types.Bigint), Lo: longConst(0), Hi: longConst(9)},
		&In{E: colRef(5, types.Varchar), List: []Expr{strConst("a")}},
		&Like{E: colRef(5, types.Varchar), Pattern: strConst("a%")},
	}
	for _, e := range kernelized {
		var c selCompiler
		if _, ok := c.compileLeaf(e, false); !ok || c.memos != 1 {
			t.Errorf("expected a column kernel for %s", e)
		}
	}
	for _, e := range []Expr{&IsNull{E: colRef(0, types.Bigint)}, colRef(3, types.Boolean)} {
		if _, ok := new(selCompiler).compileLeaf(e, false); !ok {
			t.Errorf("expected selection kernel for %s", e)
		}
	}
}

// TestPredicateKernelCoverage pins which predicate shapes run on kernels, in
// each position a predicate takes: in a WHERE clause with no leaf on the
// interpreter (the compiler puts a leaf there exactly where, outside a WHERE
// clause, it fails to compile it), as a boolean SELECT column and as a CASE
// WHEN condition under a filter, neither projection falling back on the
// interpreter. A shape with a function call, double modulo, IS NULL over an
// expression or a varchar BETWEEN has no kernel anywhere.
func TestPredicateKernelCoverage(t *testing.T) {
	c0, c1, c2, c3, c5 := colRef(0, types.Bigint), colRef(1, types.Double), colRef(2, types.Varchar), colRef(3, types.Boolean), colRef(5, types.Varchar)
	date := colRef(7, types.Date)
	plusOne := &Arith{Op: OpAdd, L: c0, R: longConst(1), T: types.Bigint}
	null := func(t types.Type) Expr { return NewConst(types.NullValue(t)) }
	gt := func(l, r Expr) Expr { return &Compare{Op: CmpGt, L: l, R: r} }
	kernels := []Expr{
		gt(c0, longConst(3)),
		gt(longConst(3), c0),
		gt(c1, dblConst(1.5)),
		gt(c0, dblConst(2.5)),
		gt(date, NewConst(types.DateValue(9))),
		gt(c5, strConst("b")),
		&Compare{Op: CmpEq, L: c2, R: strConst("ab")},
		&Compare{Op: CmpNe, L: c3, R: NewConst(types.BooleanValue(true))},
		gt(c0, c1),
		gt(plusOne, longConst(2)),
		gt(&Arith{Op: OpMul, L: c1, R: dblConst(2), T: types.Double}, dblConst(3)),
		&Compare{Op: CmpEq, L: gt(c0, longConst(1)), R: c3},
		&Between{E: c0, Lo: longConst(-3), Hi: longConst(4)},
		&Between{E: c1, Lo: dblConst(-1), Hi: dblConst(2.5), Negate: true},
		&Between{E: c0, Lo: c1, Hi: plusOne},
		&In{E: c0, List: []Expr{longConst(1), null(types.Bigint)}},
		&In{E: c2, List: []Expr{strConst("aa"), strConst("zz")}, Negate: true},
		&In{E: plusOne, List: []Expr{longConst(2)}},
		&In{E: &Cast{E: c0, T: types.Double}, List: []Expr{dblConst(2.5), null(types.Double)}},
		&Like{E: c5, Pattern: strConst("ap%")},
		&Like{E: &Arith{Op: OpConcat, L: c5, R: strConst("x"), T: types.Varchar}, Pattern: strConst("%x")},
		&IsNull{E: c0},
		&IsNull{E: c2, Negate: true},
		c3,
		&Not{E: c3},
		&Case{T: types.Boolean, Whens: []CaseWhen{{Cond: c3, Then: gt(c0, longConst(1))}}, Else: NewConst(types.BooleanValue(false))},
		&And{L: gt(c0, longConst(-2)), R: &Or{L: c3, R: &Not{E: &Like{E: c2, Pattern: strConst("z%")}}}},
		&Not{E: &Or{L: gt(c0, c1), R: &And{L: &IsNull{E: c5}, R: gt(plusOne, longConst(2))}}},
	}
	interpreted := []Expr{
		gt(lengthOf(c5), longConst(5)),
		&And{L: gt(c0, longConst(0)), R: gt(lengthOf(c5), longConst(5))},
		&Compare{Op: CmpEq, L: &Arith{Op: OpMod, L: c1, R: dblConst(2), T: types.Double}, R: dblConst(1)},
		&IsNull{E: plusOne},
		&Between{E: c5, Lo: strConst("a"), Hi: strConst("b")},
	}
	under := gt(c0, longConst(0))
	for _, want := range []bool{true, false} {
		shapes := kernels
		if !want {
			shapes = interpreted
		}
		for _, e := range shapes {
			_, whereTrue := new(selCompiler).compileSel(e, false, false)
			_, whereFalse := new(selCompiler).compileSel(e, true, false)
			when := &Case{T: types.Bigint, Whens: []CaseWhen{{Cond: e, Then: longConst(1)}}, Else: longConst(0)}
			for pos, got := range map[string]bool{
				"WHERE":     whereTrue && whereFalse,
				"SELECT":    NewPageProcessor(nil, []Expr{e, colRef(6, types.Bigint)}).projVec[0] != nil,
				"CASE WHEN": NewPageProcessor(under, []Expr{when, colRef(6, types.Bigint)}).projVec[0] != nil,
			} {
				if got != want {
					t.Errorf("%s in %s: on kernels %v, want %v", e, pos, got, want)
				}
			}
		}
	}
}

// TestRLEFastPathOnlyChecksFilterColumns is the regression test for the
// all-inputs-RLE check: the fast path must trigger when every column the
// FILTER references is RLE, even if unrelated columns in the page are flat.
func TestRLEFastPathOnlyChecksFilterColumns(t *testing.T) {
	n := 100
	flat := make([]int64, n)
	ids := make([]int64, n)
	for i := range flat {
		flat[i] = int64(i)
		ids[i] = int64(i)
	}
	page := block.NewPage(
		block.NewRLEBlock(types.BigintValue(7), n), // col 0: RLE, referenced by filter
		block.NewLongBlock(flat, nil),              // col 1: flat, NOT referenced
		block.NewLongBlock(ids, nil),               // col 2: row id projection
	)
	pred := &Compare{Op: CmpEq, L: colRef(0, types.Bigint), R: longConst(7)}
	pp := NewPageProcessor(pred, []Expr{colRef(2, types.Bigint)})
	got := passingIDs(t, pp, page)
	if len(got) != n {
		t.Fatalf("RLE-true filter should pass all %d rows, got %d", n, len(got))
	}
	// The fast path evaluates the predicate once and never touches the
	// per-row kernels, so CellsProcessed stays zero.
	if pp.Stats.CellsProcessed != 0 {
		t.Errorf("fast path should not count per-row cells, got %d", pp.Stats.CellsProcessed)
	}

	// Rejecting RLE fast path: constant-false over the page drops all rows.
	pred2 := &Compare{Op: CmpNe, L: colRef(0, types.Bigint), R: longConst(7)}
	pp2 := NewPageProcessor(pred2, []Expr{colRef(2, types.Bigint)})
	if got := passingIDs(t, pp2, page); len(got) != 0 {
		t.Fatalf("RLE-false filter should drop all rows, got %d", len(got))
	}

	// Negative control: a filter referencing the flat column must NOT take
	// the single-row fast path even though another column is RLE.
	pred3 := &Compare{Op: CmpLt, L: colRef(1, types.Bigint), R: longConst(50)}
	pp3 := NewPageProcessor(pred3, []Expr{colRef(2, types.Bigint)})
	got3 := passingIDs(t, pp3, page)
	if len(got3) != 50 {
		t.Fatalf("flat filter should pass 50 rows, got %d", len(got3))
	}
	if pp3.Stats.CellsProcessed == 0 {
		t.Error("flat-column filter must run the per-row kernels, not the RLE fast path")
	}
}

// TestRLEFastPathWithoutSelectionKernel: an all-RLE filter page decides the
// whole page from row 0 whichever evaluator the predicate runs on — value
// kernels compared at the positions (col-vs-col), the interpreter (function
// call), or the interpreted processor — including a run whose evaluation
// fails.
func TestRLEFastPathWithoutSelectionKernel(t *testing.T) {
	n := 64
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	page := func(a, b int64) *block.Page {
		return block.NewPage(
			block.NewRLEBlock(types.BigintValue(a), n),
			block.NewRLEBlock(types.BigintValue(b), n),
			block.NewRLEBlock(types.VarcharValue("sixsix"), n),
			block.NewLongBlock(ids, nil),
		)
	}
	c0, c1 := colRef(0, types.Bigint), colRef(1, types.Bigint)
	preds := []Expr{
		&Compare{Op: CmpLt, L: c0, R: c1},
		&Compare{Op: CmpGt, L: &Arith{Op: OpDiv, L: c1, R: c0, T: types.Bigint}, R: longConst(1)},
		&Compare{Op: CmpGt, L: lengthOf(colRef(2, types.Varchar)), R: c0},
	}
	proj := []Expr{colRef(3, types.Bigint)}
	for _, pred := range preds {
		for _, ab := range [][2]int64{{1, 5}, {5, 1}, {0, 5}} {
			p := page(ab[0], ab[1])
			vec := NewPageProcessor(pred, proj)
			v := passingIDs(t, vec, p)
			in := passingIDs(t, NewInterpretedPageProcessor(pred, proj), p)
			if fmt.Sprint(v) != fmt.Sprint(in) {
				t.Errorf("%s over runs %v: vec=%v interp=%v", pred, ab, v, in)
			}
			if len(v) != 0 && len(v) != n {
				t.Errorf("%s over runs %v: %d of %d rows passed an all-RLE page", pred, ab, len(v), n)
			}
			if vec.Stats.CellsProcessed != 0 {
				t.Errorf("%s over runs %v: fast path not taken", pred, ab)
			}
		}
	}
}

// TestVectorizedFilterNaN pins IEEE semantics for NaN: it compares unequal
// to everything and is ordered against nothing, in the selection kernel
// against a constant, in the one comparing two columns' values and in the
// interpreter alike, and it lies between no bounds.
func TestVectorizedFilterNaN(t *testing.T) {
	vals := []float64{1.0, math.NaN(), -2.0}
	ids := []int64{0, 1, 2}
	p := block.NewPage(block.NewDoubleBlock(vals, nil), block.NewRLEBlock(types.DoubleValue(1.0), 3), block.NewLongBlock(ids, nil))
	proj := []Expr{colRef(2, types.Bigint)}
	check := func(name string, pred Expr, want string) {
		t.Helper()
		for _, proc := range []struct {
			path string
			pp   *PageProcessor
		}{{"kernels", NewPageProcessor(pred, proj)}, {"interpreter", NewInterpretedPageProcessor(pred, proj)}} {
			if got := fmt.Sprint(passingIDs(t, proc.pp, p)); got != want {
				t.Errorf("%s, %s: %s, want %s", name, proc.path, got, want)
			}
		}
	}
	want := map[CmpOp]string{CmpEq: "[0]", CmpNe: "[1 2]", CmpLt: "[2]", CmpLe: "[0 2]", CmpGt: "[]", CmpGe: "[0]"}
	for op := CmpEq; op <= CmpGe; op++ {
		check(fmt.Sprintf("op %s against a constant (selection kernel)", op),
			&Compare{Op: op, L: colRef(0, types.Double), R: dblConst(1.0)}, want[op])
		check(fmt.Sprintf("op %s against a column (two columns' values)", op),
			&Compare{Op: op, L: colRef(0, types.Double), R: colRef(1, types.Double)}, want[op])
	}
	check("BETWEEN", &Between{E: colRef(0, types.Double), Lo: dblConst(-5), Hi: dblConst(5)}, "[0 2]")
	check("NOT BETWEEN", &Between{E: colRef(0, types.Double), Lo: dblConst(-5), Hi: dblConst(5), Negate: true}, "[1]")
}
