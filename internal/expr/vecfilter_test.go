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
		// IN, both polarities, with a NULL list element, long and varchar.
		&In{E: c0(), List: []Expr{longConst(1), longConst(-4), longConst(7)}},
		&In{E: c0(), List: []Expr{longConst(1), longConst(-4)}, Negate: true},
		&In{E: c0(), List: []Expr{longConst(2), NewConst(types.NullValue(types.Bigint))}},
		&In{E: c0(), List: []Expr{longConst(2), NewConst(types.NullValue(types.Bigint))}, Negate: true},
		&In{E: c5(), List: []Expr{strConst("apple"), strConst("")}},
		&In{E: c5(), List: []Expr{strConst("apple"), strConst("cherry")}, Negate: true},
		&In{E: c2(), List: []Expr{strConst("aa"), strConst("zz")}},
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

// hasNullInListElem reports whether pred contains an IN with a NULL list
// element. The selection and projection kernels skip NULL elements, while
// the interpreter implements the standard
// three-valued semantics — a pre-existing divergence this differential test
// is not trying to relitigate.
func hasNullInListElem(pred Expr) bool {
	found := false
	Walk(pred, func(e Expr) {
		if in, ok := e.(*In); ok {
			for _, el := range in.List {
				if c, ok := el.(*Const); ok && c.Val.Null {
					found = true
				}
			}
		}
	})
	return found
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
// (DisableVectorizedFilter), and the interpreted processor, and requires
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
		off.DisableVectorizedFilter()
		interp := NewInterpretedPageProcessor(pred, proj)
		for gi, p := range pages {
			name := fmt.Sprintf("pred %d %s page %d", pi, pred, gi)
			v := passingIDs(t, vec, p)
			o, in := v, v
			if !hasNullInListElem(pred) {
				o, in = passingIDs(t, off, p), passingIDs(t, interp, p)
			}
			if fmt.Sprint(v) != fmt.Sprint(o) || fmt.Sprint(v) != fmt.Sprint(in) {
				t.Fatalf("%s:\nvec        %v\nfilter-off %v\ninterp     %v", name, v, o, in)
			}
		}
	}
}

// TestSelKernelsCompiled pins down which predicate shapes actually get a
// specialized selection kernel, so fallback regressions are caught rather
// than silently eating the speedup.
func TestSelKernelsCompiled(t *testing.T) {
	kernelized := []Expr{
		&Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(3)},
		&Compare{Op: CmpGe, L: dblConst(1.5), R: colRef(1, types.Double)},
		&Between{E: colRef(0, types.Bigint), Lo: longConst(0), Hi: longConst(9)},
		&In{E: colRef(5, types.Varchar), List: []Expr{strConst("a")}},
		&Like{E: colRef(5, types.Varchar), Pattern: strConst("a%")},
		&IsNull{E: colRef(0, types.Bigint)},
		colRef(3, types.Boolean),
	}
	for _, e := range kernelized {
		if _, ok := compileSelKernel(e, false); !ok {
			t.Errorf("expected selection kernel for %s", e)
		}
	}
	// Shapes without a selection kernel must land on the vectorized boolean
	// kernel, not the interpreter.
	booleanKernel := []Expr{
		&Compare{Op: CmpEq, L: colRef(0, types.Bigint), R: colRef(1, types.Double)},
		&Compare{Op: CmpGt, L: &Arith{Op: OpAdd, L: colRef(0, types.Bigint), R: longConst(1), T: types.Bigint}, R: longConst(2)},
	}
	for _, e := range booleanKernel {
		if _, ok := compileSelKernel(e, false); ok {
			t.Errorf("unexpected selection kernel for %s", e)
		}
		if _, ok := vecBool(e); !ok {
			t.Errorf("expected vectorized boolean kernel for %s", e)
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
// whole page from row 0 whichever evaluator the predicate runs on — the
// boolean kernel (col-vs-col), the interpreter (function call), or the
// interpreted processor — including a run whose evaluation fails.
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

// TestVectorizedFilterNaN pins the kernels' IEEE semantics for NaN: it
// compares unequal to everything and is ordered against nothing, in the
// specialized selection kernel and in the boolean kernel alike. (The
// interpreter's total-order Compare ranks NaN equal to every number, a
// divergence this test is not trying to relitigate.)
func TestVectorizedFilterNaN(t *testing.T) {
	vals := []float64{1.0, math.NaN(), -2.0}
	ids := []int64{0, 1, 2}
	p := block.NewPage(block.NewDoubleBlock(vals, nil), block.NewRLEBlock(types.DoubleValue(1.0), 3), block.NewLongBlock(ids, nil))
	proj := []Expr{colRef(2, types.Bigint)}
	want := map[CmpOp]string{CmpEq: "[0]", CmpNe: "[1 2]", CmpLt: "[2]", CmpLe: "[0 2]", CmpGt: "[]", CmpGe: "[0]"}
	for op := CmpEq; op <= CmpGe; op++ {
		sel := NewPageProcessor(&Compare{Op: op, L: colRef(0, types.Double), R: dblConst(1.0)}, proj)
		kern := NewPageProcessor(&Compare{Op: op, L: colRef(0, types.Double), R: colRef(1, types.Double)}, proj)
		s, k := fmt.Sprint(passingIDs(t, sel, p)), fmt.Sprint(passingIDs(t, kern, p))
		if s != want[op] || k != want[op] {
			t.Errorf("op %s: selection kernel %s, boolean kernel %s, want %s", op, s, k, want[op])
		}
	}
}
