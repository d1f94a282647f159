package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// projTestPage builds a page covering the encodings and edge values the
// projection kernels specialize on. Column layout:
//
//	0 bigint  flat, nulls, values in [-10,10]
//	1 double  flat, nulls, includes -0.0, NaN, and values equal to ints
//	2 varchar dictionary (dict has an unreferenced entry and a NULL entry)
//	3 boolean flat, nulls
//	4 varchar RLE
//	5 varchar flat, nulls
//	6 bigint  flat, no nulls, never zero (safe divisor)
//	7 bigint  row id
func projTestPage(r *rand.Rand, n int) *block.Page {
	longs := make([]int64, n)
	longNulls := make([]bool, n)
	doubles := make([]float64, n)
	dblNulls := make([]bool, n)
	bools := make([]bool, n)
	boolNulls := make([]bool, n)
	strs := make([]string, n)
	strNulls := make([]bool, n)
	dictIdx := make([]int32, n)
	divisors := make([]int64, n)
	ids := make([]int64, n)
	edges := []float64{math.Copysign(0, -1), 0, math.NaN(), 2, 2.5, -3, 1e18}
	for i := 0; i < n; i++ {
		longs[i] = int64(r.Intn(21) - 10)
		longNulls[i] = r.Intn(7) == 0
		doubles[i] = edges[r.Intn(len(edges))]
		dblNulls[i] = r.Intn(7) == 0
		bools[i] = r.Intn(2) == 0
		boolNulls[i] = r.Intn(9) == 0
		strs[i] = []string{"", "apple", "banana", "apricot", "cherry"}[r.Intn(5)]
		strNulls[i] = r.Intn(6) == 0
		dictIdx[i] = int32(r.Intn(3)) // entries 3 (unreferenced) and 2 (NULL, referenced) below
		if r.Intn(4) == 0 {
			dictIdx[i] = 2
		}
		divisors[i] = int64(r.Intn(9) + 1)
		ids[i] = int64(i)
	}
	dict := block.NewVarcharBlock(
		[]string{"aa", "ab", "", "unreferenced"},
		[]bool{false, false, true, false})
	return block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: longNulls},
		block.NewDoubleBlock(doubles, dblNulls),
		block.NewDictionaryBlock(dict, dictIdx),
		block.NewBoolBlock(bools, boolNulls),
		block.NewRLEBlock(types.VarcharValue("run"), n),
		block.NewVarcharBlock(strs, strNulls),
		block.NewLongBlock(divisors, nil),
		block.NewLongBlock(ids, nil),
	)
}

// projExpressions enumerates the projection shapes the vectorized compiler
// handles, plus shapes it must fall back on. All divisions use the nonzero
// divisor column (6) or a CASE guard; error behavior has its own tests.
func projExpressions() []Expr {
	c0 := func() *ColumnRef { return colRef(0, types.Bigint) }
	c1 := func() *ColumnRef { return colRef(1, types.Double) }
	c2 := func() *ColumnRef { return colRef(2, types.Varchar) }
	c3 := func() *ColumnRef { return colRef(3, types.Boolean) }
	c4 := func() *ColumnRef { return colRef(4, types.Varchar) }
	c5 := func() *ColumnRef { return colRef(5, types.Varchar) }
	c6 := func() *ColumnRef { return colRef(6, types.Bigint) }
	lArith := func(op BinOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r, T: types.Bigint} }
	dArith := func(op BinOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r, T: types.Double} }
	return []Expr{
		// Identity and constants.
		c0(), c1(), c2(), c3(), c4(), c5(),
		longConst(42),
		dblConst(2.5),
		strConst("k"),
		NewConst(types.NullValue(types.Bigint)),
		// Long arithmetic, nested, with nulls flowing through.
		lArith(OpAdd, c0(), longConst(3)),
		lArith(OpSub, longConst(100), c0()),
		lArith(OpMul, c0(), c0()),
		lArith(OpDiv, c0(), c6()),
		lArith(OpMod, c0(), c6()),
		lArith(OpMul, lArith(OpAdd, c0(), longConst(1)), lArith(OpSub, c0(), longConst(1))),
		&Neg{E: c0()},
		// Double arithmetic, including long operands widened to double.
		dArith(OpAdd, c1(), dblConst(0.5)),
		dArith(OpMul, c1(), c1()),
		dArith(OpSub, dblConst(0), c1()), // exercises -0.0 vs 0.0
		dArith(OpDiv, c1(), dblConst(2)),
		dArith(OpMul, &Cast{E: c0(), T: types.Double}, c1()),
		&Neg{E: c1()},
		// Casts.
		&Cast{E: c0(), T: types.Double},
		&Cast{E: c6(), T: types.Double},
		// Concat over flat, dictionary, and RLE varchar.
		&Arith{Op: OpConcat, L: c5(), R: strConst("!"), T: types.Varchar},
		&Arith{Op: OpConcat, L: c2(), R: c5(), T: types.Varchar},
		&Arith{Op: OpConcat, L: c4(), R: c2(), T: types.Varchar},
		// Comparisons / boolean logic as projected values.
		&Compare{Op: CmpLt, L: c0(), R: longConst(0)},
		&Compare{Op: CmpEq, L: c2(), R: strConst("ab")},
		&And{L: c3(), R: &Compare{Op: CmpGt, L: c0(), R: longConst(-5)}},
		&Or{L: &Not{E: c3()}, R: &IsNull{E: c1()}},
		&IsNull{E: c2()},
		&IsNull{E: c0(), Negate: true},
		&Between{E: c0(), Lo: longConst(-3), Hi: longConst(4)},
		&In{E: c5(), List: []Expr{strConst("apple"), strConst("cherry")}},
		&Like{E: c5(), Pattern: strConst("ap%")},
		// CASE: typed output, null condition handling, missing ELSE, and a
		// division guarded by the branch it sits in.
		&Case{T: types.Bigint, Whens: []CaseWhen{
			{Cond: &Compare{Op: CmpGt, L: c0(), R: longConst(0)}, Then: lArith(OpMul, c0(), longConst(2))},
			{Cond: c3(), Then: longConst(-1)},
		}, Else: c0()},
		&Case{T: types.Varchar, Whens: []CaseWhen{
			{Cond: &IsNull{E: c5()}, Then: strConst("null!")},
		}},
		&Case{T: types.Bigint, Whens: []CaseWhen{
			{Cond: &Compare{Op: CmpNe, L: c0(), R: longConst(0)}, Then: lArith(OpDiv, longConst(100), c0())},
		}, Else: longConst(0)},
		// Shapes with no vectorized kernel — must agree via the fallback.
		&Cast{E: strConst("17"), T: types.Bigint},
		func() Expr {
			fn, _ := LookupBuiltin("length")
			return &Call{Fn: fn, Args: []Expr{c5()}}
		}(),
	}
}

// renderBlock formats a block so that -0.0, NaN payloads, and nulls are all
// distinguishable: doubles render as raw bit patterns.
func renderBlock(b block.Block, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if b.IsNull(i) {
			sb.WriteString("∅;")
			continue
		}
		switch b.Type() {
		case types.Double:
			fmt.Fprintf(&sb, "%016x;", math.Float64bits(b.Double(i)))
		default:
			fmt.Fprintf(&sb, "%v;", b.Value(i))
		}
	}
	return sb.String()
}

func renderPage(t *testing.T, pp *PageProcessor, p *block.Page) string {
	t.Helper()
	out, err := pp.Process(p)
	if err != nil {
		t.Fatalf("process: %v", err)
	}
	return renderOut(out)
}

// renderOut renders an output page column by column ("" for nil).
func renderOut(out *block.Page) string {
	if out == nil {
		return ""
	}
	var sb strings.Builder
	for c := 0; c < out.ColCount(); c++ {
		sb.WriteString(renderBlock(out.Col(c), out.RowCount()))
		sb.WriteByte('|')
	}
	return sb.String()
}

// TestVectorizedProjectionDifferential runs every projection shape through
// the columnar kernels and the interpreter, with and without a filter
// (selection-vector fusion), and requires bit-identical output pages.
func TestVectorizedProjectionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	pages := []*block.Page{
		projTestPage(r, 211),
		projTestPage(r, 1),
		projTestPage(r, 1024),
	}
	filters := []Expr{
		nil,
		&Compare{Op: CmpGt, L: colRef(7, types.Bigint), R: longConst(-1)}, // passes all
		&Compare{Op: CmpEq, L: colRef(0, types.Bigint), R: longConst(3)},  // sparse
		NewConst(types.BooleanValue(false)),                               // empty output
	}
	for ei, e := range projExpressions() {
		proj := []Expr{e, colRef(7, types.Bigint)}
		for fi, f := range filters {
			vec := NewPageProcessor(f, proj)
			interp := NewInterpretedPageProcessor(f, proj)
			for gi, p := range pages {
				name := fmt.Sprintf("expr %d %s filter %d page %d", ei, e, fi, gi)
				v := renderPage(t, vec, p)
				in := renderPage(t, interp, p)
				if v != in {
					t.Fatalf("%s:\nvec    %s\ninterp %s", name, v, in)
				}
			}
		}
	}
}

// TestVectorizedProjectionKernelsUsed pins down that representative shapes
// actually run on the columnar kernels rather than silently falling back.
func TestVectorizedProjectionKernelsUsed(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	p := projTestPage(r, 256)
	proj := []Expr{
		&Arith{Op: OpMul, L: colRef(0, types.Bigint), R: longConst(3), T: types.Bigint},
		&Arith{Op: OpAdd, L: colRef(1, types.Double), R: dblConst(1), T: types.Double},
		&Arith{Op: OpConcat, L: colRef(5, types.Varchar), R: strConst("x"), T: types.Varchar},
	}
	pp := NewPageProcessor(&Compare{Op: CmpGe, L: colRef(7, types.Bigint), R: longConst(8)}, proj)
	if _, err := pp.Process(p); err != nil {
		t.Fatal(err)
	}
	if pp.Stats.VecProjEvals != 3 {
		t.Fatalf("expected 3 vectorized projection evals, got %d", pp.Stats.VecProjEvals)
	}
	if pp.Stats.FullEvals != 0 {
		t.Fatalf("expected no row-at-a-time evals, got %d", pp.Stats.FullEvals)
	}

	// The interpreted processor runs none of them.
	off := NewInterpretedPageProcessor(nil, proj)
	if _, err := off.Process(p); err != nil {
		t.Fatal(err)
	}
	if off.Stats.VecProjEvals != 0 {
		t.Fatalf("ablation still ran %d vectorized evals", off.Stats.VecProjEvals)
	}
}

// TestProjectionCSE verifies the q1-style shared subtree is evaluated once
// per page, counted, and produces the same rows as the unshared paths.
func TestProjectionCSE(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	p := projTestPage(r, 300)
	price := colRef(1, types.Double)
	disc := &Arith{Op: OpSub, L: dblConst(1), R: colRef(1, types.Double), T: types.Double}
	base := &Arith{Op: OpMul, L: price, R: disc, T: types.Double} // price * (1 - price)
	proj := []Expr{
		base,
		&Arith{Op: OpMul, L: base, R: dblConst(1.04), T: types.Double},
		&Arith{Op: OpAdd, L: base, R: colRef(1, types.Double), T: types.Double},
	}
	vec := NewPageProcessor(nil, proj)
	if len(vec.cseSlots) != 1 {
		t.Fatalf("expected 1 CSE slot, got %d", len(vec.cseSlots))
	}
	interp := NewInterpretedPageProcessor(nil, proj)
	v := renderPage(t, vec, p)
	if in := renderPage(t, interp, p); v != in {
		t.Fatalf("CSE changed results vs interpreter:\nvec    %s\ninterp %s", v, in)
	}
	// Three occurrences, one evaluation: two saved per page.
	if vec.Stats.CSEHits != 2 {
		t.Fatalf("expected 2 CSE hits, got %d", vec.Stats.CSEHits)
	}
}

// TestCSEDoesNotHoistErrors: a division inside a CASE branch must stay
// guarded even when the whole branch expression repeats across the list.
func TestCSEDoesNotHoistErrors(t *testing.T) {
	div := &Arith{Op: OpDiv, L: longConst(10), R: colRef(0, types.Bigint), T: types.Bigint}
	guarded := &Case{T: types.Bigint, Whens: []CaseWhen{
		{Cond: &Compare{Op: CmpNe, L: colRef(0, types.Bigint), R: longConst(0)}, Then: div},
	}, Else: longConst(0)}
	proj := []Expr{
		&Arith{Op: OpAdd, L: guarded, R: longConst(1), T: types.Bigint},
		&Arith{Op: OpMul, L: guarded, R: longConst(2), T: types.Bigint},
	}
	pp := NewPageProcessor(nil, proj)
	for _, s := range pp.cseSlots {
		if s == nil {
			continue
		}
		Walk(s.expr, func(x Expr) {
			if a, ok := x.(*Arith); ok && (a.Op == OpDiv || a.Op == OpMod) {
				t.Fatalf("error-capable subtree was hoisted into a CSE slot: %s", s.expr)
			}
		})
	}
	// And the guarded division still evaluates cleanly over a page with a
	// zero in column 0.
	page := block.NewPage(block.NewLongBlock([]int64{4, 0, 2}, nil))
	out, err := pp.Process(page)
	if err != nil {
		t.Fatalf("guarded division errored: %v", err)
	}
	want := []int64{3, 1, 6}
	for i, w := range want {
		if got := out.Col(0).Long(i); got != w {
			t.Fatalf("row %d: got %d want %d", i, got, w)
		}
	}
}

// TestDivisionByZeroConsistency: an unguarded division by zero must raise
// the same error from the vectorized kernels and the interpreter — not
// silently produce NULL in one of them.
func TestDivisionByZeroConsistency(t *testing.T) {
	page := block.NewPage(
		block.NewLongBlock([]int64{6, 3, 0, 2}, nil),
		block.NewLongBlock([]int64{0, 1, 2, 3}, nil),
	)
	for _, op := range []BinOp{OpDiv, OpMod} {
		e := &Arith{Op: op, L: longConst(12), R: colRef(0, types.Bigint), T: types.Bigint}
		proj := []Expr{e}
		for _, mk := range []func() *PageProcessor{
			func() *PageProcessor { return NewPageProcessor(nil, proj) },
			func() *PageProcessor { return NewInterpretedPageProcessor(nil, proj) },
		} {
			_, err := mk().Process(page)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("op %v: expected division-by-zero error, got %v", op, err)
			}
		}
	}
	// Selection fusion: rows removed by the filter must not raise — the
	// classic `SELECT a/b WHERE b <> 0` must succeed in every mode.
	f := &Compare{Op: CmpNe, L: colRef(0, types.Bigint), R: longConst(0)}
	div := &Arith{Op: OpDiv, L: longConst(12), R: colRef(0, types.Bigint), T: types.Bigint}
	for _, mk := range []func() *PageProcessor{
		func() *PageProcessor { return NewPageProcessor(f, []Expr{div}) },
		func() *PageProcessor { return NewInterpretedPageProcessor(f, []Expr{div}) },
	} {
		out, err := mk().Process(page)
		if err != nil {
			t.Fatalf("guarded-by-filter division errored: %v", err)
		}
		if out.RowCount() != 3 {
			t.Fatalf("expected 3 surviving rows, got %d", out.RowCount())
		}
	}
}

// TestDoubleModuloConsistency: double modulo has no kernel, so the
// interpreter defines it for the default processor too — a value, NULL for a
// NULL operand, an error for a zero divisor in a projection, and a row that
// does not pass for a zero divisor in a filter.
func TestDoubleModuloConsistency(t *testing.T) {
	page := block.NewPage(
		block.NewDoubleBlock([]float64{7.5, 9, 4, 5}, []bool{false, false, true, false}),
		block.NewDoubleBlock([]float64{2, 4, 3, 0}, nil),
		block.NewLongBlock([]int64{0, 1, 2, 3}, nil),
	)
	mod := &Arith{Op: OpMod, L: colRef(0, types.Double), R: colRef(1, types.Double), T: types.Double}
	nonzero := &Compare{Op: CmpNe, L: colRef(1, types.Double), R: dblConst(0)}
	isOne := &Compare{Op: CmpEq, L: mod, R: dblConst(1)}
	for name, mk := range map[string]func(Expr, []Expr) *PageProcessor{
		"default": NewPageProcessor, "interpreted": NewInterpretedPageProcessor,
	} {
		if _, err := mk(nil, []Expr{mod}).Process(page); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: unguarded double modulo by zero: got %v, want division by zero", name, err)
		}
		out, err := mk(nonzero, []Expr{mod}).Process(page)
		if err != nil {
			t.Fatalf("%s: guarded double modulo: %v", name, err)
		}
		if got := renderBlock(out.Col(0), out.RowCount()); got != renderBlock(block.NewDoubleBlock([]float64{1, 1, 0}, []bool{false, false, true}), 3) {
			t.Errorf("%s: guarded double modulo = %s", name, got)
		}
		out, err = mk(isOne, []Expr{colRef(2, types.Bigint)}).Process(page)
		if err != nil {
			t.Fatalf("%s: double modulo in a filter: %v", name, err)
		}
		if got := renderBlock(out.Col(0), out.RowCount()); got != "0;1;" {
			t.Errorf("%s: rows passing x %% y = 1: %s, want 0;1;", name, got)
		}
	}
}

// TestDictProjectionErrorFallthrough: a zero divisor sitting in an
// UNREFERENCED dictionary entry must not fail the page — the dictionary fast
// path evaluates eagerly over the whole dictionary, so on error it must fall
// through to the row paths, where only referenced rows can raise.
func TestDictProjectionErrorFallthrough(t *testing.T) {
	dict := block.NewLongBlock([]int64{2, 4, 0}, nil) // entry 2 (zero) unreferenced
	page := block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 1, 0, 1}))
	div := &Arith{Op: OpDiv, L: longConst(8), R: colRef(0, types.Bigint), T: types.Bigint}
	pp := NewPageProcessor(nil, []Expr{div})
	out, err := pp.Process(page)
	if err != nil {
		t.Fatalf("unreferenced dictionary entry raised: %v", err)
	}
	want := []int64{4, 2, 4, 2}
	for i, w := range want {
		if got := out.Col(0).Long(i); got != w {
			t.Fatalf("row %d: got %d want %d", i, got, w)
		}
	}
	// When a referenced row does divide by zero, it must still raise.
	bad := block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 2}))
	if _, err := NewPageProcessor(nil, []Expr{div}).Process(bad); err == nil {
		t.Fatal("referenced zero divisor did not raise")
	}
	// Unless the filter drops that row: only surviving rows are evaluated,
	// by the kernels and by the interpreter alike.
	guard := &Compare{Op: CmpNe, L: colRef(0, types.Bigint), R: longConst(0)}
	guarded := block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 2, 1, 2}))
	v := renderPage(t, NewPageProcessor(guard, []Expr{div}), guarded)
	if in := renderPage(t, NewInterpretedPageProcessor(guard, []Expr{div}), guarded); v != in || v != "4;2;|" {
		t.Fatalf("filtered dictionary projection: vec %s interp %s, want 4;2;|", v, in)
	}
}

// TestDictCacheBounded: distinct dictionaries churning through one processor
// must not grow the projection cache without bound.
func TestDictCacheBounded(t *testing.T) {
	e := &Arith{Op: OpConcat, L: colRef(0, types.Varchar), R: strConst("!"), T: types.Varchar}
	pp := NewPageProcessor(nil, []Expr{e})
	for i := 0; i < 3*dictCacheCap; i++ {
		dict := block.NewVarcharBlock([]string{fmt.Sprintf("v%d", i), "w"}, nil)
		page := block.NewPage(block.NewDictionaryBlock(dict, []int32{0, 1, 1, 0}))
		if _, err := pp.Process(page); err != nil {
			t.Fatal(err)
		}
	}
	if len(pp.dictCache) > dictCacheCap {
		t.Fatalf("dictionary cache grew to %d entries (cap %d)", len(pp.dictCache), dictCacheCap)
	}
	if len(pp.dictOrder) != len(pp.dictCache) {
		t.Fatalf("eviction order list out of sync: %d vs %d", len(pp.dictOrder), len(pp.dictCache))
	}
	if pp.Stats.DictEvictions != int64(2*dictCacheCap) {
		t.Fatalf("expected %d evictions, got %d", 2*dictCacheCap, pp.Stats.DictEvictions)
	}
	// Reusing one dictionary must still hit.
	dict := block.NewVarcharBlock([]string{"x", "y"}, nil)
	for i := 0; i < 3; i++ {
		page := block.NewPage(block.NewDictionaryBlock(dict, []int32{1, 0}))
		if _, err := pp.Process(page); err != nil {
			t.Fatal(err)
		}
	}
	if pp.Stats.DictCacheHits != 2 {
		t.Fatalf("expected 2 dictionary cache hits, got %d", pp.Stats.DictCacheHits)
	}
}

// TestConstantProjectionRLE: constant projections fold to a single RLE block
// per page instead of materializing outRows copies.
func TestConstantProjectionRLE(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	p := projTestPage(r, 128)
	pp := NewPageProcessor(nil, []Expr{longConst(7), colRef(7, types.Bigint)})
	out, err := pp.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Col(0).(*block.RLEBlock); !ok {
		t.Fatalf("constant projection produced %T, want RLE", out.Col(0))
	}
	if out.Col(0).Long(13) != 7 {
		t.Fatalf("wrong constant value")
	}
	if pp.Stats.ConstRLEEvals == 0 {
		t.Fatal("ConstRLEEvals not counted")
	}
	// Second page reuses the cached 1-row value block.
	if _, err := pp.Process(projTestPage(r, 64)); err != nil {
		t.Fatal(err)
	}
}

// TestExprFingerprintDistinguishesComposites: the canonical fingerprint must
// not merge distinct CASE/IN/BETWEEN trees the way String() rendering does.
func TestExprFingerprintDistinguishesComposites(t *testing.T) {
	a := &Case{T: types.Bigint, Whens: []CaseWhen{
		{Cond: colRef(3, types.Boolean), Then: longConst(1)},
	}, Else: longConst(0)}
	b := &Case{T: types.Bigint, Whens: []CaseWhen{
		{Cond: colRef(3, types.Boolean), Then: longConst(2)},
	}, Else: longConst(0)}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("distinct CASE trees share a fingerprint")
	}
	if Fingerprint(a) != Fingerprint(a) {
		t.Fatal("fingerprint not deterministic")
	}
	c := &In{E: colRef(0, types.Bigint), List: []Expr{longConst(1)}}
	d := &In{E: colRef(0, types.Bigint), List: []Expr{longConst(1)}, Negate: true}
	if Fingerprint(c) == Fingerprint(d) {
		t.Fatal("IN and NOT IN share a fingerprint")
	}
}
