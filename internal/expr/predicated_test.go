package expr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// kernelRatios are the pass ratios the predicated kernels are checked at, as
// thresholds over values uniform in [0, 1000): a predicate "v < t" passes
// about t/1000 of the rows.
var kernelRatios = []int64{0, 3, 500, 970, 1000}

// kernelTestPage builds n rows whose columns a threshold in [0, 1000] splits
// at about its ratio, in every encoding the selection and projection kernels
// read:
//
//	0 bigint flat, 1 in 9 NULL
//	1 double flat, 1 in 9 NULL, with NaN, −0.0, +Inf and −Inf among the values
//	2 date flat, no NULL
//	3 bigint lazy over a flat block with NULLs
//	4 double dictionary, whose entries include NaN, −0.0, ±Inf and a NULL
//	5 bigint RLE
//	6 double flat, no NULL
//	7 bigint row id
func kernelTestPage(r *rand.Rand, n int) *block.Page {
	longs, longNulls := make([]int64, n), make([]bool, n)
	doubles, dblNulls := make([]float64, n), make([]bool, n)
	dates := make([]int64, n)
	lazy, lazyNulls := make([]int64, n), make([]bool, n)
	dictIdx := make([]int32, n)
	plain := make([]float64, n)
	ids := make([]int64, n)
	specials := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		longs[i], longNulls[i] = r.Int63n(1000), r.Intn(9) == 0
		doubles[i], dblNulls[i] = r.Float64()*1000, r.Intn(9) == 0
		if r.Intn(20) == 0 {
			doubles[i] = specials[r.Intn(len(specials))]
		}
		dates[i] = r.Int63n(1000)
		lazy[i], lazyNulls[i] = r.Int63n(1000), r.Intn(5) == 0
		plain[i] = r.Float64() * 1000
		ids[i] = int64(i)
	}
	dictVals := append([]float64{0}, specials...)
	for len(dictVals) < 64 {
		dictVals = append(dictVals, r.Float64()*1000)
	}
	dictNulls := make([]bool, len(dictVals))
	dictNulls[0] = true
	for i := range dictIdx {
		dictIdx[i] = int32(r.Intn(len(dictVals)))
	}
	lazyFlat := &block.LongBlock{T: types.Bigint, Vals: lazy, Nulls: lazyNulls}
	return block.NewPage(
		&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: longNulls},
		block.NewDoubleBlock(doubles, dblNulls),
		&block.LongBlock{T: types.Date, Vals: dates},
		block.NewLazyBlock(types.Bigint, n, func(*block.Arena) block.Block { return lazyFlat }),
		block.NewDictionaryBlock(block.NewDoubleBlock(dictVals, dictNulls), dictIdx),
		block.NewRLEBlock(types.BigintValue(r.Int63n(1000)), n),
		block.NewDoubleBlock(plain, nil),
		block.NewLongBlock(ids, nil),
	)
}

// kernelCol is a column of kernelTestPage and how a threshold is written
// against it.
type kernelCol struct {
	col   *ColumnRef
	bound func(t int64) *Const
}

func kernelCols() []kernelCol {
	long := func(t int64) *Const { return longConst(t) }
	dbl := func(t int64) *Const { return dblConst(float64(t)) }
	date := func(t int64) *Const { return NewConst(types.DateValue(t)) }
	return []kernelCol{
		{colRef(0, types.Bigint), long},
		{colRef(0, types.Bigint), func(t int64) *Const { return dblConst(float64(t) - 0.5) }}, // widened to double
		{colRef(1, types.Double), dbl},
		{colRef(2, types.Date), date},
		{colRef(3, types.Bigint), long},
		{colRef(4, types.Double), dbl},
		{colRef(5, types.Bigint), long},
		{colRef(6, types.Double), dbl},
	}
}

// kernelPredicates are the compare and BETWEEN shapes over every column at
// every pass ratio, in both polarities: NOT of each, NOT BETWEEN, and the
// constant on either side.
func kernelPredicates() []Expr {
	var ps []Expr
	for _, kc := range kernelCols() {
		for _, t := range kernelRatios {
			for op := CmpEq; op <= CmpGe; op++ {
				cmp := &Compare{Op: op, L: kc.col, R: kc.bound(t)}
				ps = append(ps, cmp, &Not{E: cmp}, &Compare{Op: op, L: kc.bound(t), R: kc.col})
			}
			btw := &Between{E: kc.col, Lo: kc.bound(0), Hi: kc.bound(t - 1)}
			ps = append(ps, btw, &Not{E: btw}, &Between{E: kc.col, Lo: kc.bound(0), Hi: kc.bound(t - 1), Negate: true})
		}
	}
	return ps
}

// kernelProjections are the projection kernels with a scalar constant
// operand and CASE's predicated split, over flat, lazy, dictionary and RLE
// inputs.
func kernelProjections() []Expr {
	c0, c1, c3, c4, c5, c6 := colRef(0, types.Bigint), colRef(1, types.Double), colRef(3, types.Bigint), colRef(4, types.Double), colRef(5, types.Bigint), colRef(6, types.Double)
	lArith := func(op BinOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r, T: types.Bigint} }
	dArith := func(op BinOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r, T: types.Double} }
	q09 := func(v Expr, lo, hi int64) *Case {
		return &Case{T: types.Double, Whens: []CaseWhen{{Cond: &Between{E: v, Lo: longConst(lo), Hi: longConst(hi)}, Then: c6}}, Else: dblConst(0)}
	}
	return []Expr{
		lArith(OpAdd, c0, longConst(7)),
		lArith(OpAdd, longConst(7), c3),
		lArith(OpSub, longConst(1000), c0),
		lArith(OpSub, c5, longConst(3)),
		lArith(OpMul, c3, longConst(-3)),
		lArith(OpDiv, c0, longConst(4)),
		lArith(OpDiv, c0, longConst(-1)),
		dArith(OpMul, c1, dblConst(0.5)),
		dArith(OpSub, dblConst(1), c1),
		dArith(OpSub, dblConst(0), c4), // −0.0 against 0.0
		dArith(OpAdd, c4, longConst(2)),
		dArith(OpDiv, c1, dblConst(-4)),
		dArith(OpMul, c6, dArith(OpSub, dblConst(1), c1)),
		&Compare{Op: CmpLt, L: c0, R: longConst(500)},
		&Compare{Op: CmpGe, L: dblConst(500), R: c1},
		&Compare{Op: CmpNe, L: c4, R: dblConst(0)},
		&Compare{Op: CmpEq, L: c5, R: c5},
		&Between{E: c1, Lo: longConst(100), Hi: longConst(900)},
		&Between{E: c4, Lo: dblConst(-1), Hi: dblConst(1e9), Negate: true},
		&Between{E: c3, Lo: longConst(3), Hi: longConst(970)},
		q09(c1, 1, 10), q09(c1, 0, 500), q09(c4, 0, 999), q09(c3, 3, 996),
		&Case{T: types.Bigint, Whens: []CaseWhen{
			{Cond: &Compare{Op: CmpLt, L: c0, R: longConst(3)}, Then: lArith(OpMul, c0, longConst(2))},
			{Cond: &Between{E: c1, Lo: dblConst(0), Hi: dblConst(500)}, Then: c3},
			{Cond: &Compare{Op: CmpGe, L: c4, R: dblConst(970)}, Then: longConst(-1)},
		}},
	}
}

// kernelFilters select the rows a projection runs over at every pass ratio,
// and every row (nil).
func kernelFilters() []Expr {
	fs := []Expr{nil}
	for _, t := range kernelRatios {
		fs = append(fs, &Compare{Op: CmpLt, L: colRef(6, types.Double), R: dblConst(float64(t))})
	}
	return fs
}

// processOrError renders what pp makes of p, or the error it fails with.
func processOrError(pp *PageProcessor, p *block.Page) string {
	out, err := pp.Process(p)
	if err != nil {
		return "error: " + err.Error()
	}
	return renderOut(out)
}

// TestPredicatedKernelsDifferential runs the predicated selection kernels
// and the projection kernels with scalar constants against the interpreter
// over random pages with NULL, NaN, −0.0, ±Inf, lazy, dictionary and RLE
// columns, at pass ratios 0, 0.3 %, 50 %, 97 % and 100 %, in both polarities,
// and requires the same rows and bit-identical values.
func TestPredicatedKernelsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	pages := []*block.Page{kernelTestPage(r, 2048), kernelTestPage(r, 37), kernelTestPage(r, 1)}
	ids := []Expr{colRef(7, types.Bigint)}
	passed := map[int64]bool{}
	for pi, pred := range kernelPredicates() {
		vec, interp := NewPageProcessor(pred, ids), NewInterpretedPageProcessor(pred, ids)
		for gi, p := range pages {
			v, in := passingIDs(t, vec, p), passingIDs(t, interp, p)
			if fmt.Sprint(v) != fmt.Sprint(in) {
				t.Fatalf("pred %d %s page %d: the kernels keep %d rows, the interpreter %d; first difference %s", pi, pred, gi, len(v), len(in), firstDiff(v, in))
			}
			if gi == 0 {
				passed[int64(len(v))*1000/int64(p.RowCount())] = true
			}
		}
	}
	// The thresholds really span the ratios: nothing, a few rows, about
	// half, nearly all and all of them pass some predicate.
	for _, want := range []int64{0, 2, 500, 970, 1000} {
		ok := false
		for got := range passed {
			ok = ok || got >= want-30 && got <= want+30 && (want != 2 || got > 0)
		}
		if !ok {
			t.Errorf("no predicate passed about %d‰ of the rows: %v", want, passed)
		}
	}
	for ei, e := range append(kernelProjections(), dArith0(), lArith0()) {
		proj := []Expr{e, colRef(7, types.Bigint)}
		for fi, f := range kernelFilters() {
			vec, interp := NewPageProcessor(f, proj), NewInterpretedPageProcessor(f, proj)
			for gi, p := range pages {
				if v, in := processOrError(vec, p), processOrError(interp, p); v != in {
					t.Fatalf("expr %d %s filter %d page %d:\nkernels     %s\ninterpreter %s", ei, e, fi, gi, v, in)
				}
			}
		}
	}
}

// firstDiff names the first position where two row lists differ.
func firstDiff(a, b []int64) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: row %d against %d", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("at %d: one list ends", min(len(a), len(b)))
}

// dArith0 and lArith0 divide by a constant zero: an error wherever a row is
// not NULL, in the kernels as in the interpreter.
func dArith0() Expr {
	return &Arith{Op: OpDiv, L: colRef(1, types.Double), R: dblConst(0), T: types.Double}
}
func lArith0() Expr {
	return &Arith{Op: OpDiv, L: colRef(0, types.Bigint), R: longConst(0), T: types.Bigint}
}

// TestScalarConstantsStayScalar: a constant operand of an arithmetic kernel
// compiles to the scalar kernels, and a comparison or BETWEEN of a column
// against constants reads the column in place with the constants as scalars
// (its kernel keeps a dictionary memo), in a CASE's WHEN too.
func TestScalarConstantsStayScalar(t *testing.T) {
	c0, c1 := colRef(0, types.Bigint), colRef(1, types.Double)
	var c selCompiler
	if _, ok := scalarArith(&Arith{Op: OpSub, L: longConst(1), R: c0, T: types.Bigint}, scalarLong, c.vecLong); !ok {
		t.Error("1 - bigint has no scalar kernel")
	}
	if _, ok := scalarArith(&Arith{Op: OpMul, L: c1, R: longConst(2), T: types.Double}, scalarDouble, c.vecDouble); !ok {
		t.Error("double * 2 has no scalar kernel")
	}
	if _, ok := scalarArith(&Arith{Op: OpDiv, L: longConst(1), R: c0, T: types.Bigint}, scalarLong, c.vecLong); ok {
		t.Error("1 / bigint has a scalar kernel: it must test each divisor")
	}
	for _, p := range []Expr{
		&Compare{Op: CmpLt, L: dblConst(3), R: c1},
		&Between{E: c1, Lo: longConst(1), Hi: longConst(10)},
	} {
		var where, when selCompiler
		where.compileSel(p, false, true)
		if when.compileVecProj(&Case{T: types.Bigint, Whens: []CaseWhen{{Cond: p, Then: c0}}}) == nil {
			t.Errorf("CASE WHEN %s has no kernel", p)
		}
		if where.memos != 1 || when.memos != 1 {
			t.Errorf("%s: %d column kernels in WHERE and %d in a WHEN, want 1 against scalar constants", p, where.memos, when.memos)
		}
	}
	// A NULL bound is no scalar: the vector path, which reads no column in
	// place and makes every row NULL.
	var cn selCompiler
	if _, ok := cn.compileSel(&Between{E: c1, Lo: NewConst(types.NullValue(types.Double)), Hi: longConst(10)}, false, false); !ok || cn.memos != 0 {
		t.Errorf("a NULL bound: kernel %v, %d column kernels, want the vector path", ok, cn.memos)
	}
}

// treeTestPage is kernelTestPage with two more columns for the predicate
// trees:
//
//	8 varchar dictionary, whose entries include a NULL
//	9 boolean flat, 1 in 7 NULL
func treeTestPage(r *rand.Rand, n int) *block.Page {
	p := kernelTestPage(r, n)
	cols := make([]block.Block, p.ColCount(), p.ColCount()+2)
	for i := range cols {
		cols[i] = p.Col(i)
	}
	idx, bools, boolNulls := make([]int32, n), make([]bool, n), make([]bool, n)
	for i := range idx {
		idx[i] = int32(r.Intn(5))
		bools[i], boolNulls[i] = r.Intn(2) == 0, r.Intn(7) == 0
	}
	dict := block.NewVarcharBlock([]string{"aa", "ab", "ba", "", "null"}, []bool{false, false, false, false, true})
	return block.NewPage(append(cols, block.NewDictionaryBlock(dict, idx), block.NewBoolBlock(bools, boolNulls))...)
}

// randPred is a random AND/OR/NOT tree over treeTestPage of the given depth,
// with a failing leaf among its leaves when failing.
func randPred(r *rand.Rand, depth int, failing bool) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if failing {
			// a / (a - a) > 1: NULL where a is, a division by zero elsewhere.
			a := colRef([]int{0, 3}[r.Intn(2)], types.Bigint)
			return &Compare{Op: CmpGt, L: &Arith{Op: OpDiv, L: a, R: &Arith{Op: OpSub, L: a, R: a, T: types.Bigint}, T: types.Bigint}, R: longConst(1)}
		}
		return randLeaf(r)
	}
	half := r.Intn(2) == 0
	switch r.Intn(3) {
	case 0:
		return &And{L: randPred(r, depth-1, failing && half), R: randPred(r, depth-1, failing && !half)}
	case 1:
		return &Or{L: randPred(r, depth-1, failing && half), R: randPred(r, depth-1, failing && !half)}
	}
	return &Not{E: randPred(r, depth-1, failing)}
}

// randLeaf is a random leaf of every kind the kernels cover, over
// treeTestPage.
func randLeaf(r *rand.Rand) Expr {
	nums := []*ColumnRef{colRef(0, types.Bigint), colRef(1, types.Double), colRef(3, types.Bigint), colRef(4, types.Double), colRef(5, types.Bigint), colRef(6, types.Double)}
	col := nums[r.Intn(len(nums))]
	t := r.Int63n(1001)
	bound := func(c *ColumnRef, t int64) *Const {
		switch c.T {
		case types.Double:
			return dblConst(float64(t))
		case types.Date:
			return NewConst(types.DateValue(t))
		}
		return longConst(t)
	}
	op := CmpEq + CmpOp(r.Intn(int(CmpGe-CmpEq)+1))
	str, flag := colRef(8, types.Varchar), colRef(9, types.Boolean)
	switch r.Intn(10) {
	case 0:
		if r.Intn(4) == 0 {
			col = colRef(2, types.Date)
		}
		return &Compare{Op: op, L: col, R: bound(col, t)}
	case 1:
		return &Compare{Op: op, L: bound(col, t), R: col}
	case 2:
		return &Compare{Op: op, L: col, R: nums[r.Intn(len(nums))]}
	case 3:
		if r.Intn(2) == 0 {
			sum := &Arith{Op: OpAdd, L: colRef(0, types.Bigint), R: colRef(3, types.Bigint), T: types.Bigint}
			return &Compare{Op: op, L: sum, R: longConst(2 * t)}
		}
		half := &Arith{Op: OpMul, L: colRef(1, types.Double), R: dblConst(0.5), T: types.Double}
		return &Compare{Op: op, L: dblConst(float64(t) / 2), R: half}
	case 4:
		return &Between{E: col, Lo: bound(col, t/2), Hi: bound(col, t), Negate: r.Intn(2) == 0}
	case 5:
		null := func(t types.Type) Expr { return NewConst(types.NullValue(t)) }
		switch r.Intn(3) {
		case 0:
			return &In{E: colRef(0, types.Bigint), List: []Expr{longConst(t), longConst(t + 1), null(types.Bigint)}, Negate: r.Intn(2) == 0}
		case 1:
			return &In{E: str, List: []Expr{strConst("aa"), null(types.Varchar)}, Negate: r.Intn(2) == 0}
		}
		// −0.0 is in the dictionary: it is IN (0).
		return &In{E: colRef(4, types.Double), List: []Expr{dblConst(0), dblConst(math.Inf(1)), null(types.Double)}, Negate: r.Intn(2) == 0}
	case 6:
		if r.Intn(2) == 0 {
			return &Compare{Op: op, L: str, R: strConst("ab")}
		}
		return &Like{E: str, Pattern: strConst([]string{"a%", "%a", "_b"}[r.Intn(3)]), Negate: r.Intn(2) == 0}
	case 7:
		all := append([]Expr{str, flag}, colRef(0, types.Bigint), colRef(1, types.Double), colRef(3, types.Bigint), colRef(4, types.Double), colRef(5, types.Bigint))
		return &IsNull{E: all[r.Intn(len(all))], Negate: r.Intn(2) == 0}
	case 8:
		return &Compare{Op: CmpEq + CmpOp(r.Intn(2)), L: flag, R: NewConst(types.BooleanValue(r.Intn(2) == 0))}
	}
	return flag
}

// TestPredicateTreesDifferential: one predicate, three positions. Random
// AND/OR/NOT trees of depth 3 over every kind of leaf, and over flat columns
// with NULLs, doubles with NaN, −0.0 and ±Inf, dictionary, RLE and lazy
// columns, run as a WHERE clause, as a boolean SELECT column and as a CASE
// WHEN condition under another filter's selection, each on the kernels and on
// the interpreted processor, which must return the same rows or the same
// error. A quarter of the trees hold a failing leaf: a WHERE clause counts it
// NULL, and elsewhere it fails wherever the interpreter evaluates it.
func TestPredicateTreesDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	pages := []*block.Page{treeTestPage(r, 512), treeTestPage(r, 37), treeTestPage(r, 1)}
	id := colRef(7, types.Bigint)
	under := &Compare{Op: CmpLt, L: colRef(6, types.Double), R: dblConst(500)}
	for i := 0; i < 300; i++ {
		pred := randPred(r, 3, i%4 == 3)
		if _, ok := new(selCompiler).compileSel(pred, false, false); !ok {
			t.Fatalf("tree %d %s: a leaf runs on the interpreter", i, pred)
		}
		when := &Case{T: types.Bigint, Whens: []CaseWhen{{Cond: pred, Then: id}}, Else: longConst(-1)}
		for _, pos := range []struct {
			name   string
			filter Expr
			proj   []Expr
		}{
			{"WHERE", pred, []Expr{id}},
			{"SELECT", nil, []Expr{pred, id}},
			{"CASE WHEN", under, []Expr{when, id}},
		} {
			vec, interp := NewPageProcessor(pos.filter, pos.proj), NewInterpretedPageProcessor(pos.filter, pos.proj)
			if pos.filter != pred && vec.projVec[0] == nil {
				t.Fatalf("tree %d %s in %s runs on the interpreter", i, pred, pos.name)
			}
			for gi, p := range pages {
				if v, in := processOrError(vec, p), processOrError(interp, p); v != in {
					t.Fatalf("tree %d %s in %s, page %d:\nkernels     %s\ninterpreter %s", i, pred, pos.name, gi, v, in)
				}
			}
		}
	}
}

// TestPredicatedProgramSharedByGoroutines: a program of predicated
// selection kernels and scalar-constant projections is shared by two
// processors on two goroutines, one lending its output, and each returns the
// interpreter's rows: the kernels keep their cursors and constants in locals
// and write only the vectors their processor leases. Run under -race.
func TestPredicatedProgramSharedByGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	pages := []*block.Page{kernelTestPage(r, 2048), kernelTestPage(r, 211), kernelTestPage(r, 37)}
	filter := &And{
		L: &Between{E: colRef(1, types.Double), Lo: dblConst(10), Hi: dblConst(990)},
		R: &And{L: &Not{E: &Compare{Op: CmpLt, L: colRef(3, types.Bigint), R: longConst(30)}},
			R: &Compare{Op: CmpGe, L: colRef(4, types.Double), R: dblConst(5)}}, // a dictionary memo
	}
	proj := append(kernelProjections(), colRef(7, types.Bigint))
	want := make([]string, len(pages))
	for i, p := range pages {
		want[i] = processOrError(NewInterpretedPageProcessor(filter, proj), p)
	}
	prog := CompileProgram(filter, proj, nil)
	if prog.memos == 0 {
		t.Fatal("the filter keeps no dictionary memo")
	}
	var wg sync.WaitGroup
	for _, borrow := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pp := prog.NewProcessor(nil)
			if borrow {
				pp.BorrowOutput()
			}
			defer pp.Scratch().Release()
			for round := 0; round < 10; round++ {
				for i, p := range pages {
					if got := processOrError(pp, p); got != want[i] {
						t.Errorf("borrow=%v round %d page %d:\ngot  %s\nwant %s", borrow, round, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSelectionKernel prices a flat-column selection per row at pass
// ratios from 0.3 % to 99.5 %: a bigint compare with NULLs, and a double
// BETWEEN. Each iteration selects from the next of 64 pages of random
// values, so no page repeats before the branch predictor has seen 256 Ki
// rows: a kernel that branched on its predicate would pay for the
// mispredictions here, most near 50 %. The same predicates run as CASE WHEN
// conditions, priced per row of the projection: q09's BETWEEN over a flat
// bigint column, and q80's = over a dictionary-encoded varchar column
// (its entries are tested once each). The ns/row metric is the one to read
// across ratios.
func BenchmarkSelectionKernel(b *testing.B) {
	const rows, pages = 4096, 64
	r := rand.New(rand.NewSource(73))
	data := make([]*block.Page, pages)
	for i := range data {
		longs, nulls, doubles := make([]int64, rows), make([]bool, rows), make([]float64, rows)
		for j := range longs {
			longs[j], nulls[j], doubles[j] = r.Int63n(1000), r.Intn(50) == 0, r.Float64()
		}
		data[i] = block.NewPage(&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: nulls}, block.NewDoubleBlock(doubles, nil))
	}
	flags := block.NewVarcharBlock([]string{"R", "A", "N", "O"}, nil)
	for _, ratio := range []float64{0.003, 0.15, 0.5, 0.97, 0.995} {
		// Column 2 is 'R' on about ratio of the rows.
		flagged := make([]*block.Page, pages)
		for i, p := range data {
			idx := make([]int32, rows)
			for j := range idx {
				if v := p.Col(0).Long(j); float64(v) >= ratio*1000 {
					idx[j] = int32(1 + v%3)
				}
			}
			flagged[i] = block.NewPage(p.Col(0), p.Col(1), block.NewDictionaryBlock(flags, idx))
		}
		when := func(cond Expr) []Expr {
			return []Expr{&Case{T: types.Double, Whens: []CaseWhen{{Cond: cond, Then: colRef(1, types.Double)}}, Else: dblConst(0)}}
		}
		for _, k := range []struct {
			name string
			pred Expr
			proj []Expr
		}{
			{"cmp-bigint", &Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(int64(ratio * 1000))}, nil},
			{"between-double", &Between{E: colRef(1, types.Double), Lo: dblConst(0.5 - ratio/2), Hi: dblConst(0.5 + ratio/2)}, nil},
			{"case-between-bigint", nil, when(&Between{E: colRef(0, types.Bigint), Lo: longConst(0), Hi: longConst(int64(ratio*1000) - 1)})},
			{"case-dict-varchar", nil, when(&Compare{Op: CmpEq, L: colRef(2, types.Varchar), R: strConst("R")})},
		} {
			b.Run(fmt.Sprintf("%s/pass=%.1f%%", k.name, ratio*100), func(b *testing.B) {
				pp := NewPageProcessor(k.pred, k.proj)
				pp.BorrowOutput()
				defer pp.Scratch().Release()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if k.proj == nil {
						pp.start(data[i%pages])
						pp.selectRows()
					} else if _, err := pp.Process(flagged[i%pages]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
