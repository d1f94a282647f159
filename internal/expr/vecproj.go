package expr

import (
	"errors"

	"repro/internal/block"
	"repro/internal/types"
)

// Vectorized projection kernels (§V-B + §V-E): instead of walking the
// expression tree row-by-row, a covered projection compiles into a tree of
// columnar kernels, each of which runs one tight loop-per-operator over
// typed value vectors. Selection fusion: the kernels gather directly from
// the source page through the filter's selection vector, so projections
// never materialize an intermediate FilterPositions page. A predicate —
// a CASE WHEN condition, a boolean-valued projection — is compiled by the
// predicate compiler (vecfilter.go) into selections of positions, and CASE
// narrows the position list through them instead of branching per row,
// which preserves lazy-evaluation semantics (a division in a THEN branch
// only ever sees the rows whose WHEN matched).
//
// The interpreter (interp.go) remains the fallback for expressions the
// kernels do not cover, and the ablation baseline.

// errDivZero is the shared division-by-zero error. The interpreter and the
// vectorized kernels raise this same error so the two evaluation strategies
// stay differentially identical.
var errDivZero = errors.New("division by zero")

// virtualColBase offsets ColumnRef indices that address CSE slot outputs
// instead of page columns. Rewritten projections referencing virtual columns
// are only ever compiled by the vectorized compiler, never handed to the
// interpreter, so the indices can never reach Page.Col.
const virtualColBase = 1 << 20

// vecInput is the evaluation context for one page: the source page, the
// filter's selection vector (nil = all rows), the output length, the
// already-evaluated CSE slot blocks (selection-aligned, so virtual columns
// index them identity), and the page's mutable state, which is the
// evaluating processor's and never a kernel's: the arena every temporary is
// leased from (nil makes them), and the dictionary verdicts the selection
// kernels keep from page to page, one slot per kernel that keeps one
// (selCompiler.memos), and the parameters a kernel over a Param reads.
type vecInput struct {
	p       *block.Page
	sel     []int // nil means rows 0..n-1 of p
	n       int   // number of output positions
	shared  []block.Block
	scratch *block.Arena
	memo    []dictSel
	params  []types.Value
}

// colBlock resolves a column index to its block and the selection that maps
// output positions to block rows. Virtual (CSE) blocks are already
// selection-aligned, so they are read with a nil selection.
func (in *vecInput) colBlock(colIdx int) (block.Block, []int) {
	if colIdx >= virtualColBase {
		return in.shared[colIdx-virtualColBase], nil
	}
	return unwrapLazy(in.p.Col(colIdx)), in.sel
}

// vkernel evaluates an expression over a batch. idx lists the output
// positions to compute (nil = all positions 0..in.n-1); out and nulls are
// parent-owned buffers of length >= in.n. After a successful call, out[i]
// and nulls[i] are valid for every computed position i, with out[i] zeroed
// where nulls[i] is true. The returned bool is a has-nulls hint: false
// guarantees every computed position is non-null, letting the parent run a
// null-free tight loop; true is always safe to return. A kernel captures no
// slice it writes: its temporaries are leased from in.scratch.
type vkernel[T any] func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error)

type longKernel = vkernel[int64]
type doubleKernel = vkernel[float64]
type strKernel = vkernel[string]
type boolKernel = vkernel[bool]

// ---- shared loop helpers ----

func clearBools(b []bool) {
	for i := range b {
		b[i] = false
	}
}

// gatherVals reads a flat value/null pair through the selection into the
// output buffers. The dense null-free case degenerates to copy/memclr.
func gatherVals[T any](vals []T, vn []bool, sel, idx []int, n int, out []T, nulls []bool) bool {
	var zero T
	if idx == nil {
		if sel == nil {
			copy(out[:n], vals[:n])
			if vn == nil {
				clearBools(nulls[:n])
				return false
			}
			has := false
			for i, nl := range vn[:n] {
				nulls[i] = nl
				if nl {
					out[i] = zero
					has = true
				}
			}
			return has
		}
		if vn == nil {
			for i, r := range sel[:n] {
				out[i] = vals[r]
			}
			clearBools(nulls[:n])
			return false
		}
		has := false
		for i, r := range sel[:n] {
			if vn[r] {
				out[i], nulls[i] = zero, true
				has = true
			} else {
				out[i], nulls[i] = vals[r], false
			}
		}
		return has
	}
	switch {
	case vn == nil && sel == nil:
		for _, i := range idx {
			out[i], nulls[i] = vals[i], false
		}
		return false
	case vn == nil:
		for _, i := range idx {
			out[i], nulls[i] = vals[sel[i]], false
		}
		return false
	}
	has := false
	for _, i := range idx {
		r := i
		if sel != nil {
			r = sel[i]
		}
		if vn[r] {
			out[i], nulls[i] = zero, true
			has = true
		} else {
			out[i], nulls[i] = vals[r], false
		}
	}
	return has
}

// gatherDict reads a flat dictionary through its index vector and the
// selection (a fused double-gather; the dictionary is never expanded).
func gatherDict[T any](dict []T, dn []bool, indices []int32, sel, idx []int, n int, out []T, nulls []bool) bool {
	var zero T
	has := false
	if idx == nil {
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = sel[i]
			}
			d := int(indices[r])
			if dn != nil && dn[d] {
				out[i], nulls[i] = zero, true
				has = true
			} else {
				out[i], nulls[i] = dict[d], false
			}
		}
		return has
	}
	for _, i := range idx {
		r := i
		if sel != nil {
			r = sel[i]
		}
		d := int(indices[r])
		if dn != nil && dn[d] {
			out[i], nulls[i] = zero, true
			has = true
		} else {
			out[i], nulls[i] = dict[d], false
		}
	}
	return has
}

// fillConst writes one value (an RLE run or a literal) to every position,
// all of them by doubling copies.
func fillConst[T any](v T, null bool, idx []int, n int, out []T, nulls []bool) bool {
	if null {
		var zero T
		v = zero
	}
	if idx == nil && n > 0 {
		out[0], nulls[0] = v, null
		for i := 1; i < n; i *= 2 {
			copy(out[i:n], out[:i])
			copy(nulls[i:n], nulls[:i])
		}
	} else {
		for _, i := range idx {
			out[i], nulls[i] = v, null
		}
	}
	return null
}

// gatherBlock is the interface-dispatch fallback for unrecognized encodings.
func gatherBlock[T any](b block.Block, get func(int) T, sel, idx []int, n int, out []T, nulls []bool) bool {
	var zero T
	has := false
	if idx == nil {
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = sel[i]
			}
			if b.IsNull(r) {
				out[i], nulls[i] = zero, true
				has = true
			} else {
				out[i], nulls[i] = get(r), false
			}
		}
		return has
	}
	for _, i := range idx {
		r := i
		if sel != nil {
			r = sel[i]
		}
		if b.IsNull(r) {
			out[i], nulls[i] = zero, true
			has = true
		} else {
			out[i], nulls[i] = get(r), false
		}
	}
	return has
}

// ---- column loaders (encoding-aware) ----

func vecLongCol(colIdx int) longKernel {
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		b, sel := in.colBlock(colIdx)
		switch src := b.(type) {
		case *block.LongBlock:
			return gatherVals(src.Vals, src.Nulls, sel, idx, in.n, out, nulls), nil
		case *block.RLEBlock:
			return fillConst(src.Val.Long(0), src.Val.IsNull(0), idx, in.n, out, nulls), nil
		case *block.DictionaryBlock:
			if d, ok := src.Dict.(*block.LongBlock); ok {
				return gatherDict(d.Vals, d.Nulls, src.Indices, sel, idx, in.n, out, nulls), nil
			}
		}
		return gatherBlock(b, b.Long, sel, idx, in.n, out, nulls), nil
	}
}

func vecDoubleCol(colIdx int) doubleKernel {
	return func(in *vecInput, idx []int, out []float64, nulls []bool) (bool, error) {
		b, sel := in.colBlock(colIdx)
		switch src := b.(type) {
		case *block.DoubleBlock:
			return gatherVals(src.Vals, src.Nulls, sel, idx, in.n, out, nulls), nil
		case *block.RLEBlock:
			return fillConst(src.Val.Double(0), src.Val.IsNull(0), idx, in.n, out, nulls), nil
		case *block.DictionaryBlock:
			if d, ok := src.Dict.(*block.DoubleBlock); ok {
				return gatherDict(d.Vals, d.Nulls, src.Indices, sel, idx, in.n, out, nulls), nil
			}
		}
		return gatherBlock(b, b.Double, sel, idx, in.n, out, nulls), nil
	}
}

func vecStrCol(colIdx int) strKernel {
	return func(in *vecInput, idx []int, out []string, nulls []bool) (bool, error) {
		b, sel := in.colBlock(colIdx)
		switch src := b.(type) {
		case *block.VarcharBlock:
			return gatherVals(src.Vals, src.Nulls, sel, idx, in.n, out, nulls), nil
		case *block.RLEBlock:
			return fillConst(src.Val.Str(0), src.Val.IsNull(0), idx, in.n, out, nulls), nil
		case *block.DictionaryBlock:
			if d, ok := src.Dict.(*block.VarcharBlock); ok {
				return gatherDict(d.Vals, d.Nulls, src.Indices, sel, idx, in.n, out, nulls), nil
			}
		}
		return gatherBlock(b, b.Str, sel, idx, in.n, out, nulls), nil
	}
}

func vecConst[T any](v T, null bool) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		return fillConst(v, null, idx, in.n, out, nulls), nil
	}
}

// vecParam fills parameter index, read once per call.
func vecParam[T any](index int, get func(*types.Value) T) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		v := &in.params[index]
		return fillConst(get(v), v.Null, idx, in.n, out, nulls), nil
	}
}

// ---- arithmetic ----

// vecArith evaluates a binary operator over both operands in one tight loop.
// An operand that is a flat column with no NULL (lcol, rcol: its index, or -1
// for any other operand) is read in place through the selection when every
// position is computed, instead of gathered into a temporary first; any other
// operand is evaluated into a scratch vector. Division, and modulo (rem; nil
// where the type has none), by a non-null zero raises errDivZero, matching
// the interpreter.
func vecArith[T int64 | float64](op BinOp, l, r vkernel[T], lcol, rcol int, rem func(a, b T) T) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		n := in.n
		var a, b []T
		var ai, bi []int
		var an, bn []bool // nil: no NULL among the computed positions
		aok, bok := false, false
		if idx == nil {
			a, ai, aok = flatAt[T](in, lcol)
			b, bi, bok = flatAt[T](in, rcol)
		}
		var err error
		if !aok {
			a, an, err = evalOperand(in, l, idx)
			if err != nil {
				return false, err
			}
		}
		if !bok {
			b, bn, err = evalOperand(in, r, idx)
			if err != nil {
				return false, err
			}
		}
		if idx == nil && an == nil && bn == nil {
			clearBools(nulls[:n])
			return false, arithRows(op, out[:n], a, ai, b, bi, rem)
		}
		has := false
		step := func(i int) error {
			if (an != nil && an[i]) || (bn != nil && bn[i]) {
				out[i], nulls[i] = 0, true
				has = true
				return nil
			}
			v, err := arithOne(op, a[rowAt(ai, i)], b[rowAt(bi, i)], rem)
			out[i], nulls[i] = v, false
			return err
		}
		if idx == nil {
			for i := 0; i < n; i++ {
				if err := step(i); err != nil {
					return false, err
				}
			}
		} else {
			for _, i := range idx {
				if err := step(i); err != nil {
					return false, err
				}
			}
		}
		return has, nil
	}
}

// flatAt returns column col's values and the selection mapping positions to
// them (nil: position i is value i), when col is a flat column of T with no
// NULL that an arithmetic loop can read in place.
func flatAt[T int64 | float64](in *vecInput, col int) ([]T, []int, bool) {
	if col < 0 {
		return nil, nil, false
	}
	b, sel := in.colBlock(col)
	var vals any
	switch src := b.(type) {
	case *block.LongBlock:
		if src.Nulls != nil {
			return nil, nil, false
		}
		vals = &src.Vals
	case *block.DoubleBlock:
		if src.Nulls != nil {
			return nil, nil, false
		}
		vals = &src.Vals
	default:
		return nil, nil, false
	}
	v, ok := vals.(*[]T)
	if !ok {
		return nil, nil, false
	}
	return *v, sel, true
}

// evalOperand evaluates one operand at idx (nil: every position) into
// scratch vectors; its null vector is nil when no computed position is NULL.
func evalOperand[T block.Elem](in *vecInput, k vkernel[T], idx []int) ([]T, []bool, error) {
	v, vn := block.Lease[T](in.scratch, in.n), block.Lease[bool](in.scratch, in.n)
	has, err := k(in, idx, v, vn)
	if !has {
		vn = nil
	}
	return v, vn, err
}

// arithOne applies op to one pair of non-null operands.
func arithOne[T int64 | float64](op BinOp, a, b T, rem func(a, b T) T) (T, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	}
	if b == 0 {
		return 0, errDivZero
	}
	if op == OpMod {
		return rem(a, b), nil
	}
	return a / b, nil
}

// arithRows is arithOne over every position of o, with no NULL operand: a
// at ai (nil: dense) and b at bi.
func arithRows[T int64 | float64](op BinOp, o, a []T, ai []int, b []T, bi []int, rem func(a, b T) T) error {
	n := len(o)
	if ai == nil && bi == nil {
		a, b = a[:n], b[:n]
		switch op {
		case OpAdd:
			for i := range o {
				o[i] = a[i] + b[i]
			}
		case OpSub:
			for i := range o {
				o[i] = a[i] - b[i]
			}
		case OpMul:
			for i := range o {
				o[i] = a[i] * b[i]
			}
		default:
			for i := range o {
				if b[i] == 0 {
					return errDivZero
				}
				if op == OpMod {
					o[i] = rem(a[i], b[i])
				} else {
					o[i] = a[i] / b[i]
				}
			}
		}
		return nil
	}
	if ai == nil {
		ai = identityRows(n)
	}
	if bi == nil {
		bi = identityRows(n)
	}
	ai, bi = ai[:n], bi[:n]
	switch op {
	case OpAdd:
		for i := range o {
			o[i] = a[ai[i]] + b[bi[i]]
		}
	case OpSub:
		for i := range o {
			o[i] = a[ai[i]] - b[bi[i]]
		}
	case OpMul:
		for i := range o {
			o[i] = a[ai[i]] * b[bi[i]]
		}
	default:
		for i := range o {
			v, err := arithOne(op, a[ai[i]], b[bi[i]], rem)
			if err != nil {
				return err
			}
			o[i] = v
		}
	}
	return nil
}

// remLong is bigint modulo.
func remLong(a, b int64) int64 { return a % b }

// columnOf is e's column index when e is a column reference of one of ts,
// else -1: the operand an arithmetic kernel may read in place.
func columnOf(e Expr, ts ...types.Type) int {
	if c, ok := e.(*ColumnRef); ok {
		for _, t := range ts {
			if c.T == t {
				return c.Index
			}
		}
	}
	return -1
}

func vecNeg[T int64 | float64](f vkernel[T]) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		has, err := f(in, idx, out, nulls)
		if err != nil {
			return false, err
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				out[i] = -out[i]
			}
		} else {
			for _, i := range idx {
				out[i] = -out[i]
			}
		}
		return has, nil
	}
}

// vecLongToDouble widens a bigint/date kernel to double.
func vecLongToDouble(f longKernel) doubleKernel {
	return func(in *vecInput, idx []int, out []float64, nulls []bool) (bool, error) {
		lv := block.Lease[int64](in.scratch, in.n)
		has, err := f(in, idx, lv, nulls)
		if err != nil {
			return false, err
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				out[i] = float64(lv[i])
			}
		} else {
			for _, i := range idx {
				out[i] = float64(lv[i])
			}
		}
		return has, nil
	}
}

// vecDoubleToLong truncates a double kernel to bigint (CAST semantics): a
// non-NULL row that is NaN or outside BIGINT's range fails, as in the
// interpreter.
func vecDoubleToLong(f doubleKernel) longKernel {
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		dv := block.Lease[float64](in.scratch, in.n)
		has, err := f(in, idx, dv, nulls)
		if err != nil {
			return false, err
		}
		conv := func(i int) error {
			v, err := types.DoubleToBigint(dv[i])
			if err != nil && !(has && nulls[i]) {
				return err
			}
			out[i] = v
			return nil
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				if err := conv(i); err != nil {
					return false, err
				}
			}
		} else {
			for _, i := range idx {
				if err := conv(i); err != nil {
					return false, err
				}
			}
		}
		return has, nil
	}
}

// vecConcat is string concatenation with null propagation.
func vecConcat(l, r strKernel) strKernel {
	return func(in *vecInput, idx []int, out []string, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[string](in.scratch, n), block.Lease[bool](in.scratch, n)
		rv, rn := block.Lease[string](in.scratch, n), block.Lease[bool](in.scratch, n)
		lHas, err := l(in, idx, lv, ln)
		if err != nil {
			return false, err
		}
		rHas, err := r(in, idx, rv, rn)
		if err != nil {
			return false, err
		}
		if idx == nil && !lHas && !rHas {
			clearBools(nulls[:n])
			a, b, o := lv[:n], rv[:n], out[:n]
			for i := range o {
				o[i] = a[i] + b[i]
			}
			return false, nil
		}
		has := false
		step := func(i int) {
			if ln[i] || rn[i] {
				out[i], nulls[i] = "", true
				has = true
			} else {
				out[i], nulls[i] = lv[i]+rv[i], false
			}
		}
		if idx == nil {
			for i := 0; i < n; i++ {
				step(i)
			}
		} else {
			for _, i := range idx {
				step(i)
			}
		}
		return has, nil
	}
}

// ---- scalar constants ----

// A non-null constant operand of an arithmetic kernel, or of a comparison,
// BETWEEN, LIKE or IN selection kernel (vecfilter.go), stays a scalar in the
// kernel's loop: the other operand is evaluated, and the constant is read from
// a register, never written to a vector for every row and read back. A
// parameter is such a scalar too, read from the evaluation's parameters once
// per call. A NULL constant takes the vector path, which makes every row NULL.

// scalar is a kernel's scalar operand: the literal v, or parameter param (v
// unused) as get reads it.
type scalar[T any] struct {
	v     T
	param int // -1: the literal
	get   func(*types.Value) T
}

// at is the operand's value in the evaluation in.
func (s scalar[T]) at(in *vecInput) T {
	if s.param < 0 {
		return s.v
	}
	return s.get(&in.params[s.param])
}

func literal[T any](v T) (scalar[T], bool) { return scalar[T]{v: v, param: -1}, true }

// isLiteral reports whether e is a constant or a parameter.
func isLiteral(e Expr) bool {
	switch e.(type) {
	case *Const, *Param:
		return true
	}
	return false
}

func longOf(v *types.Value) int64      { return v.I }
func doubleOf(v *types.Value) float64  { return v.F }
func widenedOf(v *types.Value) float64 { return float64(v.I) }
func strOf(v *types.Value) string      { return v.S }

// scalarLong reports e as a non-null bigint or date constant or parameter.
func scalarLong(e Expr) (scalar[int64], bool) {
	switch x := e.(type) {
	case *Const:
		if !x.Val.Null && (x.Val.T == types.Bigint || x.Val.T == types.Date) {
			return literal(x.Val.I)
		}
	case *Param:
		if x.T == types.Bigint || x.T == types.Date {
			return scalar[int64]{param: x.Index, get: longOf}, true
		}
	}
	return scalar[int64]{}, false
}

// scalarDouble reports e as a non-null constant or parameter read as a
// double, as vecDouble widens it.
func scalarDouble(e Expr) (scalar[float64], bool) {
	switch x := e.(type) {
	case *Const:
		if x.Val.Null {
			break
		}
		switch x.Val.T {
		case types.Double:
			return literal(x.Val.F)
		case types.Bigint, types.Date:
			return literal(float64(x.Val.I))
		}
	case *Param:
		switch x.T {
		case types.Double:
			return scalar[float64]{param: x.Index, get: doubleOf}, true
		case types.Bigint, types.Date:
			return scalar[float64]{param: x.Index, get: widenedOf}, true
		}
	}
	return scalar[float64]{}, false
}

// scalarStr reports e as a non-null varchar constant or parameter.
func scalarStr(e Expr) (scalar[string], bool) {
	switch x := e.(type) {
	case *Const:
		if !x.Val.Null && x.Val.T == types.Varchar {
			return literal(x.Val.S)
		}
	case *Param:
		if x.T == types.Varchar {
			return scalar[string]{param: x.Index, get: strOf}, true
		}
	}
	return scalar[string]{}, false
}

// zeroNulls zeroes out[i] wherever nulls[i] is set, over the computed
// positions: the vkernel contract for a value computed over a NULL operand.
func zeroNulls[T any](idx []int, n int, out []T, nulls []bool) {
	var zero T
	if idx == nil {
		for i, nl := range nulls[:n] {
			if nl {
				out[i] = zero
			}
		}
		return
	}
	for _, i := range idx {
		if nulls[i] {
			out[i] = zero
		}
	}
}

// anyNonNull reports whether some computed position is not NULL.
func anyNonNull(idx []int, n int, nulls []bool, has bool) bool {
	if idx == nil && !has {
		return n > 0
	}
	if !has {
		return len(idx) > 0
	}
	if idx == nil {
		for _, nl := range nulls[:n] {
			if !nl {
				return true
			}
		}
		return false
	}
	for _, i := range idx {
		if !nulls[i] {
			return true
		}
	}
	return false
}

// vecArithConst is x op c, or c op x when left, for +, -, * and (x / c)
// only: the operand is evaluated straight into out and the operator applied
// in place — an operand that is a flat column with no NULL (col: its index,
// or -1) read in place through the selection, in the operator's one pass.
// Division by a constant zero fails where the operand is not NULL, as the
// vector form does.
func vecArithConst[T int64 | float64](op BinOp, f vkernel[T], col int, k scalar[T], left bool) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		c := k.at(in)
		if vals, sel, ok := flatAt[T](in, col); ok && idx == nil && (op != OpDiv || c != 0 || in.n == 0) {
			clearBools(nulls[:in.n])
			arithConstFrom(op, out[:in.n], vals, sel, c, left)
			return false, nil
		}
		has, err := f(in, idx, out, nulls)
		if err != nil {
			return false, err
		}
		if op == OpDiv && c == 0 {
			if anyNonNull(idx, in.n, nulls, has) {
				return false, errDivZero
			}
			return has, nil
		}
		if idx == nil {
			arithConst(op, out[:in.n], c, left)
		} else {
			arithConstAt(op, out, idx, c, left)
		}
		if has {
			zeroNulls(idx, in.n, out, nulls)
		}
		return has, nil
	}
}

// arithConst applies x op c (c op x when left) to every element of o; + and
// * commute.
func arithConst[T int64 | float64](op BinOp, o []T, c T, left bool) {
	switch {
	case op == OpAdd:
		for i := range o {
			o[i] += c
		}
	case op == OpMul:
		for i := range o {
			o[i] *= c
		}
	case op == OpSub && left:
		for i := range o {
			o[i] = c - o[i]
		}
	case op == OpSub:
		for i := range o {
			o[i] -= c
		}
	default:
		for i := range o {
			o[i] /= c
		}
	}
}

// arithConstFrom is arithConst over vals at the rows sel (nil: the first
// len(o)) into o.
func arithConstFrom[T int64 | float64](op BinOp, o, vals []T, sel []int, c T, left bool) {
	if sel == nil {
		copy(o, vals)
		arithConst(op, o, c, left)
		return
	}
	sel = sel[:len(o)]
	switch {
	case op == OpAdd:
		for i, r := range sel {
			o[i] = vals[r] + c
		}
	case op == OpMul:
		for i, r := range sel {
			o[i] = vals[r] * c
		}
	case op == OpSub && left:
		for i, r := range sel {
			o[i] = c - vals[r]
		}
	case op == OpSub:
		for i, r := range sel {
			o[i] = vals[r] - c
		}
	default:
		for i, r := range sel {
			o[i] = vals[r] / c
		}
	}
}

// arithConstAt is arithConst over the positions idx of o.
func arithConstAt[T int64 | float64](op BinOp, o []T, idx []int, c T, left bool) {
	switch {
	case op == OpAdd:
		for _, i := range idx {
			o[i] += c
		}
	case op == OpMul:
		for _, i := range idx {
			o[i] *= c
		}
	case op == OpSub && left:
		for _, i := range idx {
			o[i] = c - o[i]
		}
	case op == OpSub:
		for _, i := range idx {
			o[i] -= c
		}
	default:
		for _, i := range idx {
			o[i] /= c
		}
	}
}

// scalarArith compiles x op c (or c op x) when one operand is a scalar
// constant and the operator has a scalar kernel: +, -, * either way round,
// and / by a constant.
func scalarArith[T int64 | float64](x *Arith, scalar func(Expr) (scalar[T], bool), compile func(Expr) (vkernel[T], bool), cols ...types.Type) (vkernel[T], bool) {
	switch x.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
	default:
		return nil, false
	}
	if c, ok := scalar(x.R); ok {
		f, ok := compile(x.L)
		return vecArithConst(x.Op, f, columnOf(x.L, cols...), c, false), ok
	}
	if c, ok := scalar(x.L); ok && x.Op != OpDiv {
		f, ok := compile(x.R)
		return vecArithConst(x.Op, f, columnOf(x.R, cols...), c, true), ok
	}
	return nil, false
}

// ---- CASE ----

// vecCase narrows the position list through the WHEN conditions: each
// condition is evaluated only over still-unmatched positions, as the
// selection of its TRUE ones, and each THEN only over the positions its WHEN
// matched. A constant ELSE (a missing one is NULL) is written over every
// position first, so the last WHEN leaves no remainder to build; any other
// ELSE runs over whatever remains. Rows therefore see exactly the branch
// evaluations row-at-a-time execution would have performed.
func vecCase[T any](conds []selFn, thens []vkernel[T], els vkernel[T], constElse bool) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		has := false
		if constElse {
			has, _ = els(in, idx, out, nulls) // a constant cannot fail
		}
		rem := idx
		if rem == nil {
			rem = identityRows(in.n)
		}
		for k, cond := range conds {
			if len(rem) == 0 {
				break
			}
			match, err := cond(in, rem, leaseRows(in, len(rem)))
			if err != nil {
				return false, err
			}
			if len(match) == 0 {
				continue
			}
			h, err := thens[k](in, match, out, nulls)
			if err != nil {
				return false, err
			}
			has = has || h
			if constElse && k == len(conds)-1 {
				break
			}
			rem = selMinus(in, rem, match, leaseRows(in, len(rem)))
		}
		if !constElse && len(rem) > 0 {
			h, err := els(in, rem, out, nulls)
			if err != nil {
				return false, err
			}
			has = has || h
		}
		return has, nil
	}
}

func vecCaseOf[T any](c *selCompiler, x *Case, child func(Expr) (vkernel[T], bool)) (vkernel[T], bool) {
	conds := make([]selFn, len(x.Whens))
	thens := make([]vkernel[T], len(x.Whens))
	for i, w := range x.Whens {
		cond, ok := c.compileSel(w.Cond, false, false)
		if !ok {
			return nil, false
		}
		t, ok := child(w.Then)
		if !ok {
			return nil, false
		}
		conds[i], thens[i] = cond, t
	}
	var null T
	els, constElse := vecConst(null, true), true
	if x.Else != nil {
		f, ok := child(x.Else)
		if !ok {
			return nil, false
		}
		els, constElse = f, isLiteral(x.Else)
	}
	return vecCase(conds, thens, els, constElse), true
}

// ---- booleans ----

// vecPredicate writes a predicate's two selections out as a boolean vector:
// TRUE where t selects, FALSE where f selects among the other positions, NULL
// where neither does.
func vecPredicate(t, f selFn) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		rows := idx
		if rows == nil {
			rows = identityRows(in.n)
		}
		ts, err := t(in, rows, leaseRows(in, len(rows)))
		if err != nil {
			return false, err
		}
		fs, err := f(in, selMinus(in, rows, ts, leaseRows(in, len(rows))), leaseRows(in, len(rows)))
		if err != nil {
			return false, err
		}
		for _, i := range rows {
			out[i], nulls[i] = false, true
		}
		for _, i := range ts {
			out[i], nulls[i] = true, false
		}
		for _, i := range fs {
			nulls[i] = false
		}
		return len(ts)+len(fs) < len(rows), nil
	}
}

// ---- per-type kernel compilers ----

func (c *selCompiler) vecLong(e Expr) (longKernel, bool) {
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.I, x.Val.Null), true
	case *Param:
		return vecParam(x.Index, longOf), true
	case *ColumnRef:
		return vecLongCol(x.Index), true
	case *Neg:
		f, ok := c.vecLong(x.E)
		if !ok {
			return nil, false
		}
		return vecNeg(f), true
	case *Arith:
		if x.Op == OpConcat {
			return nil, false
		}
		if k, ok := scalarArith(x, scalarLong, c.vecLong, types.Bigint, types.Date); ok {
			return k, true
		}
		l, lok := c.vecLong(x.L)
		r, rok := c.vecLong(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecArith(x.Op, l, r, columnOf(x.L, types.Bigint, types.Date), columnOf(x.R, types.Bigint, types.Date), remLong), true
	case *Case:
		return vecCaseOf(c, x, c.vecLong)
	case *Cast:
		if x.E.Type() == types.Double {
			f, ok := c.vecDouble(x.E)
			if !ok {
				return nil, false
			}
			return vecDoubleToLong(f), true
		}
		if x.E.Type() == types.Bigint || x.E.Type() == types.Date {
			return c.vecLong(x.E)
		}
		return nil, false
	default:
		return nil, false
	}
}

func (c *selCompiler) vecDouble(e Expr) (doubleKernel, bool) {
	if e.Type() == types.Bigint || e.Type() == types.Date {
		if x, ok := e.(*Const); ok {
			return vecConst(float64(x.Val.I), x.Val.Null), true
		}
		f, ok := c.vecLong(e)
		if !ok {
			return nil, false
		}
		return vecLongToDouble(f), true
	}
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.F, x.Val.Null), true
	case *Param:
		return vecParam(x.Index, doubleOf), true
	case *ColumnRef:
		return vecDoubleCol(x.Index), true
	case *Neg:
		f, ok := c.vecDouble(x.E)
		if !ok {
			return nil, false
		}
		return vecNeg(f), true
	case *Arith:
		// Double modulo stays on the interpreter (EvalArith).
		if x.Op == OpConcat || x.Op == OpMod {
			return nil, false
		}
		if k, ok := scalarArith(x, scalarDouble, c.vecDouble, types.Double); ok {
			return k, true
		}
		l, lok := c.vecDouble(x.L)
		r, rok := c.vecDouble(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecArith(x.Op, l, r, columnOf(x.L, types.Double), columnOf(x.R, types.Double), nil), true
	case *Case:
		return vecCaseOf(c, x, c.vecDouble)
	case *Cast:
		if x.E.Type() == types.Bigint || x.E.Type() == types.Date || x.E.Type() == types.Double {
			return c.vecDouble(x.E)
		}
		return nil, false
	default:
		return nil, false
	}
}

func (c *selCompiler) vecStr(e Expr) (strKernel, bool) {
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.S, x.Val.Null), true
	case *Param:
		return vecParam(x.Index, strOf), true
	case *ColumnRef:
		return vecStrCol(x.Index), true
	case *Arith:
		if x.Op != OpConcat {
			return nil, false
		}
		l, lok := c.vecStr(x.L)
		r, rok := c.vecStr(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecConcat(l, r), true
	case *Case:
		return vecCaseOf(c, x, c.vecStr)
	default:
		return nil, false
	}
}

// vecBool compiles a boolean-valued expression: a CASE as any type's, and
// anything else as a predicate, selected twice (vecPredicate).
func (c *selCompiler) vecBool(e Expr) (boolKernel, bool) {
	if x, ok := e.(*Case); ok {
		return vecCaseOf(c, x, c.vecBool)
	}
	t, tok := c.compileSel(e, false, false)
	f, fok := c.compileSel(e, true, false)
	if !tok || !fok {
		return nil, false
	}
	return vecPredicate(t, f), true
}

// ---- top-level projector ----

// vecProjector evaluates one projection expression as a kernel tree and
// boxes the result into a flat block. It holds no mutable state: the kernels'
// temporaries are leased from the evaluating processor's arena, and their
// dictionary verdicts kept in its memo slots. The output block's arrays are
// freshly allocated by default, because a page is immutable and whoever
// receives it may keep it; a caller that knows the block is read before its
// arena is next rewound (a CSE slot, or a page
// processor whose output is borrowed — PageProcessor.BorrowOutput) asks for
// scratch output instead, and the block then views leased vectors.
type vecProjector struct {
	t  types.Type
	lk longKernel
	dk doubleKernel
	sk strKernel
	bk boolKernel
}

// compileVecProj builds a vectorized projector for e, or nil when the
// kernels do not cover it (the interpreter then takes over).
func (c *selCompiler) compileVecProj(e Expr) *vecProjector {
	t := e.Type()
	switch t {
	case types.Bigint, types.Date:
		if f, ok := c.vecLong(e); ok {
			return &vecProjector{t: t, lk: f}
		}
	case types.Double:
		if f, ok := c.vecDouble(e); ok {
			return &vecProjector{t: t, dk: f}
		}
	case types.Varchar:
		if f, ok := c.vecStr(e); ok {
			return &vecProjector{t: t, sk: f}
		}
	case types.Boolean:
		if f, ok := c.vecBool(e); ok {
			return &vecProjector{t: t, bk: f}
		}
	}
	return nil
}
func (vp *vecProjector) eval(in *vecInput, scratch bool) (block.Block, error) {
	switch {
	case vp.lk != nil:
		vals, nulls, err := evalKernel(vp.lk, in, scratch)
		if err != nil {
			return nil, err
		}
		return &block.LongBlock{T: vp.t, Vals: vals, Nulls: nulls}, nil
	case vp.dk != nil:
		vals, nulls, err := evalKernel(vp.dk, in, scratch)
		if err != nil {
			return nil, err
		}
		return block.NewDoubleBlock(vals, nulls), nil
	case vp.sk != nil:
		vals, nulls, err := evalKernel(vp.sk, in, scratch)
		if err != nil {
			return nil, err
		}
		return block.NewVarcharBlock(vals, nulls), nil
	default:
		vals, nulls, err := evalKernel(vp.bk, in, scratch)
		if err != nil {
			return nil, err
		}
		return block.NewBoolBlock(vals, nulls), nil
	}
}

// evalKernel runs k over every output position into a vector the block will
// own, or, for scratch output, one leased from in.scratch; the null mask
// likewise (nil when no position is null).
func evalKernel[T block.Elem](k vkernel[T], in *vecInput, scratch bool) ([]T, []bool, error) {
	var vals []T
	if scratch {
		vals = block.Lease[T](in.scratch, in.n)
	} else {
		vals = make([]T, in.n)
	}
	nulls := block.Lease[bool](in.scratch, in.n)
	has, err := k(in, nil, vals, nulls)
	if err != nil {
		return nil, nil, err
	}
	return vals, nullMask(nulls, has, scratch), nil
}

// nullMask turns the scratch null vector into the output block's mask: nil
// when no position is null (hint=false skips even the scan), else a fresh
// copy, or the scratch vector itself for scratch output.
func nullMask(nulls []bool, hint, scratch bool) []bool {
	if !hint {
		return nil
	}
	any := false
	for _, b := range nulls {
		if b {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	if scratch {
		return nulls
	}
	out := make([]bool, len(nulls))
	copy(out, nulls)
	return out
}
