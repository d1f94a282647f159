package expr

import (
	"cmp"
	"errors"

	"repro/internal/block"
	"repro/internal/types"
)

// Vectorized projection kernels (§V-B + §V-E): instead of walking the
// expression tree row-by-row, a covered projection compiles into a tree of
// columnar kernels, each of which runs one tight loop-per-operator over
// typed value vectors. Selection fusion: the kernels gather directly from
// the source page through the filter's selection vector, so projections
// never materialize an intermediate FilterPositions page. Conditional
// operators (CASE, AND, OR) partition the position list instead of
// branching per row, which preserves lazy-evaluation semantics (a division
// in a THEN branch only ever sees the rows whose WHEN matched).
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
// (selCompiler.memos).
type vecInput struct {
	p       *block.Page
	sel     []int // nil means rows 0..n-1 of p
	n       int   // number of output positions
	shared  []block.Block
	scratch *block.Arena
	memo    []dictSel
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

// fillConst writes one value (an RLE run or a literal) to every position.
func fillConst[T any](v T, null bool, idx []int, n int, out []T, nulls []bool) bool {
	if null {
		var zero T
		v = zero
	}
	if idx == nil {
		for i := 0; i < n; i++ {
			out[i], nulls[i] = v, null
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

func vecBoolCol(colIdx int) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		b, sel := in.colBlock(colIdx)
		switch src := b.(type) {
		case *block.BoolBlock:
			return gatherVals(src.Vals, src.Nulls, sel, idx, in.n, out, nulls), nil
		case *block.RLEBlock:
			return fillConst(src.Val.Bool(0), src.Val.IsNull(0), idx, in.n, out, nulls), nil
		}
		return gatherBlock(b, b.Bool, sel, idx, in.n, out, nulls), nil
	}
}

func vecConst[T any](v T, null bool) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		return fillConst(v, null, idx, in.n, out, nulls), nil
	}
}

// ---- arithmetic ----

// vecArithLong evaluates both operands into scratch vectors, then applies
// the operator in one tight loop. Division/modulo by a non-null zero raises
// errDivZero, matching the interpreter.
func vecArithLong(op BinOp, l, r longKernel) longKernel {
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[int64](in.scratch, n), block.Lease[bool](in.scratch, n)
		rv, rn := block.Lease[int64](in.scratch, n), block.Lease[bool](in.scratch, n)
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
			case OpDiv:
				for i := range o {
					if b[i] == 0 {
						return false, errDivZero
					}
					o[i] = a[i] / b[i]
				}
			case OpMod:
				for i := range o {
					if b[i] == 0 {
						return false, errDivZero
					}
					o[i] = a[i] % b[i]
				}
			}
			return false, nil
		}
		has := false
		step := func(i int) error {
			if ln[i] || rn[i] {
				out[i], nulls[i] = 0, true
				has = true
				return nil
			}
			a, b := lv[i], rv[i]
			nulls[i] = false
			switch op {
			case OpAdd:
				out[i] = a + b
			case OpSub:
				out[i] = a - b
			case OpMul:
				out[i] = a * b
			case OpDiv:
				if b == 0 {
					return errDivZero
				}
				out[i] = a / b
			case OpMod:
				if b == 0 {
					return errDivZero
				}
				out[i] = a % b
			}
			return nil
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

// vecArithDouble covers +,-,*,/ (vecDouble leaves modulo to the interpreter).
func vecArithDouble(op BinOp, l, r doubleKernel) doubleKernel {
	return func(in *vecInput, idx []int, out []float64, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[float64](in.scratch, n), block.Lease[bool](in.scratch, n)
		rv, rn := block.Lease[float64](in.scratch, n), block.Lease[bool](in.scratch, n)
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
			case OpDiv:
				for i := range o {
					if b[i] == 0 {
						return false, errDivZero
					}
					o[i] = a[i] / b[i]
				}
			}
			return false, nil
		}
		has := false
		step := func(i int) error {
			if ln[i] || rn[i] {
				out[i], nulls[i] = 0, true
				has = true
				return nil
			}
			a, b := lv[i], rv[i]
			nulls[i] = false
			switch op {
			case OpAdd:
				out[i] = a + b
			case OpSub:
				out[i] = a - b
			case OpMul:
				out[i] = a * b
			case OpDiv:
				if b == 0 {
					return errDivZero
				}
				out[i] = a / b
			}
			return nil
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

// vecDoubleToLong truncates a double kernel to bigint (CAST semantics).
func vecDoubleToLong(f doubleKernel) longKernel {
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		dv := block.Lease[float64](in.scratch, in.n)
		has, err := f(in, idx, dv, nulls)
		if err != nil {
			return false, err
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				out[i] = int64(dv[i])
			}
		} else {
			for _, i := range idx {
				out[i] = int64(dv[i])
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

// ---- comparisons, BETWEEN, IN, LIKE ----

func vecCompareOrd[T interface {
	cmp.Ordered
	block.Elem
}](op CmpOp, l, r vkernel[T]) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
		rv, rn := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
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
			switch op {
			case CmpEq:
				for i := range o {
					o[i] = a[i] == b[i]
				}
			case CmpNe:
				for i := range o {
					o[i] = a[i] != b[i]
				}
			case CmpLt:
				for i := range o {
					o[i] = a[i] < b[i]
				}
			case CmpLe:
				for i := range o {
					o[i] = a[i] <= b[i]
				}
			case CmpGt:
				for i := range o {
					o[i] = a[i] > b[i]
				}
			default:
				for i := range o {
					o[i] = a[i] >= b[i]
				}
			}
			return false, nil
		}
		has := false
		step := func(i int) {
			if ln[i] || rn[i] {
				out[i], nulls[i] = false, true
				has = true
			} else {
				out[i], nulls[i] = cmpOrd(op, lv[i], rv[i]), false
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

// vecCompareBool covers boolean = and <>.
func vecCompareBool(op CmpOp, l, r boolKernel) (boolKernel, bool) {
	if op != CmpEq && op != CmpNe {
		return nil, false
	}
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		rv, rn := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		if _, err := l(in, idx, lv, ln); err != nil {
			return false, err
		}
		if _, err := r(in, idx, rv, rn); err != nil {
			return false, err
		}
		has := false
		step := func(i int) {
			if ln[i] || rn[i] {
				out[i], nulls[i] = false, true
				has = true
			} else {
				out[i], nulls[i] = (lv[i] == rv[i]) == (op == CmpEq), false
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
	}, true
}

func vecBetweenOrd[T interface {
	cmp.Ordered
	block.Elem
}](v, lo, hi vkernel[T], neg bool) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
		lv, ln := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
		hv, hn := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
		vHas, err := v(in, idx, vv, vn)
		if err != nil {
			return false, err
		}
		lHas, err := lo(in, idx, lv, ln)
		if err != nil {
			return false, err
		}
		hHas, err := hi(in, idx, hv, hn)
		if err != nil {
			return false, err
		}
		if idx == nil && !vHas && !lHas && !hHas {
			clearBools(nulls[:n])
			a, b, c, o := vv[:n], lv[:n], hv[:n], out[:n]
			for i := range o {
				o[i] = (a[i] >= b[i] && a[i] <= c[i]) != neg
			}
			return false, nil
		}
		has := false
		step := func(i int) {
			if vn[i] || ln[i] || hn[i] {
				out[i], nulls[i] = false, true
				has = true
			} else {
				out[i], nulls[i] = (vv[i] >= lv[i] && vv[i] <= hv[i]) != neg, false
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

// vecInSet tests membership in the list's non-NULL values. listNull: the list
// holds a NULL, so a value that matches none of the others is NULL, not a
// definite non-member (SQL's three-valued IN, as the interpreter's).
func vecInSet[T interface {
	comparable
	block.Elem
}](f vkernel[T], set map[T]bool, listNull, neg bool) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn := block.Lease[T](in.scratch, n), block.Lease[bool](in.scratch, n)
		vHas, err := f(in, idx, vv, vn)
		if err != nil {
			return false, err
		}
		if idx == nil && !vHas && !listNull {
			clearBools(nulls[:n])
			a, o := vv[:n], out[:n]
			for i := range o {
				o[i] = set[a[i]] != neg
			}
			return false, nil
		}
		has := false
		step := func(i int) {
			switch {
			case vn[i], !set[vv[i]] && listNull:
				out[i], nulls[i] = false, true
				has = true
			default:
				out[i], nulls[i] = set[vv[i]] != neg, false
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

func vecLike(f strKernel, pattern string, neg bool) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn := block.Lease[string](in.scratch, n), block.Lease[bool](in.scratch, n)
		if _, err := f(in, idx, vv, vn); err != nil {
			return false, err
		}
		has := false
		step := func(i int) {
			if vn[i] {
				out[i], nulls[i] = false, true
				has = true
			} else {
				out[i], nulls[i] = likeMatch(vv[i], pattern) != neg, false
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

func vecIsNullCol(colIdx int, neg bool) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		b, sel := in.colBlock(colIdx)
		step := func(i int) {
			r := i
			if sel != nil {
				r = sel[i]
			}
			out[i], nulls[i] = b.IsNull(r) != neg, false
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				step(i)
			}
		} else {
			for _, i := range idx {
				step(i)
			}
		}
		return false, nil
	}
}

// ---- scalar constants ----

// A non-null constant operand of an arithmetic, comparison or BETWEEN kernel
// stays a scalar in the kernel's loop: the other operand is evaluated, and
// the constant is read from a register, never written to a vector for every
// row and read back. A NULL constant takes the vector path, which makes every
// row NULL.

// scalarLong reports e as a non-null bigint or date constant.
func scalarLong(e Expr) (int64, bool) {
	c, ok := e.(*Const)
	if !ok || c.Val.Null || (c.Val.T != types.Bigint && c.Val.T != types.Date) {
		return 0, false
	}
	return c.Val.I, true
}

// scalarDouble reports e as a non-null constant read as a double, as
// vecDouble widens it.
func scalarDouble(e Expr) (float64, bool) {
	c, ok := e.(*Const)
	if !ok || c.Val.Null {
		return 0, false
	}
	switch c.Val.T {
	case types.Double:
		return c.Val.F, true
	case types.Bigint, types.Date:
		return float64(c.Val.I), true
	}
	return 0, false
}

// scalarStr reports e as a non-null varchar constant.
func scalarStr(e Expr) (string, bool) {
	c, ok := e.(*Const)
	if !ok || c.Val.Null || c.Val.T != types.Varchar {
		return "", false
	}
	return c.Val.S, true
}

// scalarOperand splits a binary operator's operands into a kernel-compiled
// one and a scalar constant, the constant on the right when it is
// (left=false), else on the left.
func scalarOperand[T any](l, r Expr, scalar func(Expr) (T, bool), compile func(Expr) (vkernel[T], bool)) (f vkernel[T], c T, left, ok bool) {
	if c, ok := scalar(r); ok {
		f, ok := compile(l)
		return f, c, false, ok
	}
	if c, ok := scalar(l); ok {
		f, ok := compile(r)
		return f, c, true, ok
	}
	return nil, c, false, false
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
// in place. Division by a constant zero fails where the operand is not NULL,
// as the vector form does.
func vecArithConst[T int64 | float64](op BinOp, f vkernel[T], c T, left bool) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
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
func scalarArith[T int64 | float64](x *Arith, scalar func(Expr) (T, bool), compile func(Expr) (vkernel[T], bool)) (vkernel[T], bool) {
	switch x.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
	default:
		return nil, false
	}
	f, c, left, ok := scalarOperand(x.L, x.R, scalar, compile)
	if !ok || (left && x.Op == OpDiv) {
		return nil, false
	}
	return vecArithConst(x.Op, f, c, left), true
}

// vecCompareConst is x op c: the operand is evaluated into a leased vector
// and its null mask straight into the result's.
func vecCompareConst[T interface {
	cmp.Ordered
	block.Elem
}](op CmpOp, f vkernel[T], c T) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		vv := block.Lease[T](in.scratch, in.n)
		has, err := f(in, idx, vv, nulls)
		if err != nil {
			return false, err
		}
		if idx == nil {
			cmpConst(op, vv[:in.n], c, out[:in.n])
		} else {
			cmpConstAt(op, vv, c, out, idx)
		}
		if has {
			zeroNulls(idx, in.n, out, nulls)
		}
		return has, nil
	}
}

// cmpConst writes v[i] op c to o[i] for every element.
func cmpConst[T cmp.Ordered](op CmpOp, v []T, c T, o []bool) {
	v = v[:len(o)]
	switch op {
	case CmpEq:
		for i := range o {
			o[i] = v[i] == c
		}
	case CmpNe:
		for i := range o {
			o[i] = v[i] != c
		}
	case CmpLt:
		for i := range o {
			o[i] = v[i] < c
		}
	case CmpLe:
		for i := range o {
			o[i] = v[i] <= c
		}
	case CmpGt:
		for i := range o {
			o[i] = v[i] > c
		}
	default:
		for i := range o {
			o[i] = v[i] >= c
		}
	}
}

// cmpConstAt is cmpConst over the positions idx.
func cmpConstAt[T cmp.Ordered](op CmpOp, v []T, c T, o []bool, idx []int) {
	switch op {
	case CmpEq:
		for _, i := range idx {
			o[i] = v[i] == c
		}
	case CmpNe:
		for _, i := range idx {
			o[i] = v[i] != c
		}
	case CmpLt:
		for _, i := range idx {
			o[i] = v[i] < c
		}
	case CmpLe:
		for _, i := range idx {
			o[i] = v[i] <= c
		}
	case CmpGt:
		for _, i := range idx {
			o[i] = v[i] > c
		}
	default:
		for _, i := range idx {
			o[i] = v[i] >= c
		}
	}
}

// scalarCompare compiles x op c, or c op x as x swapCmp(op) c, when one
// operand is a scalar constant.
func scalarCompare[T interface {
	cmp.Ordered
	block.Elem
}](x *Compare, scalar func(Expr) (T, bool), compile func(Expr) (vkernel[T], bool)) (boolKernel, bool) {
	f, c, left, ok := scalarOperand(x.L, x.R, scalar, compile)
	if !ok {
		return nil, false
	}
	op := x.Op
	if left {
		op = swapCmp(op)
	}
	return vecCompareConst(op, f, c), true
}

// vecBetweenConst is (lo <= x <= hi) != neg between constant bounds, each
// position's outcome computed without a branch.
func vecBetweenConst[T interface {
	num
	block.Elem
}](f vkernel[T], lo, hi T, neg bool) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		vv := block.Lease[T](in.scratch, in.n)
		has, err := f(in, idx, vv, nulls)
		if err != nil {
			return false, err
		}
		betweenConst(vv, lo, hi, neg, idx, out[:in.n])
		if has {
			zeroNulls(idx, in.n, out, nulls)
		}
		return has, nil
	}
}

// betweenConst writes (lo <= v[i] <= hi) != neg to o[i] for every element,
// or for the positions idx.
func betweenConst[T num](v []T, lo, hi T, neg bool, idx []int, o []bool) {
	flip := b2i(neg)
	if idx == nil {
		for i, x := range v[:len(o)] {
			o[i] = (b2i(x >= lo)&b2i(x <= hi))^flip != 0
		}
		return
	}
	for _, i := range idx {
		x := v[i]
		o[i] = (b2i(x >= lo)&b2i(x <= hi))^flip != 0
	}
}

// scalarBetween compiles BETWEEN with constant bounds.
func scalarBetween[T interface {
	num
	block.Elem
}](x *Between, scalar func(Expr) (T, bool), compile func(Expr) (vkernel[T], bool)) (boolKernel, bool) {
	lo, lok := scalar(x.Lo)
	hi, hok := scalar(x.Hi)
	if !lok || !hok {
		return nil, false
	}
	f, ok := compile(x.E)
	if !ok {
		return nil, false
	}
	return vecBetweenConst(f, lo, hi, x.Negate), true
}

// ---- logical connectives and CASE (selection partitioning) ----

// vecNot inverts the child's definite values; NULL stays NULL.
func vecNot(f boolKernel) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		has, err := f(in, idx, out, nulls)
		if err != nil {
			return false, err
		}
		if idx == nil {
			for i := 0; i < in.n; i++ {
				out[i] = !out[i] && !nulls[i]
			}
		} else {
			for _, i := range idx {
				out[i] = !out[i] && !nulls[i]
			}
		}
		return has, nil
	}
}

// vecAnd evaluates the left side everywhere, then the right side only at
// positions the left did not decide (definitely-false short-circuits), then
// merges with three-valued semantics — the batch analogue of the
// interpreter's lazy right operand.
func vecAnd(l, r boolKernel) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		if _, err := l(in, idx, lv, ln); err != nil {
			return false, err
		}
		need := block.Lease[int](in.scratch, n)[:0]
		collect := func(i int) {
			if !ln[i] && !lv[i] {
				out[i], nulls[i] = false, false
			} else {
				need = append(need, i)
			}
		}
		if idx == nil {
			for i := 0; i < n; i++ {
				collect(i)
			}
		} else {
			for _, i := range idx {
				collect(i)
			}
		}
		has := false
		if len(need) > 0 {
			if _, err := r(in, need, out, nulls); err != nil {
				return false, err
			}
			for _, i := range need {
				rv, rn := out[i], nulls[i]
				switch {
				case !rn && !rv:
					out[i], nulls[i] = false, false
				case ln[i] || rn:
					out[i], nulls[i] = false, true
					has = true
				default:
					out[i], nulls[i] = true, false
				}
			}
		}
		return has, nil
	}
}

// vecOr mirrors vecAnd with definitely-true short-circuits.
func vecOr(l, r boolKernel) boolKernel {
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		if _, err := l(in, idx, lv, ln); err != nil {
			return false, err
		}
		need := block.Lease[int](in.scratch, n)[:0]
		collect := func(i int) {
			if !ln[i] && lv[i] {
				out[i], nulls[i] = true, false
			} else {
				need = append(need, i)
			}
		}
		if idx == nil {
			for i := 0; i < n; i++ {
				collect(i)
			}
		} else {
			for _, i := range idx {
				collect(i)
			}
		}
		has := false
		if len(need) > 0 {
			if _, err := r(in, need, out, nulls); err != nil {
				return false, err
			}
			for _, i := range need {
				rv, rn := out[i], nulls[i]
				switch {
				case !rn && rv:
					out[i], nulls[i] = true, false
				case ln[i] || rn:
					out[i], nulls[i] = false, true
					has = true
				default:
					out[i], nulls[i] = false, false
				}
			}
		}
		return has, nil
	}
}

// vecCase partitions the position list through the WHEN conditions: each
// condition is evaluated only over still-unmatched positions, each THEN only
// over the positions its WHEN matched, and the ELSE over whatever remains.
// Rows therefore see exactly the branch evaluations row-at-a-time execution
// would have performed.
func vecCase[T any](conds []boolKernel, thens []vkernel[T], els vkernel[T]) vkernel[T] {
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		n := in.n
		cv, cn := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		rem, match := block.Lease[int](in.scratch, n), block.Lease[int](in.scratch, n)
		if idx == nil {
			rem = rem[:copy(rem, identityRows(n))]
		} else {
			rem = rem[:copy(rem, idx)]
		}
		has := false
		for k := range conds {
			if len(rem) == 0 {
				break
			}
			if _, err := conds[k](in, rem, cv, cn); err != nil {
				return false, err
			}
			var m int
			m, rem = splitWhen(rem, match, cv, cn)
			if m > 0 {
				h, err := thens[k](in, match[:m], out, nulls)
				if err != nil {
					return false, err
				}
				has = has || h
			}
		}
		if len(rem) > 0 {
			if els == nil {
				var zero T
				for _, i := range rem {
					out[i], nulls[i] = zero, true
				}
				has = true
			} else {
				h, err := els(in, rem, out, nulls)
				if err != nil {
					return false, err
				}
				has = has || h
			}
		}
		return has, nil
	}
}

// splitWhen splits the positions rem by a WHEN's outcome, by predication:
// each position is stored in both lists and only the cursor of the one it
// belongs to advances. The matched ones go to match[:m]; the rest are
// written over rem, never ahead of the position being read, and returned.
func splitWhen(rem, match []int, cv, cn []bool) (m int, rest []int) {
	r := 0
	for _, i := range rem {
		hit := b2i(!cn[i]) & b2i(cv[i])
		match[m], rem[r] = i, i
		m, r = m+hit, r+1-hit
	}
	return m, rem[:r]
}

func vecCaseOf[T any](x *Case, child func(Expr) (vkernel[T], bool)) (vkernel[T], bool) {
	conds := make([]boolKernel, len(x.Whens))
	thens := make([]vkernel[T], len(x.Whens))
	for i, w := range x.Whens {
		c, ok := vecBool(w.Cond)
		if !ok {
			return nil, false
		}
		t, ok := child(w.Then)
		if !ok {
			return nil, false
		}
		conds[i], thens[i] = c, t
	}
	var els vkernel[T]
	if x.Else != nil {
		f, ok := child(x.Else)
		if !ok {
			return nil, false
		}
		els = f
	}
	return vecCase(conds, thens, els), true
}

// ---- per-type kernel compilers ----

func vecLong(e Expr) (longKernel, bool) {
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.I, x.Val.Null), true
	case *ColumnRef:
		return vecLongCol(x.Index), true
	case *Neg:
		f, ok := vecLong(x.E)
		if !ok {
			return nil, false
		}
		return vecNeg(f), true
	case *Arith:
		if x.Op == OpConcat {
			return nil, false
		}
		if k, ok := scalarArith(x, scalarLong, vecLong); ok {
			return k, true
		}
		l, lok := vecLong(x.L)
		r, rok := vecLong(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecArithLong(x.Op, l, r), true
	case *Case:
		return vecCaseOf(x, vecLong)
	case *Cast:
		if x.E.Type() == types.Double {
			f, ok := vecDouble(x.E)
			if !ok {
				return nil, false
			}
			return vecDoubleToLong(f), true
		}
		if x.E.Type() == types.Bigint || x.E.Type() == types.Date {
			return vecLong(x.E)
		}
		return nil, false
	default:
		return nil, false
	}
}

func vecDouble(e Expr) (doubleKernel, bool) {
	if e.Type() == types.Bigint || e.Type() == types.Date {
		f, ok := vecLong(e)
		if !ok {
			return nil, false
		}
		return vecLongToDouble(f), true
	}
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.F, x.Val.Null), true
	case *ColumnRef:
		return vecDoubleCol(x.Index), true
	case *Neg:
		f, ok := vecDouble(x.E)
		if !ok {
			return nil, false
		}
		return vecNeg(f), true
	case *Arith:
		// Double modulo stays on the interpreter (EvalArith).
		if x.Op == OpConcat || x.Op == OpMod {
			return nil, false
		}
		if k, ok := scalarArith(x, scalarDouble, vecDouble); ok {
			return k, true
		}
		l, lok := vecDouble(x.L)
		r, rok := vecDouble(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecArithDouble(x.Op, l, r), true
	case *Case:
		return vecCaseOf(x, vecDouble)
	case *Cast:
		if x.E.Type() == types.Bigint || x.E.Type() == types.Date || x.E.Type() == types.Double {
			return vecDouble(x.E)
		}
		return nil, false
	default:
		return nil, false
	}
}

func vecStr(e Expr) (strKernel, bool) {
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.S, x.Val.Null), true
	case *ColumnRef:
		return vecStrCol(x.Index), true
	case *Arith:
		if x.Op != OpConcat {
			return nil, false
		}
		l, lok := vecStr(x.L)
		r, rok := vecStr(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecConcat(l, r), true
	case *Case:
		return vecCaseOf(x, vecStr)
	default:
		return nil, false
	}
}

func vecBool(e Expr) (boolKernel, bool) {
	switch x := e.(type) {
	case *Const:
		return vecConst(x.Val.B, x.Val.Null), true
	case *ColumnRef:
		return vecBoolCol(x.Index), true
	case *Not:
		f, ok := vecBool(x.E)
		if !ok {
			return nil, false
		}
		return vecNot(f), true
	case *And:
		l, lok := vecBool(x.L)
		r, rok := vecBool(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecAnd(l, r), true
	case *Or:
		l, lok := vecBool(x.L)
		r, rok := vecBool(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecOr(l, r), true
	case *IsNull:
		if c, ok := x.E.(*ColumnRef); ok {
			return vecIsNullCol(c.Index, x.Negate), true
		}
		return nil, false
	case *Compare:
		return vecCompare(x)
	case *Between:
		lt := types.CommonType(x.E.Type(), types.CommonType(x.Lo.Type(), x.Hi.Type()))
		switch lt {
		case types.Bigint, types.Date:
			if k, ok := scalarBetween(x, scalarLong, vecLong); ok {
				return k, true
			}
			v, ok1 := vecLong(x.E)
			lo, ok2 := vecLong(x.Lo)
			hi, ok3 := vecLong(x.Hi)
			if !ok1 || !ok2 || !ok3 {
				return nil, false
			}
			return vecBetweenOrd(v, lo, hi, x.Negate), true
		case types.Double:
			if k, ok := scalarBetween(x, scalarDouble, vecDouble); ok {
				return k, true
			}
			v, ok1 := vecDouble(x.E)
			lo, ok2 := vecDouble(x.Lo)
			hi, ok3 := vecDouble(x.Hi)
			if !ok1 || !ok2 || !ok3 {
				return nil, false
			}
			return vecBetweenOrd(v, lo, hi, x.Negate), true
		}
		return nil, false
	case *In:
		return vecIn(x)
	case *Like:
		pat, ok := x.Pattern.(*Const)
		if !ok || pat.Val.Null {
			return nil, false
		}
		f, ok := vecStr(x.E)
		if !ok {
			return nil, false
		}
		return vecLike(f, pat.Val.S, x.Negate), true
	case *Case:
		return vecCaseOf(x, vecBool)
	default:
		return nil, false
	}
}

func vecCompare(x *Compare) (boolKernel, bool) {
	switch types.CommonType(x.L.Type(), x.R.Type()) {
	case types.Bigint, types.Date:
		if k, ok := scalarCompare(x, scalarLong, vecLong); ok {
			return k, true
		}
		l, lok := vecLong(x.L)
		r, rok := vecLong(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareOrd(x.Op, l, r), true
	case types.Double:
		if k, ok := scalarCompare(x, scalarDouble, vecDouble); ok {
			return k, true
		}
		l, lok := vecDouble(x.L)
		r, rok := vecDouble(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareOrd(x.Op, l, r), true
	case types.Varchar:
		if k, ok := scalarCompare(x, scalarStr, vecStr); ok {
			return k, true
		}
		l, lok := vecStr(x.L)
		r, rok := vecStr(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareOrd(x.Op, l, r), true
	case types.Boolean:
		l, lok := vecBool(x.L)
		r, rok := vecBool(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareBool(x.Op, l, r)
	default:
		return nil, false
	}
}

func vecIn(x *In) (boolKernel, bool) {
	for _, le := range x.List {
		if _, ok := le.(*Const); !ok {
			return nil, false
		}
	}
	// A NULL element is in no set: it only makes a non-member NULL.
	listNull := false
	for _, le := range x.List {
		listNull = listNull || le.(*Const).Val.Null
	}
	switch x.E.Type() {
	case types.Bigint, types.Date:
		set := make(map[int64]bool, len(x.List))
		for _, le := range x.List {
			if c := le.(*Const); !c.Val.Null {
				set[c.Val.I] = true
			}
		}
		f, ok := vecLong(x.E)
		if !ok {
			return nil, false
		}
		return vecInSet(f, set, listNull, x.Negate), true
	case types.Varchar:
		set := make(map[string]bool, len(x.List))
		for _, le := range x.List {
			if c := le.(*Const); !c.Val.Null {
				set[c.Val.S] = true
			}
		}
		f, ok := vecStr(x.E)
		if !ok {
			return nil, false
		}
		return vecInSet(f, set, listNull, x.Negate), true
	default:
		return nil, false
	}
}

// ---- top-level projector ----

// vecProjector evaluates one projection expression as a kernel tree and
// boxes the result into a flat block. It holds no mutable state: the kernels'
// temporaries are leased from the evaluating processor's arena. The output
// block's arrays are freshly allocated by default, because a page is
// immutable and whoever receives it may keep it; a caller that knows the
// block is read before its arena is next rewound (a CSE slot, or a page
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
func compileVecProj(e Expr) *vecProjector {
	t := e.Type()
	switch t {
	case types.Bigint, types.Date:
		if f, ok := vecLong(e); ok {
			return &vecProjector{t: t, lk: f}
		}
	case types.Double:
		if f, ok := vecDouble(e); ok {
			return &vecProjector{t: t, dk: f}
		}
	case types.Varchar:
		if f, ok := vecStr(e); ok {
			return &vecProjector{t: t, sk: f}
		}
	case types.Boolean:
		if f, ok := vecBool(e); ok {
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
