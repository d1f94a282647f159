package expr

import (
	"cmp"
	"errors"
	"math"
	"math/bits"

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
// filter's selection vector (nil = all rows), the output length, and the
// already-evaluated CSE slot blocks (selection-aligned, so virtual columns
// index them identity).
type vecInput struct {
	p      *block.Page
	sel    []int // nil means rows 0..n-1 of p
	n      int   // number of output positions
	shared []block.Block
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
// null-free tight loop; true is always safe to return.
type vkernel[T any] func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error)

type longKernel = vkernel[int64]
type doubleKernel = vkernel[float64]
type strKernel = vkernel[string]
type boolKernel = vkernel[bool]

// ---- shared buffer and loop helpers ----

func growSlice[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	return b[:n]
}

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
	has := false
	for _, i := range idx {
		r := i
		if sel != nil {
			r = sel[i]
		}
		if vn != nil && vn[r] {
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
	var lv, rv []int64
	var ln, rn []bool
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		rv, rn = growSlice(rv, n), growSlice(rn, n)
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
	var lv, rv []float64
	var ln, rn []bool
	return func(in *vecInput, idx []int, out []float64, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		rv, rn = growSlice(rv, n), growSlice(rn, n)
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
	var lv []int64
	return func(in *vecInput, idx []int, out []float64, nulls []bool) (bool, error) {
		lv = growSlice(lv, in.n)
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
	var dv []float64
	return func(in *vecInput, idx []int, out []int64, nulls []bool) (bool, error) {
		dv = growSlice(dv, in.n)
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
	var lv, rv []string
	var ln, rn []bool
	return func(in *vecInput, idx []int, out []string, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		rv, rn = growSlice(rv, n), growSlice(rn, n)
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

func cmpApply[T cmp.Ordered](op CmpOp, a, b T) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	default:
		return a >= b
	}
}

func vecCompareOrd[T cmp.Ordered](op CmpOp, l, r vkernel[T]) boolKernel {
	var lv, rv []T
	var ln, rn []bool
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		rv, rn = growSlice(rv, n), growSlice(rn, n)
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
				out[i], nulls[i] = cmpApply(op, lv[i], rv[i]), false
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
	var lv, rv, ln, rn []bool
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		rv, rn = growSlice(rv, n), growSlice(rn, n)
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

func vecBetweenOrd[T cmp.Ordered](v, lo, hi vkernel[T], neg bool) boolKernel {
	var vv, lv, hv []T
	var vn, ln, hn []bool
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn = growSlice(vv, n), growSlice(vn, n)
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		hv, hn = growSlice(hv, n), growSlice(hn, n)
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

func vecInSet[T comparable](f vkernel[T], set map[T]bool, neg bool) boolKernel {
	var vv []T
	var vn []bool
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn = growSlice(vv, n), growSlice(vn, n)
		vHas, err := f(in, idx, vv, vn)
		if err != nil {
			return false, err
		}
		if idx == nil && !vHas {
			clearBools(nulls[:n])
			a, o := vv[:n], out[:n]
			for i := range o {
				o[i] = set[a[i]] != neg
			}
			return false, nil
		}
		has := false
		step := func(i int) {
			if vn[i] {
				out[i], nulls[i] = false, true
				has = true
			} else {
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
	var vv []string
	var vn []bool
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		vv, vn = growSlice(vv, n), growSlice(vn, n)
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
	var lv, ln []bool
	var need []int
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		if _, err := l(in, idx, lv, ln); err != nil {
			return false, err
		}
		need = need[:0]
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
	var lv, ln []bool
	var need []int
	return func(in *vecInput, idx []int, out []bool, nulls []bool) (bool, error) {
		n := in.n
		lv, ln = growSlice(lv, n), growSlice(ln, n)
		if _, err := l(in, idx, lv, ln); err != nil {
			return false, err
		}
		need = need[:0]
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
	var cv, cn []bool
	var rem, match []int
	return func(in *vecInput, idx []int, out []T, nulls []bool) (bool, error) {
		n := in.n
		cv, cn = growSlice(cv, n), growSlice(cn, n)
		rem = rem[:0]
		if idx == nil {
			for i := 0; i < n; i++ {
				rem = append(rem, i)
			}
		} else {
			rem = append(rem, idx...)
		}
		has := false
		for k := range conds {
			if len(rem) == 0 {
				break
			}
			if _, err := conds[k](in, rem, cv, cn); err != nil {
				return false, err
			}
			match = match[:0]
			next := rem[:0]
			for _, i := range rem {
				if !cn[i] && cv[i] {
					match = append(match, i)
				} else {
					next = append(next, i)
				}
			}
			rem = next
			if len(match) > 0 {
				h, err := thens[k](in, match, out, nulls)
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
			v, ok1 := vecLong(x.E)
			lo, ok2 := vecLong(x.Lo)
			hi, ok3 := vecLong(x.Hi)
			if !ok1 || !ok2 || !ok3 {
				return nil, false
			}
			return vecBetweenOrd(v, lo, hi, x.Negate), true
		case types.Double:
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
		l, lok := vecLong(x.L)
		r, rok := vecLong(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareOrd(x.Op, l, r), true
	case types.Double:
		l, lok := vecDouble(x.L)
		r, rok := vecDouble(x.R)
		if !lok || !rok {
			return nil, false
		}
		return vecCompareOrd(x.Op, l, r), true
	case types.Varchar:
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
		return vecInSet(f, set, x.Negate), true
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
		return vecInSet(f, set, x.Negate), true
	default:
		return nil, false
	}
}

// ---- top-level projector ----

// vecProjector evaluates one projection expression as a kernel tree and
// boxes the result into a flat block. Interior scratch buffers are reused
// across pages. The output block's arrays are freshly allocated by default,
// because a page is immutable and whoever receives it may keep it; a caller
// that knows the block is read before the projector's next eval (a CSE slot,
// or a page processor whose output is borrowed — PageProcessor.BorrowOutput)
// asks for scratch output instead, and the block then views vectors the
// projector owns and overwrites on that next eval.
type vecProjector struct {
	t     types.Type
	lk    longKernel
	dk    doubleKernel
	sk    strKernel
	bk    boolKernel
	nulls []bool

	// Scratch output vectors, one per kernel type (only the projector's own
	// type is ever grown).
	longs   []int64
	doubles []float64
	strs    []string
	bools   []bool
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

// outVec returns the n-long vector a projector writes its result into: a
// fresh one the output block will own, or the projector's own, grown to fit.
func outVec[T any](own *[]T, n int, scratch bool) []T {
	if !scratch {
		return make([]T, n)
	}
	*own = growSlice(*own, n)
	return *own
}

func (vp *vecProjector) eval(in *vecInput, scratch bool) (block.Block, error) {
	n := in.n
	vp.nulls = growSlice(vp.nulls, n)
	switch {
	case vp.lk != nil:
		vals := outVec(&vp.longs, n, scratch)
		has, err := vp.lk(in, nil, vals, vp.nulls)
		if err != nil {
			return nil, err
		}
		return &block.LongBlock{T: vp.t, Vals: vals, Nulls: nullMask(vp.nulls[:n], has, scratch)}, nil
	case vp.dk != nil:
		vals := outVec(&vp.doubles, n, scratch)
		has, err := vp.dk(in, nil, vals, vp.nulls)
		if err != nil {
			return nil, err
		}
		return block.NewDoubleBlock(vals, nullMask(vp.nulls[:n], has, scratch)), nil
	case vp.sk != nil:
		vals := outVec(&vp.strs, n, scratch)
		has, err := vp.sk(in, nil, vals, vp.nulls)
		if err != nil {
			return nil, err
		}
		return block.NewVarcharBlock(vals, nullMask(vp.nulls[:n], has, scratch)), nil
	default:
		vals := outVec(&vp.bools, n, scratch)
		has, err := vp.bk(in, nil, vals, vp.nulls)
		if err != nil {
			return nil, err
		}
		return block.NewBoolBlock(vals, nullMask(vp.nulls[:n], has, scratch)), nil
	}
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

// poison overwrites every scratch output vector, to its full capacity, with
// values no input produces, so a consumer still reading a borrowed block
// after its time computes a visibly wrong answer (see poisonBorrowed).
func (vp *vecProjector) poison() {
	PoisonVectors(vp.longs, vp.doubles, vp.strs, vp.bools, vp.nulls, nil)
}

// PoisonVectors overwrites lent vectors, to their full capacity, with values
// no input produces; a dictionary index vector with one that addresses no
// entry.
func PoisonVectors(longs []int64, doubles []float64, strs []string, bools, nulls []bool, indices []int32) {
	fillCap(longs, math.MinInt64)
	fillCap(doubles, math.NaN())
	fillCap(strs, "\x00poisoned borrowed page")
	flipCap(bools)
	flipCap(nulls)
	fillCap(indices, math.MinInt32)
}

func fillCap[T any](v []T, x T) {
	v = v[:cap(v)]
	for i := range v {
		v[i] = x
	}
}

func flipCap(v []bool) {
	v = v[:cap(v)]
	for i, b := range v {
		v[i] = !b
	}
}
