package expr

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/types"
)

// Row provides boxed access to one input row.
type Row interface {
	ColValue(i int) types.Value
}

// ValuesRow adapts a value slice as a Row.
type ValuesRow []types.Value

// ColValue returns element i.
func (r ValuesRow) ColValue(i int) types.Value { return r[i] }

// Interpreter evaluates expressions by walking the tree. The paper keeps an
// interpreter for tests even though production uses generated code (§V-B);
// this engine does the same — Compile is the fast path.
type Interpreter struct {
	lambdaEnv []types.Value // stack of bound lambda parameters
}

// predicate evaluates e as a filter: its AND/OR/NOT skeleton is three-valued,
// and a leaf whose evaluation fails (a division by zero, say) counts as
// NULL. That is the selection kernels' answer, and the only one that does not
// depend on operand order: a row passes when the result is TRUE.
func (it *Interpreter) predicate(e Expr, row Row) types.Value {
	switch x := e.(type) {
	case *And:
		l := it.predicate(x.L, row)
		if isFalse(l) {
			return l
		}
		return and3(l, it.predicate(x.R, row))
	case *Or:
		l := it.predicate(x.L, row)
		if isTrue(l) {
			return l
		}
		return or3(l, it.predicate(x.R, row))
	case *Not:
		return not3(it.predicate(x.E, row))
	}
	v, err := it.Eval(e, row)
	if err != nil {
		return types.NullValue(types.Boolean)
	}
	return v
}

func isTrue(v types.Value) bool  { return !v.Null && v.B }
func isFalse(v types.Value) bool { return !v.Null && !v.B }

// and3, or3 and not3 are SQL's three-valued connectives.
func and3(l, r types.Value) types.Value {
	switch {
	case isFalse(l) || isFalse(r):
		return types.BooleanValue(false)
	case l.Null || r.Null:
		return types.NullValue(types.Boolean)
	}
	return types.BooleanValue(true)
}

func or3(l, r types.Value) types.Value {
	switch {
	case isTrue(l) || isTrue(r):
		return types.BooleanValue(true)
	case l.Null || r.Null:
		return types.NullValue(types.Boolean)
	}
	return types.BooleanValue(false)
}

func not3(v types.Value) types.Value {
	if v.Null {
		return v
	}
	return types.BooleanValue(!v.B)
}

// Eval evaluates e against row, returning a boxed value.
func (it *Interpreter) Eval(e Expr, row Row) (types.Value, error) {
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *ColumnRef:
		return row.ColValue(x.Index), nil
	case *LambdaRef:
		return it.lambdaEnv[len(it.lambdaEnv)-1-x.I], nil

	case *Arith:
		l, err := it.Eval(x.L, row)
		if err != nil {
			return types.Value{}, err
		}
		r, err := it.Eval(x.R, row)
		if err != nil {
			return types.Value{}, err
		}
		return EvalArith(x.Op, x.T, l, r)

	case *Neg:
		v, err := it.Eval(x.E, row)
		if err != nil || v.Null {
			return v, err
		}
		if v.T == types.Double {
			return types.DoubleValue(-v.F), nil
		}
		return types.BigintValue(-v.I), nil

	case *Compare:
		l, err := it.Eval(x.L, row)
		if err != nil {
			return types.Value{}, err
		}
		r, err := it.Eval(x.R, row)
		if err != nil {
			return types.Value{}, err
		}
		return EvalCompare(x.Op, l, r), nil

	case *And:
		l, err := it.Eval(x.L, row)
		if err != nil || isFalse(l) {
			return l, err
		}
		r, err := it.Eval(x.R, row)
		if err != nil {
			return types.Value{}, err
		}
		return and3(l, r), nil

	case *Or:
		l, err := it.Eval(x.L, row)
		if err != nil || isTrue(l) {
			return l, err
		}
		r, err := it.Eval(x.R, row)
		if err != nil {
			return types.Value{}, err
		}
		return or3(l, r), nil

	case *Not:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return v, err
		}
		return not3(v), nil

	case *IsNull:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		return types.BooleanValue(v.Null != x.Negate), nil

	case *In:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return types.NullValue(types.Boolean), nil
		}
		sawNull := false
		for _, le := range x.List {
			lv, err := it.Eval(le, row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.Null {
				sawNull = true
				continue
			}
			if v.Equal(lv) {
				return types.BooleanValue(!x.Negate), nil
			}
		}
		if sawNull {
			return types.NullValue(types.Boolean), nil
		}
		return types.BooleanValue(x.Negate), nil

	case *Between:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		lo, err := it.Eval(x.Lo, row)
		if err != nil {
			return types.Value{}, err
		}
		hi, err := it.Eval(x.Hi, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null || lo.Null || hi.Null {
			return types.NullValue(types.Boolean), nil
		}
		in := !unordered(v, lo) && !unordered(v, hi) && v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		return types.BooleanValue(in != x.Negate), nil

	case *Like:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		p, err := it.Eval(x.Pattern, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null || p.Null {
			return types.NullValue(types.Boolean), nil
		}
		return types.BooleanValue(LikeMatch(v.S, p.S) != x.Negate), nil

	case *Case:
		for _, w := range x.Whens {
			c, err := it.Eval(w.Cond, row)
			if err != nil {
				return types.Value{}, err
			}
			if !c.Null && c.B {
				v, err := it.Eval(w.Then, row)
				if err != nil {
					return types.Value{}, err
				}
				return v.Coerce(x.T)
			}
		}
		if x.Else != nil {
			v, err := it.Eval(x.Else, row)
			if err != nil {
				return types.Value{}, err
			}
			return v.Coerce(x.T)
		}
		return types.NullValue(x.T), nil

	case *Cast:
		v, err := it.Eval(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		return v.Cast(x.T)

	case *Call:
		if x.Fn.HigherOrder {
			return it.evalHigherOrder(x, row)
		}
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := it.Eval(a, row)
			if err != nil {
				return types.Value{}, err
			}
			if v.Null && !x.Fn.NullCall {
				return types.NullValue(x.Fn.ReturnType), nil
			}
			args[i] = v
		}
		return x.Fn.Eval(args)

	case *Subscript:
		base, err := it.Eval(x.Base, row)
		if err != nil {
			return types.Value{}, err
		}
		idx, err := it.Eval(x.Index, row)
		if err != nil {
			return types.Value{}, err
		}
		if base.Null || idx.Null {
			return types.NullValue(x.T), nil
		}
		i := int(idx.I)
		if i < 1 || i > len(base.A) {
			return types.Value{}, fmt.Errorf("array subscript %d out of bounds (size %d)", i, len(base.A))
		}
		return base.A[i-1], nil

	case *ArrayCtor:
		elems := make([]types.Value, len(x.Elems))
		for i, a := range x.Elems {
			v, err := it.Eval(a, row)
			if err != nil {
				return types.Value{}, err
			}
			elems[i] = v
		}
		return types.ArrayValue(elems), nil

	case *Lambda:
		return types.Value{}, fmt.Errorf("lambda used outside a higher-order function")

	default:
		return types.Value{}, fmt.Errorf("interpreter: unsupported expression %T", e)
	}
}

func (it *Interpreter) evalHigherOrder(x *Call, row Row) (types.Value, error) {
	arr, err := it.Eval(x.Args[0], row)
	if err != nil {
		return types.Value{}, err
	}
	if arr.Null {
		return types.NullValue(x.Fn.ReturnType), nil
	}
	switch x.Fn.Name {
	case "transform":
		lam, ok := x.Args[1].(*Lambda)
		if !ok {
			return types.Value{}, fmt.Errorf("transform requires a lambda")
		}
		out := make([]types.Value, len(arr.A))
		for i, v := range arr.A {
			it.lambdaEnv = append(it.lambdaEnv, v)
			r, err := it.Eval(lam.Body, row)
			it.lambdaEnv = it.lambdaEnv[:len(it.lambdaEnv)-1]
			if err != nil {
				return types.Value{}, err
			}
			out[i] = r
		}
		return types.ArrayValue(out), nil
	case "filter":
		lam, ok := x.Args[1].(*Lambda)
		if !ok {
			return types.Value{}, fmt.Errorf("filter requires a lambda")
		}
		var out []types.Value
		for _, v := range arr.A {
			it.lambdaEnv = append(it.lambdaEnv, v)
			r, err := it.Eval(lam.Body, row)
			it.lambdaEnv = it.lambdaEnv[:len(it.lambdaEnv)-1]
			if err != nil {
				return types.Value{}, err
			}
			if !r.Null && r.B {
				out = append(out, v)
			}
		}
		return types.ArrayValue(out), nil
	case "reduce":
		init, err := it.Eval(x.Args[1], row)
		if err != nil {
			return types.Value{}, err
		}
		lam, ok := x.Args[2].(*Lambda)
		if !ok || lam.NParams != 2 {
			return types.Value{}, fmt.Errorf("reduce requires a two-parameter lambda")
		}
		acc := init
		for _, v := range arr.A {
			// Params bind as (acc, element): acc is #0, element is #1.
			it.lambdaEnv = append(it.lambdaEnv, v, acc)
			r, err := it.Eval(lam.Body, row)
			it.lambdaEnv = it.lambdaEnv[:len(it.lambdaEnv)-2]
			if err != nil {
				return types.Value{}, err
			}
			acc = r
		}
		return acc, nil
	}
	return types.Value{}, fmt.Errorf("unknown higher-order function %s", x.Fn.Name)
}

// EvalArith applies a binary arithmetic or concat operator to boxed values.
func EvalArith(op BinOp, t types.Type, l, r types.Value) (types.Value, error) {
	if l.Null || r.Null {
		return types.NullValue(t), nil
	}
	if op == OpConcat {
		return types.VarcharValue(l.S + r.S), nil
	}
	if t == types.Double {
		lf, rf := l.F, r.F
		if l.T != types.Double {
			lf = float64(l.I)
		}
		if r.T != types.Double {
			rf = float64(r.I)
		}
		switch op {
		case OpAdd:
			return types.DoubleValue(lf + rf), nil
		case OpSub:
			return types.DoubleValue(lf - rf), nil
		case OpMul:
			return types.DoubleValue(lf * rf), nil
		case OpDiv:
			if rf == 0 {
				return types.Value{}, errDivZero
			}
			return types.DoubleValue(lf / rf), nil
		case OpMod:
			// Modulo is taken on the truncated operands, so a divisor in
			// (-1, 1) is a zero divisor too.
			if int64(rf) == 0 {
				return types.Value{}, errDivZero
			}
			return types.DoubleValue(float64(int64(lf) % int64(rf))), nil
		}
	}
	switch op {
	case OpAdd:
		return types.Value{T: t, I: l.I + r.I}, nil
	case OpSub:
		return types.Value{T: t, I: l.I - r.I}, nil
	case OpMul:
		return types.Value{T: t, I: l.I * r.I}, nil
	case OpDiv:
		if r.I == 0 {
			return types.Value{}, errDivZero
		}
		return types.Value{T: t, I: l.I / r.I}, nil
	case OpMod:
		if r.I == 0 {
			return types.Value{}, errDivZero
		}
		return types.Value{T: t, I: l.I % r.I}, nil
	}
	return types.Value{}, fmt.Errorf("unsupported arithmetic op %v", op)
}

// unordered reports a pair with a NaN in it, which IEEE orders against
// nothing: every comparison of it is false but <>, as in the kernels.
func unordered(l, r types.Value) bool {
	return l.T == types.Double && math.IsNaN(l.F) || r.T == types.Double && math.IsNaN(r.F)
}

// EvalCompare applies a comparison with SQL NULL semantics and IEEE NaN
// semantics.
func EvalCompare(op CmpOp, l, r types.Value) types.Value {
	if l.Null || r.Null {
		return types.NullValue(types.Boolean)
	}
	if unordered(l, r) {
		return types.BooleanValue(op == CmpNe)
	}
	c := l.Compare(r)
	var b bool
	switch op {
	case CmpEq:
		b = c == 0
	case CmpNe:
		b = c != 0
	case CmpLt:
		b = c < 0
	case CmpLe:
		b = c <= 0
	case CmpGt:
		b = c > 0
	case CmpGe:
		b = c >= 0
	}
	return types.BooleanValue(b)
}

// LikeMatch implements SQL LIKE with % (any run) and _ (any single
// character, a code point).
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Dynamic-programming-free greedy matcher with backtracking on %.
	var starP, starS = -1, 0
	si, pi := 0, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case pi < len(p) && p[pi] == '_':
			si += charLen(s, si)
			pi++
		case pi < len(p) && p[pi] == s[si]:
			// A literal character matches byte by byte: both strings are
			// at a character boundary here and leave it only together.
			si++
			pi++
		case starP >= 0:
			starS += charLen(s, starS)
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// charLen is the byte length of the character at s[i]: one for ASCII,
// without decoding.
func charLen(s string, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s[i:])
	return n
}

// LikePrefix returns the literal prefix of a LIKE pattern (up to the first
// wildcard), used by connectors for range pushdown.
func LikePrefix(pattern string) string {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern
	}
	return pattern[:i]
}
