// Package expr defines the engine's scalar expression IR and its two
// evaluation strategies: a tree-walking interpreter (the reference path, used
// for tests and for expressions nothing else covers) and a compiler that
// specializes expressions into trees of typed columnar kernels — this
// repository's stand-in for the paper's JVM bytecode generation (§V-B). It
// also implements the page processor, which evaluates filters and projections
// a page at a time and exploits dictionary/RLE encodings (§V-E).
package expr

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is a typed scalar expression over the fields of an input row.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.Type
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColumnRef reads input field Index.
type ColumnRef struct {
	Index int
	T     types.Type
	Name  string // for EXPLAIN only
}

func (e *ColumnRef) Type() types.Type { return e.T }
func (e *ColumnRef) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("$%d", e.Index)
}

// Const is a literal value.
type Const struct{ Val types.Value }

func (e *Const) Type() types.Type { return e.Val.T }
func (e *Const) String() string {
	if e.Val.T == types.Varchar && !e.Val.Null {
		return "'" + e.Val.S + "'"
	}
	return e.Val.String()
}

// NewConst boxes a value as a constant expression.
func NewConst(v types.Value) *Const { return &Const{Val: v} }

// BinOp enumerates arithmetic and string binary operators.
type BinOp int

// Arithmetic and concatenation operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "||"}[op]
}

// Valid reports whether op is one of the operators above.
func (op BinOp) Valid() bool { return op >= OpAdd && op <= OpConcat }

// Arith applies a binary arithmetic (or string concat) operator.
type Arith struct {
	Op   BinOp
	L, R Expr
	T    types.Type
}

func (e *Arith) Type() types.Type { return e.T }
func (e *Arith) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// Neg is arithmetic negation.
type Neg struct{ E Expr }

func (e *Neg) Type() types.Type { return e.E.Type() }
func (e *Neg) String() string   { return "(-" + e.E.String() + ")" }

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Valid reports whether op is one of the operators above.
func (op CmpOp) Valid() bool { return op >= CmpEq && op <= CmpGe }

// Compare applies a comparison, yielding BOOLEAN (or NULL).
type Compare struct {
	Op   CmpOp
	L, R Expr
}

func (e *Compare) Type() types.Type { return types.Boolean }
func (e *Compare) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// And is logical conjunction with SQL three-valued semantics.
type And struct{ L, R Expr }

func (e *And) Type() types.Type { return types.Boolean }
func (e *And) String() string   { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// Or is logical disjunction with SQL three-valued semantics.
type Or struct{ L, R Expr }

func (e *Or) Type() types.Type { return types.Boolean }
func (e *Or) String() string   { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// Not is logical negation.
type Not struct{ E Expr }

func (e *Not) Type() types.Type { return types.Boolean }
func (e *Not) String() string   { return "(NOT " + e.E.String() + ")" }

// IsNull tests for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (e *IsNull) Type() types.Type { return types.Boolean }
func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.E.String() + " IS NOT NULL)"
	}
	return "(" + e.E.String() + " IS NULL)"
}

// In tests membership in a literal list.
type In struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (e *In) Type() types.Type { return types.Boolean }
func (e *In) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	neg := ""
	if e.Negate {
		neg = "NOT "
	}
	return "(" + e.E.String() + " " + neg + "IN (" + strings.Join(parts, ", ") + "))"
}

// Between tests lo <= e <= hi.
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

func (e *Between) Type() types.Type { return types.Boolean }
func (e *Between) String() string {
	return "(" + e.E.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// Like matches a SQL LIKE pattern (with % and _ wildcards).
type Like struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

func (e *Like) Type() types.Type { return types.Boolean }
func (e *Like) String() string {
	return "(" + e.E.String() + " LIKE " + e.Pattern.String() + ")"
}

// Case is a searched CASE expression (operand form is desugared by the
// analyzer into comparisons).
type Case struct {
	Whens []CaseWhen
	Else  Expr `wire:"optional"` // nil means NULL
	T     types.Type
}

// CaseWhen is one WHEN/THEN pair.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (e *Case) Type() types.Type { return e.T }
func (e *Case) String() string   { return "CASE(...)" }

// Cast converts to a target type with CAST semantics.
type Cast struct {
	E Expr
	T types.Type
}

func (e *Cast) Type() types.Type { return e.T }
func (e *Cast) String() string {
	return "CAST(" + e.E.String() + " AS " + e.T.String() + ")"
}

// Call invokes a builtin scalar function.
type Call struct {
	Fn   *Builtin
	Args []Expr
}

func (e *Call) Type() types.Type { return e.Fn.ReturnType }
func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fn.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Lambda is an anonymous function value, usable only as an argument to a
// higher-order builtin (transform/filter/reduce).
type Lambda struct {
	NParams int
	Body    Expr // parameters are LambdaRef 0..NParams-1
}

func (e *Lambda) Type() types.Type { return types.Unknown }
func (e *Lambda) String() string   { return "<lambda>" }

// LambdaRef reads lambda parameter I (innermost lambda's params first).
type LambdaRef struct {
	I int
	T types.Type
}

func (e *LambdaRef) Type() types.Type { return e.T }
func (e *LambdaRef) String() string   { return fmt.Sprintf("#%d", e.I) }

// Subscript is 1-based array element access.
type Subscript struct {
	Base  Expr
	Index Expr
	T     types.Type
}

func (e *Subscript) Type() types.Type { return e.T }
func (e *Subscript) String() string {
	return e.Base.String() + "[" + e.Index.String() + "]"
}

// ArrayCtor builds an array value from element expressions.
type ArrayCtor struct{ Elems []Expr }

func (e *ArrayCtor) Type() types.Type { return types.Array }
func (e *ArrayCtor) String() string   { return "ARRAY[...]" }

// Walk visits e and all sub-expressions in pre-order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Arith:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Neg:
		Walk(x.E, fn)
	case *Compare:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *And:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Or:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Not:
		Walk(x.E, fn)
	case *IsNull:
		Walk(x.E, fn)
	case *In:
		Walk(x.E, fn)
		for _, a := range x.List {
			Walk(a, fn)
		}
	case *Between:
		Walk(x.E, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *Like:
		Walk(x.E, fn)
		Walk(x.Pattern, fn)
	case *Case:
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(x.Else, fn)
	case *Cast:
		Walk(x.E, fn)
	case *Call:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *Lambda:
		Walk(x.Body, fn)
	case *Subscript:
		Walk(x.Base, fn)
		Walk(x.Index, fn)
	case *ArrayCtor:
		for _, a := range x.Elems {
			Walk(a, fn)
		}
	}
}

// Columns returns the sorted set of input column indices referenced by e.
func Columns(e Expr) []int {
	seen := map[int]bool{}
	Walk(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			seen[c.Index] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Rewrite rebuilds e, replacing each node with fn's result where fn returns
// non-nil; children of replaced nodes are not revisited.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	switch x := e.(type) {
	case *Arith:
		return &Arith{Op: x.Op, L: Rewrite(x.L, fn), R: Rewrite(x.R, fn), T: x.T}
	case *Neg:
		return &Neg{E: Rewrite(x.E, fn)}
	case *Compare:
		return &Compare{Op: x.Op, L: Rewrite(x.L, fn), R: Rewrite(x.R, fn)}
	case *And:
		return &And{L: Rewrite(x.L, fn), R: Rewrite(x.R, fn)}
	case *Or:
		return &Or{L: Rewrite(x.L, fn), R: Rewrite(x.R, fn)}
	case *Not:
		return &Not{E: Rewrite(x.E, fn)}
	case *IsNull:
		return &IsNull{E: Rewrite(x.E, fn), Negate: x.Negate}
	case *In:
		list := make([]Expr, len(x.List))
		for i, a := range x.List {
			list[i] = Rewrite(a, fn)
		}
		return &In{E: Rewrite(x.E, fn), List: list, Negate: x.Negate}
	case *Between:
		return &Between{E: Rewrite(x.E, fn), Lo: Rewrite(x.Lo, fn), Hi: Rewrite(x.Hi, fn), Negate: x.Negate}
	case *Like:
		return &Like{E: Rewrite(x.E, fn), Pattern: Rewrite(x.Pattern, fn), Negate: x.Negate}
	case *Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{Cond: Rewrite(w.Cond, fn), Then: Rewrite(w.Then, fn)}
		}
		return &Case{Whens: whens, Else: Rewrite(x.Else, fn), T: x.T}
	case *Cast:
		return &Cast{E: Rewrite(x.E, fn), T: x.T}
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Rewrite(a, fn)
		}
		return &Call{Fn: x.Fn, Args: args}
	case *Lambda:
		return &Lambda{NParams: x.NParams, Body: Rewrite(x.Body, fn)}
	case *Subscript:
		return &Subscript{Base: Rewrite(x.Base, fn), Index: Rewrite(x.Index, fn), T: x.T}
	case *ArrayCtor:
		elems := make([]Expr, len(x.Elems))
		for i, a := range x.Elems {
			elems[i] = Rewrite(a, fn)
		}
		return &ArrayCtor{Elems: elems}
	default:
		return e
	}
}

// IsDeterministic reports whether e always yields the same result for the
// same inputs (all current builtins except random()).
func IsDeterministic(e Expr) bool {
	det := true
	Walk(e, func(x Expr) {
		if c, ok := x.(*Call); ok && !c.Fn.Deterministic {
			det = false
		}
	})
	return det
}

// Equal reports structural equality of two expressions, used for matching
// GROUP BY keys against SELECT expressions.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String() && a.Type() == b.Type()
}
