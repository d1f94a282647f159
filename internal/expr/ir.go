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
	// String renders the expression for EXPLAIN output (see format).
	String() string
}

// ColumnRef reads input field Index.
type ColumnRef struct {
	Index int
	T     types.Type
	Name  string // for EXPLAIN only
}

func (e *ColumnRef) Type() types.Type { return e.T }
func (e *ColumnRef) String() string   { return format(e, false) }

// Const is a literal value. A literal the plan cache lifted out of the
// statement's text carries its Slot (1-based; 0 for none), so a cached plan
// can run with another statement's literals: a worker compiles a slot-tagged
// constant as a Param. The slot crosses the wire with the fragment and never
// shows in EXPLAIN.
type Const struct {
	Val  types.Value
	Slot int
}

func (e *Const) Type() types.Type { return e.Val.T }
func (e *Const) String() string   { return format(e, false) }

// NewConst boxes a value as a constant expression.
func NewConst(v types.Value) *Const { return &Const{Val: v} }

// NewSlotConst is NewConst for the literal lifted into slot (0: none).
func NewSlotConst(v types.Value, slot int) *Const { return &Const{Val: v, Slot: slot} }

// Param reads element Index of the evaluation's parameter vector, a value of
// type T that is never NULL: a compiled fragment is shared by the tasks of
// every statement of its template, and each task hands its processors its
// statement's literals, coerced to the types its constants had (see
// exec.CompiledFragment). Params exist only in compiled programs; a plan
// holds slot-tagged Consts.
type Param struct {
	Index int
	T     types.Type
}

func (e *Param) Type() types.Type { return e.T }
func (e *Param) String() string   { return format(e, false) }

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
func (e *Arith) String() string   { return format(e, false) }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

func (e *Neg) Type() types.Type { return e.E.Type() }
func (e *Neg) String() string   { return format(e, false) }

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
func (e *Compare) String() string   { return format(e, false) }

// And is logical conjunction with SQL three-valued semantics.
type And struct{ L, R Expr }

func (e *And) Type() types.Type { return types.Boolean }
func (e *And) String() string   { return format(e, false) }

// Or is logical disjunction with SQL three-valued semantics.
type Or struct{ L, R Expr }

func (e *Or) Type() types.Type { return types.Boolean }
func (e *Or) String() string   { return format(e, false) }

// Not is logical negation.
type Not struct{ E Expr }

func (e *Not) Type() types.Type { return types.Boolean }
func (e *Not) String() string   { return format(e, false) }

// IsNull tests for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (e *IsNull) Type() types.Type { return types.Boolean }
func (e *IsNull) String() string   { return format(e, false) }

// In tests membership in a literal list.
type In struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (e *In) Type() types.Type { return types.Boolean }
func (e *In) String() string   { return format(e, false) }

// Between tests lo <= e <= hi.
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

func (e *Between) Type() types.Type { return types.Boolean }
func (e *Between) String() string   { return format(e, false) }

// Like matches a SQL LIKE pattern (with % and _ wildcards).
type Like struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

func (e *Like) Type() types.Type { return types.Boolean }
func (e *Like) String() string   { return format(e, false) }

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
func (e *Case) String() string   { return format(e, false) }

// Cast converts to a target type with CAST semantics.
type Cast struct {
	E Expr
	T types.Type
}

func (e *Cast) Type() types.Type { return e.T }
func (e *Cast) String() string   { return format(e, false) }

// Call invokes a builtin scalar function.
type Call struct {
	Fn   *Builtin
	Args []Expr
}

func (e *Call) Type() types.Type { return e.Fn.ReturnType }
func (e *Call) String() string   { return format(e, false) }

// Lambda is an anonymous function value, usable only as an argument to a
// higher-order builtin (transform/filter/reduce).
type Lambda struct {
	NParams int
	Body    Expr // parameters are LambdaRef 0..NParams-1
}

func (e *Lambda) Type() types.Type { return types.Unknown }
func (e *Lambda) String() string   { return format(e, false) }

// LambdaRef reads lambda parameter I (innermost lambda's params first).
type LambdaRef struct {
	I int
	T types.Type
}

func (e *LambdaRef) Type() types.Type { return e.T }
func (e *LambdaRef) String() string   { return format(e, false) }

// Subscript is 1-based array element access.
type Subscript struct {
	Base  Expr
	Index Expr
	T     types.Type
}

func (e *Subscript) Type() types.Type { return e.T }
func (e *Subscript) String() string   { return format(e, false) }

// ArrayCtor builds an array value from element expressions.
type ArrayCtor struct{ Elems []Expr }

func (e *ArrayCtor) Type() types.Type { return types.Array }
func (e *ArrayCtor) String() string   { return format(e, false) }

// CanonicalKey renders e unambiguously: two expressions with one key compute
// the same value from the same row, if they are deterministic.
func CanonicalKey(e Expr) string { return format(e, true) }

// format is the one writer of an expression tree. Display mode (key false) is
// EXPLAIN's: a column by its name, a literal without its type or slot. Key
// mode is CanonicalKey's: a column by its index, each literal with its type
// and slot, and the type of each node its operands do not fix.
func format(e Expr, key bool) string {
	f := func(e Expr) string { return format(e, key) }
	list := func(es []Expr) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = f(e)
		}
		return strings.Join(parts, ", ")
	}
	typ := func(t types.Type) string {
		if key {
			return ":" + t.String()
		}
		return ""
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Name != "" && !key {
			return x.Name
		}
		return fmt.Sprintf("$%d", x.Index)
	case *Const:
		s := x.Val.String()
		if x.Val.T == types.Varchar && !x.Val.Null {
			s = "'" + strings.ReplaceAll(s, "'", "''") + "'"
		}
		if key {
			s += fmt.Sprintf(":%s@%d", x.Val.T, x.Slot)
		}
		return s
	case *Param:
		return fmt.Sprintf("?%d", x.Index)
	case *Arith:
		return "(" + f(x.L) + " " + x.Op.String() + " " + f(x.R) + ")" + typ(x.T)
	case *Neg:
		return "(-" + f(x.E) + ")"
	case *Compare:
		return "(" + f(x.L) + " " + x.Op.String() + " " + f(x.R) + ")"
	case *And:
		return "(" + f(x.L) + " AND " + f(x.R) + ")"
	case *Or:
		return "(" + f(x.L) + " OR " + f(x.R) + ")"
	case *Not:
		return "(NOT " + f(x.E) + ")"
	case *IsNull:
		return "(" + f(x.E) + " IS " + not(x.Negate) + "NULL)"
	case *In:
		return "(" + f(x.E) + " " + not(x.Negate) + "IN (" + list(x.List) + "))"
	case *Between:
		return "(" + f(x.E) + " " + not(x.Negate) + "BETWEEN " + f(x.Lo) + " AND " + f(x.Hi) + ")"
	case *Like:
		return "(" + f(x.E) + " " + not(x.Negate) + "LIKE " + f(x.Pattern) + ")"
	case *Case:
		s := "CASE"
		for _, w := range x.Whens {
			s += " WHEN " + f(w.Cond) + " THEN " + f(w.Then)
		}
		if x.Else != nil {
			s += " ELSE " + f(x.Else)
		}
		return s + " END" + typ(x.T)
	case *Cast:
		return "CAST(" + f(x.E) + " AS " + x.T.String() + ")"
	case *Call:
		return x.Fn.Name + "(" + list(x.Args) + ")"
	case *Lambda:
		return fmt.Sprintf("(LAMBDA %d -> %s)", x.NParams, f(x.Body))
	case *LambdaRef:
		return fmt.Sprintf("#%d", x.I)
	case *Subscript:
		return f(x.Base) + "[" + f(x.Index) + "]" + typ(x.T)
	case *ArrayCtor:
		return "ARRAY[" + list(x.Elems) + "]"
	}
	return fmt.Sprintf("%T", e)
}

func not(negate bool) string {
	if negate {
		return "NOT "
	}
	return ""
}

// Conjuncts flattens nested ANDs into a conjunct list.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// AndAll is the left-deep AND of cs, nil for none.
func AndAll(cs []Expr) Expr {
	var out Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &And{L: out, R: c}
		}
	}
	return out
}

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
