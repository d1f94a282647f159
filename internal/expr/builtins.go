package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"unicode/utf8"

	"repro/internal/types"
)

// Builtin describes a scalar function implementation.
type Builtin struct {
	Name          string
	ArgTypes      []types.Type // types.Unknown entries accept any type
	Variadic      bool
	ReturnType    types.Type
	Deterministic bool
	// Eval computes the result. Null handling: unless NullCall is set, a
	// NULL argument yields NULL without invoking Eval.
	Eval     func(args []types.Value) (types.Value, error)
	NullCall bool
	// HigherOrder marks transform/filter/reduce, which receive lambdas and
	// are evaluated specially by the interpreter.
	HigherOrder bool
}

var builtins = map[string]*Builtin{}

func register(b *Builtin) { builtins[b.Name] = b }

// LookupBuiltin finds a builtin by lower-case name.
func LookupBuiltin(name string) (*Builtin, bool) {
	b, ok := builtins[name]
	return b, ok
}

// BuiltinNames lists registered function names (for error messages).
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	return out
}

func init() {
	register(&Builtin{
		Name: "abs", ArgTypes: []types.Type{types.Unknown}, ReturnType: types.Unknown, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			v := args[0]
			if v.T == types.Double {
				return types.DoubleValue(math.Abs(v.F)), nil
			}
			if v.I < 0 {
				return types.BigintValue(-v.I), nil
			}
			return v, nil
		},
	})
	register(&Builtin{
		Name: "sqrt", ArgTypes: []types.Type{types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Sqrt(args[0].F)), nil
		},
	})
	register(&Builtin{
		Name: "ln", ArgTypes: []types.Type{types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Log(args[0].F)), nil
		},
	})
	register(&Builtin{
		Name: "exp", ArgTypes: []types.Type{types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Exp(args[0].F)), nil
		},
	})
	register(&Builtin{
		Name: "power", ArgTypes: []types.Type{types.Double, types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Pow(args[0].F, args[1].F)), nil
		},
	})
	register(&Builtin{
		Name: "floor", ArgTypes: []types.Type{types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Floor(args[0].F)), nil
		},
	})
	register(&Builtin{
		Name: "ceil", ArgTypes: []types.Type{types.Double}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(math.Ceil(args[0].F)), nil
		},
	})
	register(&Builtin{
		Name: "round", ArgTypes: []types.Type{types.Double, types.Bigint}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			scale := math.Pow(10, float64(args[1].I))
			return types.DoubleValue(math.Round(args[0].F*scale) / scale), nil
		},
	})
	register(&Builtin{
		Name: "mod", ArgTypes: []types.Type{types.Bigint, types.Bigint}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			if args[1].I == 0 {
				return types.Value{}, fmt.Errorf("division by zero")
			}
			return types.BigintValue(args[0].I % args[1].I), nil
		},
	})
	register(&Builtin{
		Name: "random", ArgTypes: nil, ReturnType: types.Double, Deterministic: false,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DoubleValue(rand.Float64()), nil
		},
	})
	register(&Builtin{
		Name: "greatest", ArgTypes: []types.Type{types.Unknown}, Variadic: true, ReturnType: types.Unknown, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			best := args[0]
			for _, a := range args[1:] {
				if a.Compare(best) > 0 {
					best = a
				}
			}
			return best, nil
		},
	})
	register(&Builtin{
		Name: "least", ArgTypes: []types.Type{types.Unknown}, Variadic: true, ReturnType: types.Unknown, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			best := args[0]
			for _, a := range args[1:] {
				if a.Compare(best) < 0 {
					best = a
				}
			}
			return best, nil
		},
	})

	// String functions.
	register(&Builtin{
		Name: "lower", ArgTypes: []types.Type{types.Varchar}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.VarcharValue(strings.ToLower(args[0].S)), nil
		},
	})
	register(&Builtin{
		Name: "upper", ArgTypes: []types.Type{types.Varchar}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.VarcharValue(strings.ToUpper(args[0].S)), nil
		},
	})
	register(&Builtin{
		Name: "length", ArgTypes: []types.Type{types.Varchar}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(int64(utf8.RuneCountInString(args[0].S))), nil
		},
	})
	register(&Builtin{
		Name: "trim", ArgTypes: []types.Type{types.Varchar}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.VarcharValue(strings.TrimSpace(args[0].S)), nil
		},
	})
	register(&Builtin{
		Name: "substr", ArgTypes: []types.Type{types.Varchar, types.Bigint, types.Bigint}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.VarcharValue(substr(args[0].S, args[1].I, args[2].I)), nil
		},
	})
	register(&Builtin{
		Name: "concat", ArgTypes: []types.Type{types.Varchar}, Variadic: true, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(a.S)
			}
			return types.VarcharValue(sb.String()), nil
		},
	})
	register(&Builtin{
		Name: "replace", ArgTypes: []types.Type{types.Varchar, types.Varchar, types.Varchar}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.VarcharValue(strings.ReplaceAll(args[0].S, args[1].S, args[2].S)), nil
		},
	})
	register(&Builtin{
		Name: "strpos", ArgTypes: []types.Type{types.Varchar, types.Varchar}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			i := strings.Index(args[0].S, args[1].S)
			if i < 0 {
				return types.BigintValue(0), nil
			}
			return types.BigintValue(int64(utf8.RuneCountInString(args[0].S[:i]) + 1)), nil
		},
	})
	register(&Builtin{
		Name: "reverse", ArgTypes: []types.Type{types.Varchar}, ReturnType: types.Varchar, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			rs := []rune(args[0].S)
			for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
				rs[i], rs[j] = rs[j], rs[i]
			}
			return types.VarcharValue(string(rs)), nil
		},
	})

	// NULL-handling functions.
	register(&Builtin{
		Name: "coalesce", ArgTypes: []types.Type{types.Unknown}, Variadic: true, ReturnType: types.Unknown,
		Deterministic: true, NullCall: true,
		Eval: func(args []types.Value) (types.Value, error) {
			for _, a := range args {
				if !a.Null {
					return a, nil
				}
			}
			return args[len(args)-1], nil
		},
	})
	register(&Builtin{
		Name: "nullif", ArgTypes: []types.Type{types.Unknown, types.Unknown}, ReturnType: types.Unknown,
		Deterministic: true, NullCall: true,
		Eval: func(args []types.Value) (types.Value, error) {
			if args[0].Null {
				return args[0], nil
			}
			if !args[1].Null && args[0].Equal(args[1]) {
				return types.NullValue(args[0].T), nil
			}
			return args[0], nil
		},
	})
	register(&Builtin{
		Name: "if", ArgTypes: []types.Type{types.Boolean, types.Unknown, types.Unknown}, ReturnType: types.Unknown,
		Deterministic: true, NullCall: true,
		Eval: func(args []types.Value) (types.Value, error) {
			if !args[0].Null && args[0].B {
				return args[1], nil
			}
			return args[2], nil
		},
	})

	// Date functions.
	register(&Builtin{
		Name: "year", ArgTypes: []types.Type{types.Date}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(types.DateYear(args[0].I)), nil
		},
	})
	register(&Builtin{
		Name: "month", ArgTypes: []types.Type{types.Date}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(types.DateMonth(args[0].I)), nil
		},
	})
	register(&Builtin{
		Name: "day", ArgTypes: []types.Type{types.Date}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(types.DateDay(args[0].I)), nil
		},
	})
	register(&Builtin{
		Name: "date_add", ArgTypes: []types.Type{types.Date, types.Bigint}, ReturnType: types.Date, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.DateValue(args[0].I + args[1].I), nil
		},
	})
	register(&Builtin{
		Name: "date_diff", ArgTypes: []types.Type{types.Date, types.Date}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(args[1].I - args[0].I), nil
		},
	})

	// Array functions (the paper's usability extension, §IV-A).
	register(&Builtin{
		Name: "cardinality", ArgTypes: []types.Type{types.Array}, ReturnType: types.Bigint, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			return types.BigintValue(int64(len(args[0].A))), nil
		},
	})
	register(&Builtin{
		Name: "array_sum", ArgTypes: []types.Type{types.Array}, ReturnType: types.Double, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			var s float64
			for _, v := range args[0].A {
				if v.Null {
					continue
				}
				if v.T == types.Double {
					s += v.F
				} else {
					s += float64(v.I)
				}
			}
			return types.DoubleValue(s), nil
		},
	})
	register(&Builtin{
		Name: "contains", ArgTypes: []types.Type{types.Array, types.Unknown}, ReturnType: types.Boolean, Deterministic: true,
		Eval: func(args []types.Value) (types.Value, error) {
			for _, v := range args[0].A {
				if !v.Null && v.Equal(args[1]) {
					return types.BooleanValue(true), nil
				}
			}
			return types.BooleanValue(false), nil
		},
	})
	// Higher-order functions: evaluated by the interpreter, which supplies
	// lambda application; Eval is never called directly.
	register(&Builtin{Name: "transform", ArgTypes: []types.Type{types.Array, types.Unknown}, ReturnType: types.Array, Deterministic: true, HigherOrder: true})
	register(&Builtin{Name: "filter", ArgTypes: []types.Type{types.Array, types.Unknown}, ReturnType: types.Array, Deterministic: true, HigherOrder: true})
	register(&Builtin{Name: "reduce", ArgTypes: []types.Type{types.Array, types.Unknown, types.Unknown}, ReturnType: types.Unknown, Deterministic: true, HigherOrder: true})
}

// substr is Presto's substr(s, start, length) over code points: start is
// 1-based and a negative start counts from the end; a start of 0 or before
// the beginning, or a length below 1, gives the empty string.
func substr(s string, start, length int64) string {
	if start < 0 {
		start += int64(utf8.RuneCountInString(s)) + 1
		if start < 1 {
			return ""
		}
	}
	if start == 0 || length <= 0 {
		return ""
	}
	i := advance(s, 0, start-1)
	return s[i:advance(s, i, length)]
}

// advance returns the byte offset n code points past byte offset i of s, or
// len(s) when s ends first.
func advance(s string, i int, n int64) int {
	for ; n > 0 && i < len(s); n-- {
		i += charLen(s, i)
	}
	return i
}
