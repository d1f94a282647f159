// Package types defines the SQL type system and boxed runtime values used by
// the engine's analyzer and expression interpreter. The columnar execution
// path (package block) stores data unboxed; Value is the slow-path/boundary
// representation.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies a SQL type supported by the engine.
type Type int

// Supported SQL types. Unknown is the type of a bare NULL literal before
// coercion.
const (
	Unknown Type = iota
	Boolean
	Bigint
	Double
	Varchar
	Date  // days since epoch, stored as int64
	Array // array of Values; element type is not tracked at runtime
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Boolean:
		return "BOOLEAN"
	case Bigint:
		return "BIGINT"
	case Double:
		return "DOUBLE"
	case Varchar:
		return "VARCHAR"
	case Date:
		return "DATE"
	case Array:
		return "ARRAY"
	default:
		return "UNKNOWN"
	}
}

// Valid reports whether t is one of the types above.
func (t Type) Valid() bool { return t >= Unknown && t <= Array }

// ParseType parses a SQL type name as used in CAST and CREATE TABLE.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "BOOLEAN", "BOOL":
		return Boolean, nil
	case "BIGINT", "INTEGER", "INT", "SMALLINT", "TINYINT":
		return Bigint, nil
	case "DOUBLE", "REAL", "FLOAT", "DECIMAL":
		return Double, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR":
		return Varchar, nil
	case "DATE":
		return Date, nil
	case "ARRAY":
		return Array, nil
	default:
		return Unknown, fmt.Errorf("unknown type %q", s)
	}
}

// FixedWidth reports whether values of the type have a fixed in-memory size.
func (t Type) FixedWidth() bool {
	switch t {
	case Boolean, Bigint, Double, Date:
		return true
	default:
		return false
	}
}

// Comparable reports whether values of the type support ordering comparisons.
func (t Type) Comparable() bool { return t != Array && t != Unknown }

// Value is a boxed SQL value. The zero Value is SQL NULL of Unknown type.
type Value struct {
	T    Type
	Null bool
	I    int64   // Bigint, Date
	F    float64 // Double
	S    string  // Varchar
	B    bool    // Boolean
	A    []Value // Array
}

// NullValue returns a typed SQL NULL.
func NullValue(t Type) Value { return Value{T: t, Null: true} }

// BigintValue boxes an int64.
func BigintValue(v int64) Value { return Value{T: Bigint, I: v} }

// DoubleValue boxes a float64.
func DoubleValue(v float64) Value { return Value{T: Double, F: v} }

// VarcharValue boxes a string.
func VarcharValue(v string) Value { return Value{T: Varchar, S: v} }

// BooleanValue boxes a bool.
func BooleanValue(v bool) Value { return Value{T: Boolean, B: v} }

// DateValue boxes a date expressed as days since the Unix epoch.
func DateValue(days int64) Value { return Value{T: Date, I: days} }

// ArrayValue boxes a slice of values.
func ArrayValue(vs []Value) Value { return Value{T: Array, A: vs} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// String renders the value the way the CLI prints result cells.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case Boolean:
		return strconv.FormatBool(v.B)
	case Bigint:
		return strconv.FormatInt(v.I, 10)
	case Double:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Varchar:
		return v.S
	case Date:
		return FormatDate(v.I)
	case Array:
		parts := make([]string, len(v.A))
		for i, e := range v.A {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

// Equal reports SQL equality between two non-null values of the same type.
// Callers must handle NULL semantics before calling.
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return false
	}
	switch v.T {
	case Boolean:
		return o.T == Boolean && v.B == o.B
	case Bigint, Date:
		if o.T == Double {
			return float64(v.I) == o.F
		}
		return v.I == o.I
	case Double:
		if o.T == Bigint || o.T == Date {
			return v.F == float64(o.I)
		}
		return v.F == o.F
	case Varchar:
		return v.S == o.S
	case Array:
		if o.T != Array || len(v.A) != len(o.A) {
			return false
		}
		for i := range v.A {
			if v.A[i].Null != o.A[i].Null {
				return false
			}
			if !v.A[i].Null && !v.A[i].Equal(o.A[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two non-null values: -1, 0, or +1. Numeric types compare
// across Bigint/Double. Panics on incomparable types; the analyzer prevents
// that from being reachable from SQL.
func (v Value) Compare(o Value) int {
	switch v.T {
	case Bigint, Date:
		if o.T == Double {
			return compareFloat(float64(v.I), o.F)
		}
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case Double:
		of := o.F
		if o.T == Bigint || o.T == Date {
			of = float64(o.I)
		}
		return compareFloat(v.F, of)
	case Varchar:
		return strings.Compare(v.S, o.S)
	case Boolean:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("values of type %s are not comparable", v.T))
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Coerce converts the value to target, applying the implicit coercion rules
// used by the analyzer (Bigint→Double, Date→Varchar rendering, anything→same).
func (v Value) Coerce(target Type) (Value, error) {
	if v.Null {
		return NullValue(target), nil
	}
	if v.T == target {
		return v, nil
	}
	switch target {
	case Double:
		if v.T == Bigint || v.T == Date {
			return DoubleValue(float64(v.I)), nil
		}
	case Bigint:
		if v.T == Double {
			return BigintValue(int64(v.F)), nil
		}
		if v.T == Date {
			return BigintValue(v.I), nil
		}
	case Varchar:
		return VarcharValue(v.String()), nil
	case Date:
		if v.T == Bigint {
			return DateValue(v.I), nil
		}
	}
	return Value{}, fmt.Errorf("cannot coerce %s to %s", v.T, target)
}

// Cast applies explicit CAST semantics, which are a superset of Coerce
// (e.g. VARCHAR to numeric parses the text).
func (v Value) Cast(target Type) (Value, error) {
	if v.Null {
		return NullValue(target), nil
	}
	if v.T == target {
		return v, nil
	}
	if v.T == Varchar {
		s := strings.TrimSpace(v.S)
		switch target {
		case Bigint:
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to BIGINT", v.S)
			}
			return BigintValue(i), nil
		case Double:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to DOUBLE", v.S)
			}
			return DoubleValue(f), nil
		case Boolean:
			switch strings.ToLower(s) {
			case "true", "t", "1":
				return BooleanValue(true), nil
			case "false", "f", "0":
				return BooleanValue(false), nil
			}
			return Value{}, fmt.Errorf("cannot cast %q to BOOLEAN", v.S)
		case Date:
			d, err := ParseDate(s)
			if err != nil {
				return Value{}, err
			}
			return DateValue(d), nil
		}
	}
	if v.T == Boolean && target == Bigint {
		if v.B {
			return BigintValue(1), nil
		}
		return BigintValue(0), nil
	}
	return v.Coerce(target)
}

// CommonType returns the type both operands coerce to for comparison or
// arithmetic, or Unknown if none exists.
func CommonType(a, b Type) Type {
	if a == b {
		return a
	}
	if a == Unknown {
		return b
	}
	if b == Unknown {
		return a
	}
	if (a == Bigint && b == Double) || (a == Double && b == Bigint) {
		return Double
	}
	if (a == Date && b == Varchar) || (a == Varchar && b == Date) {
		return Date
	}
	if (a == Date && b == Bigint) || (a == Bigint && b == Date) {
		return Bigint
	}
	return Unknown
}

// CanCoerce reports whether an implicit coercion from one type to another is
// allowed by the analyzer.
func CanCoerce(from, to Type) bool {
	if from == to || from == Unknown {
		return true
	}
	switch {
	case from == Bigint && to == Double:
		return true
	case from == Varchar && to == Date:
		return true
	case from == Date && to == Bigint:
		return true
	case from == Bigint && to == Date:
		return true
	}
	return false
}
