package expr

import "strings"

// CanonicalKey renders e and its type unambiguously: two expressions with one
// key compute the same value from the same row, if they are deterministic.
func CanonicalKey(e Expr) string { return e.Type().String() + "|" + canonicalKey(e) }

// canonicalKey renders e unambiguously. Expr.String is close, but a few
// nodes render degenerately for EXPLAIN (Case prints "CASE(...)",
// ArrayCtor "ARRAY[...]", Lambda "<lambda>"), which would merge distinct
// subtrees, so every composite node is expanded recursively here and only
// leaves fall back to String.
func canonicalKey(e Expr) string {
	switch x := e.(type) {
	case *Arith:
		return "(" + canonicalKey(x.L) + " " + x.Op.String() + " " + canonicalKey(x.R) + "):" + x.T.String()
	case *Neg:
		return "(-" + canonicalKey(x.E) + ")"
	case *Compare:
		return "(" + canonicalKey(x.L) + " " + x.Op.String() + " " + canonicalKey(x.R) + ")"
	case *And:
		return "(" + canonicalKey(x.L) + " AND " + canonicalKey(x.R) + ")"
	case *Or:
		return "(" + canonicalKey(x.L) + " OR " + canonicalKey(x.R) + ")"
	case *Not:
		return "(NOT " + canonicalKey(x.E) + ")"
	case *IsNull:
		if x.Negate {
			return "(" + canonicalKey(x.E) + " IS NOT NULL)"
		}
		return "(" + canonicalKey(x.E) + " IS NULL)"
	case *In:
		parts := make([]string, len(x.List))
		for i, el := range x.List {
			parts[i] = canonicalKey(el)
		}
		neg := ""
		if x.Negate {
			neg = "NOT "
		}
		return "(" + canonicalKey(x.E) + " " + neg + "IN (" + strings.Join(parts, ", ") + "))"
	case *Between:
		neg := ""
		if x.Negate {
			neg = "NOT "
		}
		return "(" + canonicalKey(x.E) + " " + neg + "BETWEEN " + canonicalKey(x.Lo) + " AND " + canonicalKey(x.Hi) + ")"
	case *Like:
		neg := ""
		if x.Negate {
			neg = "NOT "
		}
		return "(" + canonicalKey(x.E) + " " + neg + "LIKE " + canonicalKey(x.Pattern) + ")"
	case *Case:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + canonicalKey(w.Cond) + " THEN " + canonicalKey(w.Then))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + canonicalKey(x.Else))
		}
		sb.WriteString(" END:" + x.T.String())
		return sb.String()
	case *Cast:
		return "CAST(" + canonicalKey(x.E) + " AS " + x.T.String() + ")"
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = canonicalKey(a)
		}
		return x.Fn.Name + "(" + strings.Join(parts, ", ") + ")"
	case *Lambda:
		return "<lambda " + canonicalKey(x.Body) + ">"
	case *Subscript:
		return canonicalKey(x.Base) + "[" + canonicalKey(x.Index) + "]"
	case *ArrayCtor:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = canonicalKey(el)
		}
		return "ARRAY[" + strings.Join(parts, ", ") + "]"
	default:
		return e.String()
	}
}
