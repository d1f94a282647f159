package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Statement is any top-level SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface {
	expr()
	String() string
}

// Relation is any table-producing FROM clause element.
type Relation interface{ relation() }

// --- Statements ---

// Query is a full query: optional WITH, a body (SELECT or set operation),
// ORDER BY, and LIMIT/OFFSET.
type Query struct {
	With    []*CTE
	Body    QueryBody
	OrderBy []*SortItem
	Limit   int64 // -1 if absent
	Offset  int64 // 0 if absent
}

func (*Query) stmt() {}

// QueryBody is either a Select or a SetOp.
type QueryBody interface{ queryBody() }

// CTE is one WITH-clause entry.
type CTE struct {
	Name  string
	Query *Query
}

// Select is a SELECT ... FROM ... WHERE ... GROUP BY ... HAVING block.
type Select struct {
	Distinct bool
	Items    []*SelectItem
	From     Relation // nil means SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

func (*Select) queryBody() {}

// SetOp is UNION [ALL] / EXCEPT / INTERSECT over two bodies.
type SetOp struct {
	Op    string // "UNION", "EXCEPT", "INTERSECT"
	All   bool
	Left  QueryBody
	Right QueryBody
}

func (*SetOp) queryBody() {}

// SelectItem is one projection: expression with optional alias, or a
// wildcard (optionally qualified).
type SelectItem struct {
	Expr      Expr   // nil for wildcard
	Alias     string // "" if none
	Wildcard  bool
	Qualifier string // for t.* wildcards
}

// SortItem is one ORDER BY element.
type SortItem struct {
	Expr       Expr
	Descending bool
	NullsFirst bool
}

// CreateTable is CREATE TABLE name [(col type, ...)] [AS query].
type CreateTable struct {
	Name        QualifiedName
	Columns     []ColumnDef
	AsQuery     *Query
	IfNotExists bool
}

func (*CreateTable) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string
}

// InsertInto is INSERT INTO name [(cols)] query.
type InsertInto struct {
	Name    QualifiedName
	Columns []string
	Query   *Query
}

func (*InsertInto) stmt() {}

// Explain wraps a statement for EXPLAIN [ANALYZE].
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

// ShowTables lists tables in the current (or named) catalog.
type ShowTables struct{ Catalog string }

func (*ShowTables) stmt() {}

// ShowCatalogs lists registered catalogs.
type ShowCatalogs struct{}

func (*ShowCatalogs) stmt() {}

// Describe shows a table's columns and types.
type Describe struct{ Name QualifiedName }

func (*Describe) stmt() {}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     QualifiedName
	IfExists bool
}

func (*DropTable) stmt() {}

// --- Relations ---

// QualifiedName is a dotted name: catalog.schema.table or shorter.
type QualifiedName struct{ Parts []string }

// String joins the parts with dots.
func (q QualifiedName) String() string { return strings.Join(q.Parts, ".") }

// TableRef is a named table with an optional alias.
type TableRef struct {
	Name  QualifiedName
	Alias string
}

func (*TableRef) relation() {}

// SubqueryRel is a parenthesized query in FROM, with required alias and
// optional column aliases.
type SubqueryRel struct {
	Query      *Query
	Alias      string
	ColAliases []string
}

func (*SubqueryRel) relation() {}

// Join combines two relations.
type Join struct {
	Type  string // "INNER", "LEFT", "RIGHT", "FULL", "CROSS"
	Left  Relation
	Right Relation
	On    Expr     // nil for CROSS or USING
	Using []string // non-empty for USING joins
}

func (*Join) relation() {}

// ValuesRel is VALUES (..), (..) used as a relation, with optional column
// aliases: VALUES (...) AS t (a, b).
type ValuesRel struct {
	Rows       [][]Expr
	Alias      string
	ColAliases []string
}

func (*ValuesRel) relation() {}

// --- Expressions ---

// Ident is a possibly-qualified column reference.
type Ident struct{ Parts []string }

func (*Ident) expr()            {}
func (e *Ident) String() string { return format(e, false) }

// NumberLit is an integer or decimal literal. Slot is the plan-cache slot
// the literal was lifted into (0: none), here and on StringLit and DateLit.
type NumberLit struct {
	Text      string
	IsInteger bool
	Slot      int
}

func (*NumberLit) expr()            {}
func (e *NumberLit) String() string { return format(e, false) }

// StringLit is a character literal.
type StringLit struct {
	Val  string
	Slot int
}

func (*StringLit) expr()            {}
func (e *StringLit) String() string { return format(e, false) }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) expr()            {}
func (e *BoolLit) String() string { return format(e, false) }

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) expr()            {}
func (e *NullLit) String() string { return format(e, false) }

// DateLit is DATE 'YYYY-MM-DD'; a lifted one's slot offset is the DATE
// keyword's.
type DateLit struct {
	Text string
	Slot int
}

func (*DateLit) expr()            {}
func (e *DateLit) String() string { return format(e, false) }

// IntervalLit is INTERVAL 'n' DAY (days only; enough for TPC-style predicates).
type IntervalLit struct {
	Value int64
	Unit  string // "DAY", "MONTH", "YEAR"
}

func (*IntervalLit) expr()            {}
func (e *IntervalLit) String() string { return format(e, false) }

// BinaryExpr is a binary operation: arithmetic, comparison, AND/OR, ||.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr()            {}
func (e *BinaryExpr) String() string { return format(e, false) }

// UnaryExpr is NOT x or -x or +x.
type UnaryExpr struct {
	Op   string
	Expr Expr
}

func (*UnaryExpr) expr()            {}
func (e *UnaryExpr) String() string { return format(e, false) }

// FuncCall is a function or aggregate invocation, possibly with OVER clause.
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool // COUNT(*)
	Over     *WindowSpec
}

func (*FuncCall) expr()            {}
func (e *FuncCall) String() string { return format(e, false) }

// WindowSpec is the OVER clause of a window function.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []*SortItem
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN branch.
type WhenClause struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr()            {}
func (e *CaseExpr) String() string { return format(e, false) }

// CastExpr is CAST(x AS type).
type CastExpr struct {
	Expr Expr
	Type string
}

func (*CastExpr) expr()            {}
func (e *CastExpr) String() string { return format(e, false) }

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr()            {}
func (e *IsNullExpr) String() string { return format(e, false) }

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	Expr     Expr
	List     []Expr
	Subquery *Query
	Not      bool
}

func (*InExpr) expr()            {}
func (e *InExpr) String() string { return format(e, false) }

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (*BetweenExpr) expr()            {}
func (e *BetweenExpr) String() string { return format(e, false) }

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	Expr    Expr
	Pattern Expr
	Not     bool
}

func (*LikeExpr) expr()            {}
func (e *LikeExpr) String() string { return format(e, false) }

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Subquery *Query
	Not      bool
}

func (*ExistsExpr) expr()            {}
func (e *ExistsExpr) String() string { return format(e, false) }

// ScalarSubquery is a parenthesized query used as a scalar.
type ScalarSubquery struct{ Query *Query }

func (*ScalarSubquery) expr()            {}
func (e *ScalarSubquery) String() string { return format(e, false) }

// LambdaExpr is the paper's anonymous-function extension: x -> body or
// (x, y) -> body, usable as an argument to higher-order functions.
type LambdaExpr struct {
	Params []string
	Body   Expr
}

func (*LambdaExpr) expr()            {}
func (e *LambdaExpr) String() string { return format(e, false) }

// ArrayLit is ARRAY[e1, e2, ...].
type ArrayLit struct{ Elems []Expr }

func (*ArrayLit) expr()            {}
func (e *ArrayLit) String() string { return format(e, false) }

// SubscriptExpr is arr[idx] (1-based, per SQL convention).
type SubscriptExpr struct {
	Base  Expr
	Index Expr
}

func (*SubscriptExpr) expr()            {}
func (e *SubscriptExpr) String() string { return format(e, false) }

// Key is the OVER clause's identity, as Key is an expression's.
func (w *WindowSpec) Key() string { return w.format(true) }

func (w *WindowSpec) format(key bool) string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		parts = append(parts, "PARTITION BY "+list(w.PartitionBy, key))
	}
	items := make([]string, len(w.OrderBy))
	for i, s := range w.OrderBy {
		items[i] = format(s.Expr, key)
		if s.Descending {
			items[i] += " DESC"
		}
		if s.NullsFirst {
			items[i] += " NULLS FIRST"
		}
	}
	if len(items) > 0 {
		parts = append(parts, "ORDER BY "+strings.Join(items, ", "))
	}
	return strings.Join(parts, " ")
}

// Key is e's identity: two expressions have one key exactly when they are the
// same tree, literal slots aside. The analyzer matches aggregates, GROUP BY
// keys, window calls and scalar subqueries by it.
func Key(e Expr) string { return format(e, true) }

// format is the one writer of a parse tree. It prints every field but a
// literal's plan-cache slot. Display mode (key false) is String's, for
// messages: a subquery prints as "(subquery)". Key mode is Key's: a subquery
// prints a token unique to its node, so two subqueries never match.
func format(e Expr, key bool) string {
	f := func(e Expr) string { return format(e, key) }
	switch x := e.(type) {
	case *Ident:
		return names(x.Parts, ".")
	case *NumberLit:
		return x.Text
	case *StringLit:
		return quote(x.Val, "'")
	case *BoolLit:
		return strings.ToUpper(strconv.FormatBool(x.Val))
	case *NullLit:
		return "NULL"
	case *DateLit:
		return "DATE " + quote(x.Text, "'")
	case *IntervalLit:
		return fmt.Sprintf("INTERVAL '%d' %s", x.Value, x.Unit)
	case *BinaryExpr:
		return "(" + f(x.Left) + " " + x.Op + " " + f(x.Right) + ")"
	case *UnaryExpr:
		return "(" + x.Op + " " + f(x.Expr) + ")"
	case *FuncCall:
		s := quoteName(x.Name, false) + "("
		if x.Star {
			s += "*"
		}
		if x.Distinct {
			s += "DISTINCT "
		}
		s += list(x.Args, key) + ")"
		if x.Over != nil {
			s += " OVER (" + x.Over.format(key) + ")"
		}
		return s
	case *CaseExpr:
		s := "CASE"
		if x.Operand != nil {
			s += " " + f(x.Operand)
		}
		for _, w := range x.Whens {
			s += " WHEN " + f(w.Cond) + " THEN " + f(w.Then)
		}
		if x.Else != nil {
			s += " ELSE " + f(x.Else)
		}
		return s + " END"
	case *CastExpr:
		return "CAST(" + f(x.Expr) + " AS " + quoteName(x.Type, false) + ")"
	case *IsNullExpr:
		return "(" + f(x.Expr) + " IS " + not(x.Not) + "NULL)"
	case *InExpr:
		if x.Subquery != nil {
			return "(" + f(x.Expr) + " " + not(x.Not) + "IN " + subquery(x.Subquery, key) + ")"
		}
		return "(" + f(x.Expr) + " " + not(x.Not) + "IN (" + list(x.List, key) + "))"
	case *BetweenExpr:
		return "(" + f(x.Expr) + " " + not(x.Not) + "BETWEEN " + f(x.Lo) + " AND " + f(x.Hi) + ")"
	case *LikeExpr:
		return "(" + f(x.Expr) + " " + not(x.Not) + "LIKE " + f(x.Pattern) + ")"
	case *ExistsExpr:
		return "(" + not(x.Not) + "EXISTS " + subquery(x.Subquery, key) + ")"
	case *ScalarSubquery:
		return subquery(x.Query, key)
	case *LambdaExpr:
		return "((" + names(x.Params, ", ") + ") -> " + f(x.Body) + ")"
	case *ArrayLit:
		return "ARRAY[" + list(x.Elems, key) + "]"
	case *SubscriptExpr:
		return f(x.Base) + "[" + f(x.Index) + "]"
	}
	return fmt.Sprintf("%T", e)
}

func list(es []Expr, key bool) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = format(e, key)
	}
	return strings.Join(parts, ", ")
}

func not(negate bool) string {
	if negate {
		return "NOT "
	}
	return ""
}

// subquery prints "(subquery)", and in key mode a token that names the query
// node itself.
func subquery(q *Query, key bool) string {
	if key {
		return fmt.Sprintf("(subquery %p)", q)
	}
	return "(subquery)"
}

// names prints column or parameter names, each as quoteName does.
func names(ns []string, sep string) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = quoteName(n, true)
	}
	return strings.Join(parts, sep)
}

// quoteName prints an identifier bare when the lexer reads it back as that
// identifier, else double-quoted. A column name is quoted when it spells a
// keyword, or ARRAY, which would read as a literal before '['.
func quoteName(name string, column bool) string {
	bare := name != "" && !(column && (keywords[strings.ToUpper(name)] || strings.EqualFold(name, "array")))
	for i, r := range name {
		bare = bare && (r == '_' || unicode.IsLetter(r) || i > 0 && (r == '$' || unicode.IsDigit(r)))
	}
	if bare {
		return name
	}
	return quote(name, `"`)
}

// quote wraps s in q, doubling each q inside, as the lexer reads it back.
func quote(s, q string) string { return q + strings.ReplaceAll(s, q, q+q) + q }
