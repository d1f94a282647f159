package sqlparser

import (
	"fmt"
	"strings"
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

func (*Ident) expr() {}
func (e *Ident) String() string {
	return strings.Join(e.Parts, ".")
}

// NumberLit is an integer or decimal literal. Slot is the plan-cache slot
// the literal was lifted into (0: none), here and on StringLit and DateLit.
type NumberLit struct {
	Text      string
	IsInteger bool
	Slot      int
}

func (*NumberLit) expr()            {}
func (e *NumberLit) String() string { return e.Text }

// StringLit is a character literal.
type StringLit struct {
	Val  string
	Slot int
}

func (*StringLit) expr()            {}
func (e *StringLit) String() string { return "'" + e.Val + "'" }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) expr() {}
func (e *BoolLit) String() string {
	if e.Val {
		return "TRUE"
	}
	return "FALSE"
}

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) expr()            {}
func (e *NullLit) String() string { return "NULL" }

// DateLit is DATE 'YYYY-MM-DD'; a lifted one's slot offset is the DATE
// keyword's.
type DateLit struct {
	Text string
	Slot int
}

func (*DateLit) expr()            {}
func (e *DateLit) String() string { return "DATE '" + e.Text + "'" }

// IntervalLit is INTERVAL 'n' DAY (days only; enough for TPC-style predicates).
type IntervalLit struct {
	Value int64
	Unit  string // "DAY", "MONTH", "YEAR"
}

func (*IntervalLit) expr() {}
func (e *IntervalLit) String() string {
	return fmt.Sprintf("INTERVAL '%d' %s", e.Value, e.Unit)
}

// BinaryExpr is a binary operation: arithmetic, comparison, AND/OR, ||.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}
func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
}

// UnaryExpr is NOT x or -x or +x.
type UnaryExpr struct {
	Op   string
	Expr Expr
}

func (*UnaryExpr) expr()            {}
func (e *UnaryExpr) String() string { return "(" + e.Op + " " + e.Expr.String() + ")" }

// FuncCall is a function or aggregate invocation, possibly with OVER clause.
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool // COUNT(*)
	Over     *WindowSpec
}

func (*FuncCall) expr() {}
func (e *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name)
	sb.WriteString("(")
	if e.Star {
		sb.WriteString("*")
	}
	if e.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, a := range e.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(")")
	if e.Over != nil {
		sb.WriteString(" OVER (...)")
	}
	return sb.String()
}

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
func (e *CaseExpr) String() string { return "CASE ... END" }

// CastExpr is CAST(x AS type).
type CastExpr struct {
	Expr Expr
	Type string
}

func (*CastExpr) expr() {}
func (e *CastExpr) String() string {
	return "CAST(" + e.Expr.String() + " AS " + e.Type + ")"
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr() {}
func (e *IsNullExpr) String() string {
	if e.Not {
		return e.Expr.String() + " IS NOT NULL"
	}
	return e.Expr.String() + " IS NULL"
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	Expr     Expr
	List     []Expr
	Subquery *Query
	Not      bool
}

func (*InExpr) expr()            {}
func (e *InExpr) String() string { return e.Expr.String() + " IN (...)" }

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (*BetweenExpr) expr() {}
func (e *BetweenExpr) String() string {
	return e.Expr.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	Expr    Expr
	Pattern Expr
	Not     bool
}

func (*LikeExpr) expr() {}
func (e *LikeExpr) String() string {
	return e.Expr.String() + " LIKE " + e.Pattern.String()
}

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Subquery *Query
	Not      bool
}

func (*ExistsExpr) expr()            {}
func (e *ExistsExpr) String() string { return "EXISTS (...)" }

// ScalarSubquery is a parenthesized query used as a scalar.
type ScalarSubquery struct{ Query *Query }

func (*ScalarSubquery) expr()            {}
func (e *ScalarSubquery) String() string { return "(subquery)" }

// LambdaExpr is the paper's anonymous-function extension: x -> body or
// (x, y) -> body, usable as an argument to higher-order functions.
type LambdaExpr struct {
	Params []string
	Body   Expr
}

func (*LambdaExpr) expr() {}
func (e *LambdaExpr) String() string {
	return "(" + strings.Join(e.Params, ", ") + ") -> " + e.Body.String()
}

// ArrayLit is ARRAY[e1, e2, ...].
type ArrayLit struct{ Elems []Expr }

func (*ArrayLit) expr()            {}
func (e *ArrayLit) String() string { return "ARRAY[...]" }

// SubscriptExpr is arr[idx] (1-based, per SQL convention).
type SubscriptExpr struct {
	Base  Expr
	Index Expr
}

func (*SubscriptExpr) expr() {}
func (e *SubscriptExpr) String() string {
	return e.Base.String() + "[" + e.Index.String() + "]"
}
