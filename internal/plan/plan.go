// Package plan defines the logical plan intermediate representation produced
// by the planner (paper §IV-B3): a tree of plan nodes, each representing one
// logical or physical operation, whose children are its inputs. It also
// defines plan fragments — the stages of a distributed plan connected by
// shuffles (§IV-C3).
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
)

// Field is one named, typed output column of a plan node.
type Field struct {
	Name string
	T    types.Type
}

// Schema is the ordered output row type of a plan node.
type Schema []Field

// String renders the schema for EXPLAIN.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = fmt.Sprintf("%s:%s", f.Name, f.T)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Types returns the column types.
func (s Schema) Types() []types.Type {
	ts := make([]types.Type, len(s))
	for i, f := range s {
		ts[i] = f.T
	}
	return ts
}

// Node is a logical plan node.
type Node interface {
	// Schema returns the node's output row type.
	Schema() Schema
	// Children returns the node's inputs.
	Children() []Node
	// WithChildren returns a copy with the inputs replaced.
	WithChildren(children []Node) Node
	// Describe returns a one-line description for EXPLAIN.
	Describe() string
}

// TableHandle identifies a connector table plus any pushed-down constraint
// and the chosen layout; it is opaque to the engine core and interpreted by
// the connector.
type TableHandle struct {
	Catalog string
	Table   string
	// Layout names the data layout chosen by the optimizer ("" = default).
	Layout string
	// Constraint carries pushed-down conjuncts in connector-evaluable form.
	Constraint *Domain
}

// String renders the handle.
func (h TableHandle) String() string {
	s := h.Catalog + "." + h.Table
	if h.Layout != "" {
		s += "@" + h.Layout
	}
	if h.Constraint != nil && !h.Constraint.All() {
		s += " " + h.Constraint.String()
	}
	return s
}

// ScanDynFilter subscribes a scan column to a runtime dynamic join filter:
// when the summary with the matching ID arrives from the join build, it runs
// as an extra predicate over column Col and as min/max bounds for stripe and
// split skipping. Assignment happens after fragmentation (see
// optimizer.assignDynamicFilters); a filter that never arrives degrades to an
// unfiltered scan.
type ScanDynFilter struct {
	ID  int
	Col int
	// ShortCircuit permits dropping the scan's remaining splits outright
	// when the filter arrives empty (zero joinable build keys). Set for
	// INNER/SEMI consumers only: a RIGHT join still emits unmatched build
	// rows through its probe pipeline, so its scans must keep running (the
	// per-row filter drops their rows anyway).
	ShortCircuit bool
}

// Scan reads a table through a connector.
type Scan struct {
	Handle TableHandle
	// Columns are connector column names, aligned with Out.
	Columns []string
	Out     Schema
	// DynFilters lists the runtime join filters this scan consumes.
	DynFilters []ScanDynFilter
}

func (n *Scan) Schema() Schema             { return n.Out }
func (n *Scan) Children() []Node           { return nil }
func (n *Scan) WithChildren(c []Node) Node { cp := *n; return &cp }
func (n *Scan) Describe() string {
	s := "Scan[" + n.Handle.String() + "]"
	if len(n.DynFilters) > 0 {
		parts := make([]string, len(n.DynFilters))
		for i, df := range n.DynFilters {
			parts[i] = fmt.Sprintf("%d@%s", df.ID, n.Out[df.Col].Name)
		}
		s += " dynfilters=[" + strings.Join(parts, ",") + "]"
	}
	return s
}

// Filter keeps rows where Predicate is true.
type Filter struct {
	Input     Node
	Predicate expr.Expr
}

func (n *Filter) Schema() Schema { return n.Input.Schema() }
func (n *Filter) Children() []Node {
	return []Node{n.Input}
}
func (n *Filter) WithChildren(c []Node) Node {
	return &Filter{Input: c[0], Predicate: n.Predicate}
}
func (n *Filter) Describe() string { return "Filter[" + n.Predicate.String() + "]" }

// Project computes output columns from input columns.
type Project struct {
	Input Node
	Exprs []expr.Expr
	Out   Schema
}

func (n *Project) Schema() Schema   { return n.Out }
func (n *Project) Children() []Node { return []Node{n.Input} }
func (n *Project) WithChildren(c []Node) Node {
	return &Project{Input: c[0], Exprs: n.Exprs, Out: n.Out}
}
func (n *Project) Describe() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "Project[" + strings.Join(parts, ", ") + "]"
}

// AggStep distinguishes single-step, partial, and final aggregation.
type AggStep int

// Aggregation steps (partial/final implement the two-phase distributed
// aggregation of Fig. 3).
const (
	AggSingle AggStep = iota
	AggPartial
	AggFinal
)

func (s AggStep) String() string {
	return [...]string{"SINGLE", "PARTIAL", "FINAL"}[s]
}

// Valid reports whether s is one of the steps above.
func (s AggStep) Valid() bool { return s >= AggSingle && s <= AggFinal }

// AggFunc names a supported aggregate function.
type AggFunc string

// Supported aggregate functions.
const (
	AggCount    AggFunc = "count"
	AggCountAll AggFunc = "count_all" // COUNT(*)
	// AggCountMerge sums partial COUNT columns in a final aggregation stage.
	// Unlike AggSum it yields 0 (not NULL) over empty input, preserving
	// COUNT's semantics when no partial rows arrive (e.g. every split of the
	// probe side was pruned away).
	AggCountMerge AggFunc = "count_merge"
	AggSum        AggFunc = "sum"
	AggAvg        AggFunc = "avg"
	AggMin        AggFunc = "min"
	AggMax        AggFunc = "max"
)

// Valid reports whether f is one of the functions above.
func (f AggFunc) Valid() bool {
	return slices.Contains([]AggFunc{AggCount, AggCountAll, AggCountMerge, AggSum, AggAvg, AggMin, AggMax}, f)
}

// Aggregate is one aggregate computation within an Aggregation node.
type Aggregate struct {
	Func     AggFunc
	Arg      expr.Expr `wire:"optional"` // nil for COUNT(*)
	Distinct bool
	Out      types.Type
}

// String renders the aggregate for EXPLAIN.
func (a Aggregate) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return string(a.Func) + "(" + d + arg + ")"
}

// Aggregation groups by key expressions and computes aggregates.
type Aggregation struct {
	Input      Node
	GroupBy    []expr.Expr // over input schema
	Aggregates []Aggregate
	Step       AggStep
	Out        Schema // group-by fields then aggregate fields
}

func (n *Aggregation) Schema() Schema   { return n.Out }
func (n *Aggregation) Children() []Node { return []Node{n.Input} }
func (n *Aggregation) WithChildren(c []Node) Node {
	cp := *n
	cp.Input = c[0]
	return &cp
}
func (n *Aggregation) Describe() string {
	keys := make([]string, len(n.GroupBy))
	for i, k := range n.GroupBy {
		keys[i] = k.String()
	}
	aggs := make([]string, len(n.Aggregates))
	for i, a := range n.Aggregates {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("Aggregate(%s)[keys=(%s) aggs=(%s)]", n.Step, strings.Join(keys, ", "), strings.Join(aggs, ", "))
}

// JoinType enumerates join semantics.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	RightJoin
	FullJoin
	CrossJoin
)

func (t JoinType) String() string {
	if s, ok := joinTypeString(t); ok {
		return s
	}
	return [...]string{"INNER", "LEFT", "RIGHT", "FULL", "CROSS"}[t]
}

// Valid reports whether t is one of the join types above or in subquery.go.
func (t JoinType) Valid() bool {
	return t >= InnerJoin && t <= CrossJoin || t == SemiJoin || t == AntiJoin
}

// JoinStrategy is the physical distribution strategy chosen by the
// cost-based optimizer (§IV-C): broadcast replicates the build side to every
// node; partitioned shuffles both sides on the join key; colocated uses the
// connector's matching data layout to avoid shuffles entirely; index probes
// a connector index per row.
type JoinStrategy int

// Join strategies.
const (
	StrategyUnset JoinStrategy = iota
	StrategyBroadcast
	StrategyPartitioned
	StrategyColocated
	StrategyIndex
)

func (s JoinStrategy) String() string {
	return [...]string{"UNSET", "BROADCAST", "PARTITIONED", "COLOCATED", "INDEX"}[s]
}

// Valid reports whether s is one of the strategies above.
func (s JoinStrategy) Valid() bool { return s >= StrategyUnset && s <= StrategyIndex }

// EquiClause is one equality conjunct of a join condition: left column index
// (in Left schema) equals right column index (in Right schema).
type EquiClause struct {
	Left  int
	Right int
}

// JoinDynFilter asks a hash-join build to collect and publish a runtime
// summary of the build keys of equi clause KeyIdx under filter ID (consumed
// by the probe-side scans subscribed via ScanDynFilter).
type JoinDynFilter struct {
	ID     int
	KeyIdx int
}

// Join combines two inputs. Equi carries the equality clauses; Residual is
// any remaining non-equi condition evaluated over the concatenated schema.
type Join struct {
	Type     JoinType
	Left     Node
	Right    Node
	Equi     []EquiClause
	Residual expr.Expr `wire:"optional"` // nil when every condition is an equi clause
	Strategy JoinStrategy
	Out      Schema
	// DynFilters lists the runtime filters this join's build side publishes.
	DynFilters []JoinDynFilter
}

func (n *Join) Schema() Schema   { return n.Out }
func (n *Join) Children() []Node { return []Node{n.Left, n.Right} }
func (n *Join) WithChildren(c []Node) Node {
	cp := *n
	cp.Left, cp.Right = c[0], c[1]
	return &cp
}
func (n *Join) Describe() string {
	parts := make([]string, len(n.Equi))
	for i, e := range n.Equi {
		parts[i] = fmt.Sprintf("$%d=$%d", e.Left, e.Right)
	}
	s := fmt.Sprintf("%sJoin[%s]", n.Type, strings.Join(parts, " AND "))
	if n.Residual != nil {
		s += " residual=" + n.Residual.String()
	}
	if n.Strategy != StrategyUnset {
		s += " strategy=" + n.Strategy.String()
	}
	if len(n.DynFilters) > 0 {
		parts := make([]string, len(n.DynFilters))
		for i, df := range n.DynFilters {
			parts[i] = fmt.Sprintf("%d@key%d", df.ID, df.KeyIdx)
		}
		s += " dynfilters=[" + strings.Join(parts, ",") + "]"
	}
	return s
}

// SortKey is one ordering column for Sort/TopN/Window.
type SortKey struct {
	Col        int
	Descending bool
}

// Sort fully orders its input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

func (n *Sort) Schema() Schema   { return n.Input.Schema() }
func (n *Sort) Children() []Node { return []Node{n.Input} }
func (n *Sort) WithChildren(c []Node) Node {
	return &Sort{Input: c[0], Keys: n.Keys}
}
func (n *Sort) Describe() string { return fmt.Sprintf("Sort%v", n.Keys) }

// TopN keeps the first N rows under the ordering — a fused Sort+Limit.
type TopN struct {
	Input Node
	Keys  []SortKey
	N     int64
}

func (n *TopN) Schema() Schema   { return n.Input.Schema() }
func (n *TopN) Children() []Node { return []Node{n.Input} }
func (n *TopN) WithChildren(c []Node) Node {
	return &TopN{Input: c[0], Keys: n.Keys, N: n.N}
}
func (n *TopN) Describe() string { return fmt.Sprintf("TopN[%d]%v", n.N, n.Keys) }

// Limit truncates input to N rows (after skipping Offset rows). Partial
// limits run inside leaf stages before the final single-node limit.
type Limit struct {
	Input   Node
	N       int64
	Offset  int64
	Partial bool
}

func (n *Limit) Schema() Schema   { return n.Input.Schema() }
func (n *Limit) Children() []Node { return []Node{n.Input} }
func (n *Limit) WithChildren(c []Node) Node {
	return &Limit{Input: c[0], N: n.N, Offset: n.Offset, Partial: n.Partial}
}
func (n *Limit) Describe() string {
	p := ""
	if n.Partial {
		p = " partial"
	}
	return fmt.Sprintf("Limit[%d offset %d%s]", n.N, n.Offset, p)
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

func (n *Distinct) Schema() Schema             { return n.Input.Schema() }
func (n *Distinct) Children() []Node           { return []Node{n.Input} }
func (n *Distinct) WithChildren(c []Node) Node { return &Distinct{Input: c[0]} }
func (n *Distinct) Describe() string           { return "Distinct" }

// WindowFunc names a supported window function.
type WindowFunc string

// Supported window functions.
const (
	WinRowNumber WindowFunc = "row_number"
	WinRank      WindowFunc = "rank"
	WinDenseRank WindowFunc = "dense_rank"
	WinSum       WindowFunc = "sum"
	WinCount     WindowFunc = "count"
	WinAvg       WindowFunc = "avg"
	WinMin       WindowFunc = "min"
	WinMax       WindowFunc = "max"
)

// Valid reports whether f is one of the functions above.
func (f WindowFunc) Valid() bool {
	return slices.Contains([]WindowFunc{WinRowNumber, WinRank, WinDenseRank, WinSum, WinCount, WinAvg, WinMin, WinMax}, f)
}

// WindowExpr is one window computation appended as an output column.
type WindowExpr struct {
	Func WindowFunc
	Arg  expr.Expr `wire:"optional"` // nil for ranking functions
	Out  types.Type
}

// Window evaluates window functions over partitions of its input.
type Window struct {
	Input       Node
	PartitionBy []int
	OrderBy     []SortKey
	Funcs       []WindowExpr
	Out         Schema // input columns followed by window outputs
}

func (n *Window) Schema() Schema   { return n.Out }
func (n *Window) Children() []Node { return []Node{n.Input} }
func (n *Window) WithChildren(c []Node) Node {
	cp := *n
	cp.Input = c[0]
	return &cp
}
func (n *Window) Describe() string {
	return fmt.Sprintf("Window[partition=%v order=%v funcs=%d]", n.PartitionBy, n.OrderBy, len(n.Funcs))
}

// Values is an inline literal relation.
type Values struct {
	Rows [][]types.Value
	Out  Schema
}

func (n *Values) Schema() Schema             { return n.Out }
func (n *Values) Children() []Node           { return nil }
func (n *Values) WithChildren(c []Node) Node { cp := *n; return &cp }
func (n *Values) Describe() string           { return fmt.Sprintf("Values[%d rows]", len(n.Rows)) }

// Union concatenates inputs with identical schemas (UNION ALL; DISTINCT is
// planned as Union + Distinct).
type Union struct {
	Inputs []Node
}

func (n *Union) Schema() Schema   { return n.Inputs[0].Schema() }
func (n *Union) Children() []Node { return n.Inputs }
func (n *Union) WithChildren(c []Node) Node {
	return &Union{Inputs: c}
}
func (n *Union) Describe() string { return fmt.Sprintf("Union[%d inputs]", len(n.Inputs)) }

// Output is the plan root: it names the result columns delivered to the
// client.
type Output struct {
	Input Node
	Names []string
}

func (n *Output) Schema() Schema {
	in := n.Input.Schema()
	out := make(Schema, len(in))
	for i, f := range in {
		out[i] = Field{Name: n.Names[i], T: f.T}
	}
	return out
}
func (n *Output) Children() []Node { return []Node{n.Input} }
func (n *Output) WithChildren(c []Node) Node {
	return &Output{Input: c[0], Names: n.Names}
}
func (n *Output) Describe() string { return "Output[" + strings.Join(n.Names, ", ") + "]" }

// TableWrite writes its input to a connector table through the Data Sink API
// and outputs a single row count.
type TableWrite struct {
	Input   Node
	Catalog string
	Table   string
	Out     Schema
}

func (n *TableWrite) Schema() Schema   { return n.Out }
func (n *TableWrite) Children() []Node { return []Node{n.Input} }
func (n *TableWrite) WithChildren(c []Node) Node {
	cp := *n
	cp.Input = c[0]
	return &cp
}
func (n *TableWrite) Describe() string {
	return "TableWrite[" + n.Catalog + "." + n.Table + "]"
}

// Format renders a plan tree for EXPLAIN.
func Format(n Node) string {
	var sb strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString("- ")
		sb.WriteString(n.Describe())
		sb.WriteString(" => ")
		sb.WriteString(n.Schema().String())
		sb.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
