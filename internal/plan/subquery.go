package plan

// Additional join types used when desugaring subqueries.
const (
	// SemiJoin keeps left rows with at least one match (IN/EXISTS subquery).
	SemiJoin JoinType = iota + 100
	// AntiJoin keeps left rows with no match (NOT EXISTS; NOT IN with
	// Join.NullAware set).
	AntiJoin
)

func joinTypeString(t JoinType) (string, bool) {
	switch t {
	case SemiJoin:
		return "SEMI", true
	case AntiJoin:
		return "ANTI", true
	}
	return "", false
}

// EnforceSingleRow passes through its input, failing the query if it yields
// more than one row and emitting an all-NULL row if it yields none — the
// runtime contract of a scalar subquery.
type EnforceSingleRow struct{ Input Node }

func (n *EnforceSingleRow) Schema() Schema             { return n.Input.Schema() }
func (n *EnforceSingleRow) Children() []Node           { return []Node{n.Input} }
func (n *EnforceSingleRow) WithChildren(c []Node) Node { return &EnforceSingleRow{Input: c[0]} }
func (n *EnforceSingleRow) Describe() string           { return "EnforceSingleRow" }
