// Package analyzer performs semantic analysis and logical planning
// (paper §IV-B2/3): it resolves names against connector metadata, determines
// types and coercions, extracts aggregations and window functions, desugars
// subqueries, and produces the logical plan IR consumed by the optimizer.
package analyzer

import (
	"fmt"
	"strings"

	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/sqlparser"
)

// Catalogs resolves table names to connector metadata. The coordinator's
// catalog manager implements it.
type Catalogs interface {
	// Resolve returns the catalog name and table metadata for a qualified
	// name, applying the session's default catalog when unqualified.
	Resolve(name sqlparser.QualifiedName, defaultCatalog string) (string, *connector.TableMeta, error)
}

// Analyzer plans statements for one session.
type Analyzer struct {
	Catalogs       Catalogs
	DefaultCatalog string
}

// New creates an analyzer over the given catalogs.
func New(c Catalogs, defaultCatalog string) *Analyzer {
	return &Analyzer{Catalogs: c, DefaultCatalog: defaultCatalog}
}

// scopeField is one visible column during analysis.
type scopeField struct {
	qualifier string // relation alias ("" when unaliased)
	name      string // column name ("" for anonymous expressions)
	field     plan.Field
}

// scope maps visible names to the output columns of a plan node.
type scope struct {
	fields  []scopeField
	grouped *scope // an aggregation's input: a column only there is ungrouped
}

func (s *scope) schema() plan.Schema {
	out := make(plan.Schema, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.field
	}
	return out
}

// resolve finds the column index for a possibly-qualified reference.
func (s *scope) resolve(parts []string) (int, plan.Field, error) {
	var qualifier, name string
	switch len(parts) {
	case 1:
		name = parts[0]
	case 2:
		qualifier, name = parts[0], parts[1]
	case 3:
		// catalog.table.column — match on the trailing table qualifier.
		qualifier, name = parts[1], parts[2]
	default:
		return 0, plan.Field{}, fmt.Errorf("invalid column reference %q", strings.Join(parts, "."))
	}
	matches := []int{}
	for i, f := range s.fields {
		if !strings.EqualFold(f.name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(f.qualifier, qualifier) {
			continue
		}
		matches = append(matches, i)
	}
	switch len(matches) {
	case 0:
		if s.grouped != nil {
			if _, _, err := s.grouped.resolve(parts); err == nil {
				return 0, plan.Field{}, fmt.Errorf("column %q must appear in GROUP BY or be used in an aggregate function", strings.Join(parts, "."))
			}
		}
		return 0, plan.Field{}, fmt.Errorf("column %q cannot be resolved", strings.Join(parts, "."))
	case 1:
		return matches[0], s.fields[matches[0]].field, nil
	default:
		return 0, plan.Field{}, fmt.Errorf("column reference %q is ambiguous", strings.Join(parts, "."))
	}
}

// relationPlan couples a plan subtree with the scope over its output.
type relationPlan struct {
	node  plan.Node
	scope *scope
}

// ctx carries per-query analysis state.
type ctx struct {
	a    *Analyzer
	ctes map[string]*sqlparser.Query
}

// PlanQuery analyzes and plans a full query, returning the logical plan
// rooted at an Output node.
func (a *Analyzer) PlanQuery(q *sqlparser.Query) (*plan.Output, error) {
	c := &ctx{a: a, ctes: map[string]*sqlparser.Query{}}
	rp, err := c.planQuery(q, nil)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(rp.scope.fields))
	for i, f := range rp.scope.fields {
		if f.name != "" {
			names[i] = f.name
		} else {
			names[i] = fmt.Sprintf("_col%d", i)
		}
	}
	return &plan.Output{Input: rp.node, Names: names}, nil
}

// PlanStatement plans any supported statement, returning the plan root and
// the result column names.
func (a *Analyzer) PlanStatement(stmt sqlparser.Statement) (plan.Node, error) {
	switch s := stmt.(type) {
	case *sqlparser.Query:
		return a.PlanQuery(s)
	case *sqlparser.InsertInto:
		return a.planInsert(s)
	case *sqlparser.CreateTable:
		if s.AsQuery == nil {
			return nil, fmt.Errorf("plain CREATE TABLE is executed as DDL, not planned")
		}
		out, err := a.PlanQuery(s.AsQuery)
		if err != nil {
			return nil, err
		}
		catalog, table := a.splitTableName(s.Name)
		return a.wrapWrite(out, catalog, table), nil
	default:
		return nil, fmt.Errorf("statement type %T is not plannable", stmt)
	}
}

func (a *Analyzer) splitTableName(n sqlparser.QualifiedName) (string, string) {
	if len(n.Parts) >= 2 {
		return n.Parts[0], n.Parts[len(n.Parts)-1]
	}
	return a.DefaultCatalog, n.Parts[0]
}

func (a *Analyzer) planInsert(s *sqlparser.InsertInto) (plan.Node, error) {
	out, err := a.PlanQuery(s.Query)
	if err != nil {
		return nil, err
	}
	catalog, table := a.splitTableName(s.Name)
	_, meta, err := a.Catalogs.Resolve(s.Name, a.DefaultCatalog)
	if err != nil {
		return nil, err
	}
	qSchema := out.Schema()
	want := len(meta.Columns)
	if len(s.Columns) > 0 {
		want = len(s.Columns)
	}
	if len(qSchema) != want {
		return nil, fmt.Errorf("INSERT has %d columns but query produces %d", want, len(qSchema))
	}
	return a.wrapWrite(out, catalog, table), nil
}

func (a *Analyzer) wrapWrite(out *plan.Output, catalog, table string) plan.Node {
	write := &plan.TableWrite{
		Input:   out.Input,
		Catalog: catalog,
		Table:   table,
		Out:     plan.Schema{{Name: "rows", T: rowCountType}},
	}
	return &plan.Output{Input: write, Names: []string{"rows"}}
}
