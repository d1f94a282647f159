package sqlparser

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
	// slots holds, ascending, the byte offsets of the literals the plan
	// cache lifted out of the statement (see ParseSlots).
	slots []int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) { return ParseSlots(sql, nil) }

// ParseSlots is Parse for a statement whose plan may become a template: the
// literal that starts at byte offset slots[i] (ascending) carries Slot i+1,
// which the analyzer copies onto its constant. A literal at an offset not
// listed carries Slot 0.
func ParseSlots(sql string, slots []int) (Statement, error) {
	toks, err := Tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: sql, slots: slots}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("line %d col %d: unexpected %q after statement", t.Line, t.Col, t.Text)
	}
	return stmt, nil
}

// ParseQuery parses a statement and requires it to be a query.
func ParseQuery(sql string) (*Query, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	q, ok := stmt.(*Query)
	if !ok {
		return nil, fmt.Errorf("statement is not a query")
	}
	return q, nil
}

// slotAt returns the slot of the literal token at byte offset pos, 0 when it
// was not lifted.
func (p *Parser) slotAt(pos int) int {
	if i, ok := slices.BinarySearch(p.slots, pos); ok {
		return i + 1
	}
	return 0
}

func (p *Parser) peek() Token   { return p.toks[p.pos] }
func (p *Parser) atEOF() bool   { return p.peek().Kind == TokEOF }
func (p *Parser) save() int     { return p.pos }
func (p *Parser) restore(n int) { p.pos = n }

// next consumes a token, but not the final TokEOF, which it returns again.
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return t, nil
	}
	return Token{}, fmt.Errorf("line %d col %d: expected %q, found %q", t.Line, t.Col, text, t.Text)
}

func (p *Parser) expectKeyword(kw string) error {
	_, err := p.expect(TokKeyword, kw)
	return err
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	// Allow non-reserved keywords as identifiers in a few spots.
	if t.Kind == TokKeyword && !reservedAsIdent[t.Text] {
		p.pos++
		return strings.ToLower(t.Text), nil
	}
	return "", fmt.Errorf("line %d col %d: expected identifier, found %q", t.Line, t.Col, t.Text)
}

// Keywords that cannot be used bare as identifiers.
var reservedAsIdent = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "JOIN": true, "ON": true, "AND": true,
	"OR": true, "NOT": true, "UNION": true, "NULL": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "AS": true,
	"DISTINCT": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"CROSS": true, "CREATE": true, "INSERT": true, "VALUES": true, "WITH": true,
	"EXISTS": true, "BETWEEN": true, "LIKE": true, "IN": true, "IS": true,
	"CAST": true, "TRUE": true, "FALSE": true, "EXCEPT": true, "INTERSECT": true,
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword && t.Kind != TokOp {
		return nil, fmt.Errorf("line %d col %d: expected statement, found %q", t.Line, t.Col, t.Text)
	}
	switch t.Text {
	case "EXPLAIN":
		p.next()
		analyze := p.acceptKeyword("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	case "SELECT", "WITH", "(", "VALUES":
		return p.parseQuery()
	case "CREATE":
		return p.parseCreateTable()
	case "INSERT":
		return p.parseInsert()
	case "DROP":
		return p.parseDropTable()
	case "SHOW":
		p.next()
		if p.acceptKeyword("CATALOGS") {
			return &ShowCatalogs{}, nil
		}
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		st := &ShowTables{}
		if p.acceptKeyword("FROM") || p.acceptKeyword("IN") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Catalog = name
		}
		return st, nil
	case "DESCRIBE":
		p.next()
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		return &Describe{Name: name}, nil
	default:
		return nil, fmt.Errorf("line %d col %d: unsupported statement %q", t.Line, t.Col, t.Text)
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if p.accept(TokOp, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typTok := p.next()
			if typTok.Kind != TokIdent && typTok.Kind != TokKeyword {
				return nil, fmt.Errorf("line %d: expected column type", typTok.Line)
			}
			ct.Columns = append(ct.Columns, ColumnDef{Name: col, Type: typTok.Text})
			if p.accept(TokOp, ",") {
				continue
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.acceptKeyword("AS") {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		ct.AsQuery = q
	}
	if len(ct.Columns) == 0 && ct.AsQuery == nil {
		return nil, fmt.Errorf("CREATE TABLE needs a column list or AS query")
	}
	return ct, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	ins := &InsertInto{Name: name}
	// Optional column list: disambiguate from a following "(SELECT" query.
	if p.peek().Kind == TokOp && p.peek().Text == "(" {
		mark := p.save()
		p.next()
		if p.peek().Kind == TokIdent || (p.peek().Kind == TokKeyword && !reservedAsIdent[p.peek().Text]) {
			ok := true
			var cols []string
			for {
				col, err := p.expectIdent()
				if err != nil {
					ok = false
					break
				}
				cols = append(cols, col)
				if p.accept(TokOp, ",") {
					continue
				}
				if !p.accept(TokOp, ")") {
					ok = false
				}
				break
			}
			if ok {
				ins.Columns = cols
			} else {
				p.restore(mark)
			}
		} else {
			p.restore(mark)
		}
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	ins.Query = q
	return ins, nil
}

func (p *Parser) parseDropTable() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseQualifiedName() (QualifiedName, error) {
	var parts []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return QualifiedName{}, err
		}
		parts = append(parts, id)
		if !p.accept(TokOp, ".") {
			break
		}
	}
	return QualifiedName{Parts: parts}, nil
}

// parseQuery parses: [WITH ...] body [ORDER BY ...] [LIMIT n] [OFFSET n].
func (p *Parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if p.acceptKeyword("WITH") {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			q.With = append(q.With, &CTE{Name: name, Query: sub})
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	body, err := p.parseQueryBody()
	if err != nil {
		return nil, err
	}
	q.Body = body

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseSortItems()
		if err != nil {
			return nil, err
		}
		q.OrderBy = items
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		q.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		q.Offset = n
		p.acceptKeyword("ROWS")
	}
	if p.acceptKeyword("FETCH") {
		if !p.acceptKeyword("FIRST") && !p.acceptKeyword("NEXT") {
			return nil, fmt.Errorf("expected FIRST or NEXT after FETCH")
		}
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		q.Limit = n
		p.acceptKeyword("ROWS")
		p.acceptKeyword("ONLY")
	}
	return q, nil
}

func (p *Parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("line %d: expected integer, found %q", t.Line, t.Text)
	}
	p.next()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: invalid integer %q", t.Line, t.Text)
	}
	return n, nil
}

func (p *Parser) parseSortItems() ([]*SortItem, error) {
	var items []*SortItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := &SortItem{Expr: e}
		if p.acceptKeyword("DESC") {
			item.Descending = true
		} else {
			p.acceptKeyword("ASC")
		}
		items = append(items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return items, nil
}

func (p *Parser) parseQueryBody() (QueryBody, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptKeyword("UNION"):
			op = "UNION"
		case p.acceptKeyword("EXCEPT"):
			op = "EXCEPT"
		case p.acceptKeyword("INTERSECT"):
			op = "INTERSECT"
		default:
			return left, nil
		}
		all := p.acceptKeyword("ALL")
		if !all {
			p.acceptKeyword("DISTINCT")
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Op: op, All: all, Left: left, Right: right}
	}
}

func (p *Parser) parseQueryTerm() (QueryBody, error) {
	if p.accept(TokOp, "(") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		// A parenthesized query used as a body: wrap as a SELECT * over it.
		return &Select{
			Items: []*SelectItem{{Wildcard: true}},
			From:  &SubqueryRel{Query: sub, Alias: "_paren"},
		}, nil
	}
	if p.peekKeyword("VALUES") {
		rel, err := p.parseValues()
		if err != nil {
			return nil, err
		}
		return &Select{
			Items: []*SelectItem{{Wildcard: true}},
			From:  rel,
		}, nil
	}
	return p.parseSelect()
}

func (p *Parser) parseValues() (*ValuesRel, error) {
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	v := &ValuesRel{}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		v.Rows = append(v.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return v, nil
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		rel, err := p.parseRelation()
		if err != nil {
			return nil, err
		}
		s.From = rel
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (*SelectItem, error) {
	if p.accept(TokOp, "*") {
		return &SelectItem{Wildcard: true}, nil
	}
	// Qualified wildcard: ident(.ident)*.*
	mark := p.save()
	if p.peek().Kind == TokIdent {
		var parts []string
		ok := true
		for {
			t := p.peek()
			if t.Kind != TokIdent {
				ok = false
				break
			}
			p.next()
			parts = append(parts, t.Text)
			if !p.accept(TokOp, ".") {
				ok = false
				break
			}
			if p.accept(TokOp, "*") {
				return &SelectItem{Wildcard: true, Qualifier: strings.Join(parts, ".")}, nil
			}
		}
		_ = ok
		p.restore(mark)
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseRelation() (Relation, error) {
	left, err := p.parseRelationPrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, ","):
			right, err := p.parseRelationPrimary()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: "CROSS", Left: left, Right: right}
		case p.acceptKeyword("CROSS"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseRelationPrimary()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: "CROSS", Left: left, Right: right}
		case p.peekKeyword("JOIN") || p.peekKeyword("INNER") || p.peekKeyword("LEFT") ||
			p.peekKeyword("RIGHT") || p.peekKeyword("FULL"):
			jt := "INNER"
			switch {
			case p.acceptKeyword("INNER"):
			case p.acceptKeyword("LEFT"):
				jt = "LEFT"
			case p.acceptKeyword("RIGHT"):
				jt = "RIGHT"
			case p.acceptKeyword("FULL"):
				jt = "FULL"
			}
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseRelationPrimary()
			if err != nil {
				return nil, err
			}
			j := &Join{Type: jt, Left: left, Right: right}
			if p.acceptKeyword("ON") {
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				j.On = cond
			} else if p.acceptKeyword("USING") {
				if _, err := p.expect(TokOp, "("); err != nil {
					return nil, err
				}
				for {
					col, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					j.Using = append(j.Using, col)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			} else {
				return nil, fmt.Errorf("JOIN requires ON or USING")
			}
			left = j
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseRelationPrimary() (Relation, error) {
	if p.peekKeyword("VALUES") {
		v, err := p.parseValues()
		if err != nil {
			return nil, err
		}
		v.Alias = p.parseOptionalAlias()
		if v.Alias != "" {
			cols, err := p.parseOptionalColAliases()
			if err != nil {
				return nil, err
			}
			v.ColAliases = cols
		}
		return v, nil
	}
	if p.accept(TokOp, "(") {
		// Could be a subquery or a parenthesized join.
		if p.peekKeyword("SELECT") || p.peekKeyword("WITH") || p.peekKeyword("VALUES") || (p.peek().Kind == TokOp && p.peek().Text == "(") {
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			alias := p.parseOptionalAlias()
			var colAliases []string
			if alias == "" {
				alias = "_subquery"
			} else {
				colAliases, err = p.parseOptionalColAliases()
				if err != nil {
					return nil, err
				}
			}
			return &SubqueryRel{Query: sub, Alias: alias, ColAliases: colAliases}, nil
		}
		rel, err := p.parseRelation()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return rel, nil
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	return &TableRef{Name: name, Alias: p.parseOptionalAlias()}, nil
}

// parseOptionalColAliases parses "(a, b, c)" after a relation alias.
func (p *Parser) parseOptionalColAliases() ([]string, error) {
	if !p.accept(TokOp, "(") {
		return nil, nil
	}
	var cols []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *Parser) parseOptionalAlias() string {
	if p.acceptKeyword("AS") {
		if p.peek().Kind == TokIdent {
			return p.next().Text
		}
		return ""
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text
	}
	return ""
}
