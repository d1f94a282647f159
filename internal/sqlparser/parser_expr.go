package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Expression grammar, lowest to highest precedence:
//
//	OR
//	AND
//	NOT
//	comparison / IS / IN / BETWEEN / LIKE
//	|| (concat)
//	+ -
//	* / %
//	unary - +
//	subscript, primary

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.Kind == TokOp && isCompareOp(t.Text):
			p.next()
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: op, Left: left, Right: right}
		case t.Kind == TokKeyword && t.Text == "IS":
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Expr: left, Not: not}
		case t.Kind == TokKeyword && (t.Text == "IN" || t.Text == "BETWEEN" || t.Text == "LIKE" || t.Text == "NOT"):
			not := false
			if t.Text == "NOT" {
				// Only consume NOT if followed by IN/BETWEEN/LIKE.
				mark := p.save()
				p.next()
				nt := p.peek()
				if nt.Kind != TokKeyword || (nt.Text != "IN" && nt.Text != "BETWEEN" && nt.Text != "LIKE") {
					p.restore(mark)
					return left, nil
				}
				not = true
				t = nt
			}
			switch t.Text {
			case "IN":
				p.next()
				e, err := p.parseInSuffix(left, not)
				if err != nil {
					return nil, err
				}
				left = e
			case "BETWEEN":
				p.next()
				lo, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Not: not}
			case "LIKE":
				p.next()
				pat, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &LikeExpr{Expr: left, Pattern: pat, Not: not}
			}
		default:
			return left, nil
		}
	}
}

func isCompareOp(op string) bool {
	switch op {
	case "=", "<", ">", "<=", ">=", "<>", "!=":
		return true
	}
	return false
}

func (p *Parser) parseInSuffix(left Expr, not bool) (Expr, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, Subquery: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return &InExpr{Expr: left, List: list, Not: not}, nil
}

func (p *Parser) parseConcat() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.accept(TokOp, "||") {
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokOp && (t.Text == "-" || t.Text == "+") {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return e, nil
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(TokOp, "[") {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		e = &SubscriptExpr{Base: e, Index: idx}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		isInt := !strings.ContainsAny(t.Text, ".eE")
		if isInt {
			if _, err := strconv.ParseInt(t.Text, 10, 64); err != nil {
				isInt = false
			}
		}
		return &NumberLit{Text: t.Text, IsInteger: isInt, Slot: p.slotAt(t.Pos)}, nil

	case TokString:
		p.next()
		return &StringLit{Val: t.Text, Slot: p.slotAt(t.Pos)}, nil

	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &BoolLit{Val: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Val: false}, nil
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "DATE":
			p.next()
			st := p.peek()
			if st.Kind == TokString {
				p.next()
				return &DateLit{Text: st.Text, Slot: p.slotAt(t.Pos)}, nil
			}
			// DATE used as identifier-ish (e.g. column named date)
			return &Ident{Parts: []string{"date"}}, nil
		case "INTERVAL":
			p.next()
			st := p.peek()
			if st.Kind != TokString && st.Kind != TokNumber {
				return nil, fmt.Errorf("line %d: expected interval value", st.Line)
			}
			p.next()
			n, err := strconv.ParseInt(strings.TrimSpace(st.Text), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: invalid interval %q", st.Line, st.Text)
			}
			unitTok := p.next()
			unit := strings.ToUpper(strings.TrimSuffix(strings.ToUpper(unitTok.Text), "S"))
			switch unit {
			case "DAY", "MONTH", "YEAR":
			default:
				return nil, fmt.Errorf("line %d: unsupported interval unit %q", unitTok.Line, unitTok.Text)
			}
			return &IntervalLit{Value: n, Unit: unit}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.next()
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			typTok := p.next()
			if typTok.Kind != TokIdent && typTok.Kind != TokKeyword {
				return nil, fmt.Errorf("line %d: expected type name in CAST", typTok.Line)
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{Expr: inner, Type: typTok.Text}, nil
		case "EXISTS":
			p.next()
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
			return &ExistsExpr{Subquery: sub}, nil
		case "EXTRACT":
			p.next()
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			fieldTok := p.next()
			if err := p.expectKeyword("FROM"); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: strings.ToLower(fieldTok.Text), Args: []Expr{arg}}, nil
		default:
			// Non-reserved keyword as identifier/function name.
			if !reservedAsIdent[t.Text] {
				return p.parseIdentOrCall()
			}
			return nil, fmt.Errorf("line %d col %d: unexpected keyword %q in expression", t.Line, t.Col, t.Text)
		}

	case TokIdent:
		return p.parseIdentOrCall()

	case TokOp:
		if t.Text == "(" {
			p.next()
			// Scalar subquery?
			if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
				sub, err := p.parseQuery()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Query: sub}, nil
			}
			// Parenthesized expression, or lambda (x, y) -> body.
			mark := p.save()
			if lam, ok := p.tryParseLambdaParams(); ok {
				return lam, nil
			}
			p.restore(mark)
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			// Bare * inside COUNT(*) is handled in parseIdentOrCall; elsewhere invalid.
			return nil, fmt.Errorf("line %d col %d: unexpected *", t.Line, t.Col)
		}
		return nil, fmt.Errorf("line %d col %d: unexpected %q in expression", t.Line, t.Col, t.Text)
	}
	return nil, fmt.Errorf("line %d col %d: unexpected token %q", t.Line, t.Col, t.Text)
}

// tryParseLambdaParams is called just after '(' was consumed; it attempts
// to parse "x, y) -> body".
func (p *Parser) tryParseLambdaParams() (Expr, bool) {
	var params []string
	for {
		t := p.peek()
		if t.Kind != TokIdent {
			return nil, false
		}
		p.next()
		params = append(params, t.Text)
		if p.accept(TokOp, ",") {
			continue
		}
		break
	}
	if !p.accept(TokOp, ")") {
		return nil, false
	}
	if !p.accept(TokOp, "->") {
		return nil, false
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, false
	}
	return &LambdaExpr{Params: params, Body: body}, true
}

func (p *Parser) parseIdentOrCall() (Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	// ARRAY[...] literal.
	if strings.EqualFold(name, "array") && p.accept(TokOp, "[") {
		var elems []Expr
		if !p.accept(TokOp, "]") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, "]"); err != nil {
				return nil, err
			}
		}
		return &ArrayLit{Elems: elems}, nil
	}
	// Lambda with a single bare parameter: x -> body.
	if p.accept(TokOp, "->") {
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &LambdaExpr{Params: []string{name}, Body: body}, nil
	}
	// Function call.
	if p.accept(TokOp, "(") {
		fc := &FuncCall{Name: strings.ToLower(name)}
		if p.accept(TokOp, "*") {
			fc.Star = true
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			if p.acceptKeyword("DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(TokOp, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			}
		}
		if p.acceptKeyword("OVER") {
			spec, err := p.parseWindowSpec()
			if err != nil {
				return nil, err
			}
			fc.Over = spec
		}
		return fc, nil
	}
	// Qualified identifier.
	parts := []string{name}
	for p.accept(TokOp, ".") {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		parts = append(parts, id)
	}
	return &Ident{Parts: parts}, nil
}

func (p *Parser) parseWindowSpec() (*WindowSpec, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	spec := &WindowSpec{}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			spec.PartitionBy = append(spec.PartitionBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseSortItems()
		if err != nil {
			return nil, err
		}
		spec.OrderBy = items
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return spec, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("CASE requires at least one WHEN clause")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
