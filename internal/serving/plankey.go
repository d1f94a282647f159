package serving

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Template is a read statement's plan-cache identity. Statements that differ
// only in the literals of value positions share a Template.Key, so they share
// one plan: the coordinator binds each statement's Values into it.
type Template struct {
	// Key is the statement's token stream — comments dropped, keywords
	// folded, identifiers as written, each lifted literal replaced by its
	// type — then the catalog and the planning flags.
	Key string
	// Values holds the lifted literals; slot s is Values[s-1].
	Values []types.Value
	// Pos holds the byte offset of each lifted literal in the statement, for
	// sqlparser.ParseSlots.
	Pos []int
}

// LiteralKey is the key of a plan that is not a template: Key followed by the
// lifted values, so it serves only statements with the same literals.
func (t *Template) LiteralKey() string {
	return string(appendValues(append([]byte(t.Key), 0), t.Values))
}

// PlanKey builds the template of a statement under a default catalog and the
// flags that change planning. ok is false for a statement the plan cache never
// holds — one that does not start as a query does (DDL, INSERT, EXPLAIN,
// SHOW) — and for text the lexer rejects.
//
// A literal is lifted when it is an operand of a comparison or of arithmetic,
// a BETWEEN bound, or an IN-list member. LIMIT and OFFSET counts, ordinals,
// LIKE patterns, function arguments and INTERVAL quantities stay in the key,
// as does the number of IN-list members and each lifted literal's type.
func PlanKey(sql, catalog, flags string) (Template, bool) {
	var k keyBuilder
	k.buf.Grow(len(sql) + len(catalog) + len(flags) + 2)
	lx := sqlparser.NewLexer(sql)
	var win [3]sqlparser.Token // the token being keyed and two of lookahead
	for i := range win {
		t, err := lx.Next()
		if err != nil {
			return Template{}, false
		}
		win[i] = t
	}
	if !startsQuery(win[0]) {
		return Template{}, false
	}
	for win[0].Kind != sqlparser.TokEOF {
		n := k.token(sql, win[0], win[1], win[2])
		for ; n > 0; n-- {
			win[0], win[1] = win[1], win[2]
			t, err := lx.Next()
			if err != nil {
				return Template{}, false
			}
			win[2] = t
		}
	}
	k.buf.WriteByte(0)
	k.buf.WriteString(catalog)
	k.buf.WriteByte(0)
	k.buf.WriteString(flags)
	k.t.Key = k.buf.String()
	return k.t, true
}

func startsQuery(t sqlparser.Token) bool {
	switch {
	case t.Kind == sqlparser.TokKeyword:
		return t.Text == "SELECT" || t.Text == "WITH" || t.Text == "VALUES"
	case t.Kind == sqlparser.TokOp:
		return t.Text == "("
	}
	return false
}

// keyBuilder accumulates a key one token at a time.
type keyBuilder struct {
	buf  strings.Builder
	t    Template
	prev sqlparser.Token // the last token keyed
	// parens holds one entry per open parenthesis: whether it opens an IN
	// list (a subquery in it clears the mark).
	parens []bool
	// loBound is set by a lifted BETWEEN lower bound directly followed by
	// AND; inBetween by that AND, so the upper bound after it is lifted too.
	loBound, inBetween bool
}

// token keys cur (next and after are the lookahead) and returns how many
// tokens it consumed: two for DATE 'yyyy-mm-dd', one otherwise.
func (k *keyBuilder) token(src string, cur, next, after sqlparser.Token) int {
	n, last, follow := 1, cur, next
	var v types.Value
	lit := false
	switch {
	case cur.Kind == sqlparser.TokNumber:
		v, lit = numberValue(cur.Text)
	case cur.Kind == sqlparser.TokString:
		v, lit = types.VarcharValue(cur.Text), true
	case isKeyword(cur, "DATE") && next.Kind == sqlparser.TokString:
		n, last, follow = 2, next, after
		if d, err := types.ParseDate(next.Text); err == nil {
			v, lit = types.DateValue(d), true
		}
	}
	andOfBetween := k.loBound && isKeyword(cur, "AND")
	k.loBound = false
	if lit && k.lifts(follow) {
		k.space()
		k.buf.WriteByte('?')
		k.buf.WriteByte(typeLetter(v.T))
		k.t.Values = append(k.t.Values, v)
		k.t.Pos = append(k.t.Pos, cur.Pos)
		k.loBound = isKeyword(k.prev, "BETWEEN") && isKeyword(follow, "AND")
	} else {
		k.keep(src, cur)
		if n == 2 {
			k.keep(src, next)
		}
	}
	k.inBetween = andOfBetween
	switch {
	case isOp(cur, "("):
		k.parens = append(k.parens, isKeyword(k.prev, "IN"))
	case isOp(cur, ")") && len(k.parens) > 0:
		k.parens = k.parens[:len(k.parens)-1]
	case (isKeyword(cur, "SELECT") || isKeyword(cur, "WITH")) && len(k.parens) > 0:
		k.parens[len(k.parens)-1] = false
	}
	k.prev = last
	return n
}

// lifts reports whether the literal after k.prev and before next stands in a
// value position.
func (k *keyBuilder) lifts(next sqlparser.Token) bool {
	prev := k.prev
	switch {
	case isKeyword(prev, "LIKE"):
		return false
	case isOp(prev, compareOps...) || isOp(next, compareOps...),
		isOp(prev, arithOps...) || isOp(next, arithOps...),
		isKeyword(prev, "BETWEEN"),
		k.inBetween && isKeyword(prev, "AND"):
		return true
	case isOp(prev, "(", ","):
		return len(k.parens) > 0 && k.parens[len(k.parens)-1]
	}
	return false
}

// keep appends a token that stays in the key.
func (k *keyBuilder) keep(src string, t sqlparser.Token) {
	k.space()
	switch t.Kind {
	case sqlparser.TokIdent:
		// An identifier keeps its spelling: the analyzer labels an output
		// column as it was written, so Name and name share no plan.
		if src[t.Pos] == '"' {
			k.buf.WriteByte('"')
			k.buf.WriteString(strings.ReplaceAll(t.Text, `"`, `""`))
			k.buf.WriteByte('"')
			return
		}
		k.buf.WriteString(t.Text)
	case sqlparser.TokString:
		k.buf.WriteByte('\'')
		k.buf.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
		k.buf.WriteByte('\'')
	default:
		k.buf.WriteString(t.Text)
	}
}

func (k *keyBuilder) space() {
	if k.buf.Len() > 0 {
		k.buf.WriteByte(' ')
	}
}

var (
	compareOps = []string{"=", "<", ">", "<=", ">=", "<>", "!="}
	arithOps   = []string{"+", "-", "*", "/", "%"}
)

func isOp(t sqlparser.Token, ops ...string) bool {
	return t.Kind == sqlparser.TokOp && slices.Contains(ops, t.Text)
}

func isKeyword(t sqlparser.Token, kw string) bool {
	return t.Kind == sqlparser.TokKeyword && t.Text == kw
}

// numberValue types a numeric literal as the parser does: BIGINT when it has
// no fraction or exponent and fits, DOUBLE otherwise.
func numberValue(text string) (types.Value, bool) {
	if !strings.ContainsAny(text, ".eE") {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return types.BigintValue(n), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Value{}, false
	}
	return types.DoubleValue(f), true
}

func typeLetter(t types.Type) byte {
	switch t {
	case types.Bigint:
		return 'i'
	case types.Double:
		return 'd'
	case types.Date:
		return 't'
	}
	return 's'
}

// appendValues encodes lifted values unambiguously: a type letter, then the
// value (a string with its length first).
func appendValues(b []byte, vals []types.Value) []byte {
	for _, v := range vals {
		b = append(b, typeLetter(v.T))
		switch v.T {
		case types.Double:
			b = strconv.AppendUint(b, math.Float64bits(v.F), 16)
		case types.Varchar:
			b = strconv.AppendInt(b, int64(len(v.S)), 10)
			b = append(b, ':')
			b = append(b, v.S...)
		default:
			b = strconv.AppendInt(b, v.I, 10)
		}
		b = append(b, ';')
	}
	return b
}
