package serving

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// key renders a statement's template key without the catalog and flags.
func key(t *testing.T, sql string) string {
	t.Helper()
	tm, ok := PlanKey(sql, "c", "0")
	if !ok {
		t.Fatalf("PlanKey(%q) refused the statement", sql)
	}
	return strings.TrimSuffix(tm.Key, "\x00c\x000")
}

func TestPlanKey(t *testing.T) {
	for _, c := range []struct {
		sql, key string
		values   []types.Value
	}{
		{"SELECT  1", "SELECT 1", nil},
		{"select\n\t X  FROM T", "SELECT X FROM T", nil},
		{`SELECT "Mixed ""q""" FROM t`, `SELECT "Mixed ""q""" FROM t`, nil},
		{"SELECT 'it''s  X'", "SELECT 'it''s  X'", nil},
		{"SELECT a FROM t -- it's\nWHERE c = 'SF'", "SELECT a FROM t WHERE c = ?s",
			[]types.Value{types.VarcharValue("SF")}},
		{"SELECT a /* it's */ FROM t WHERE c = 'sf'", "SELECT a FROM t WHERE c = ?s",
			[]types.Value{types.VarcharValue("sf")}},
		{"SELECT a FROM t WHERE k = 7 AND 2.5 < v", "SELECT a FROM t WHERE k = ?i AND ?d < v",
			[]types.Value{types.BigintValue(7), types.DoubleValue(2.5)}},
		{"SELECT a FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'",
			"SELECT a FROM t WHERE d BETWEEN ?t AND ?t",
			[]types.Value{types.DateValue(9131), types.DateValue(9495)}},
		{"SELECT a FROM t WHERE k IN (1, 2, 3)", "SELECT a FROM t WHERE k IN ( ?i , ?i , ?i )",
			[]types.Value{types.BigintValue(1), types.BigintValue(2), types.BigintValue(3)}},
		{"SELECT a * 100 FROM t", "SELECT a * ?i FROM t", []types.Value{types.BigintValue(100)}},
		{"SELECT a FROM t WHERE k = 99999999999999999999", "SELECT a FROM t WHERE k = ?d",
			[]types.Value{types.DoubleValue(1e20)}},
		// Kept: LIMIT and OFFSET counts, ordinals, LIKE patterns, function
		// arguments, INTERVAL quantities, and literals in an IN subquery's
		// GROUP BY.
		{"SELECT a, b FROM t GROUP BY 1, 2 ORDER BY 2 DESC LIMIT 10 OFFSET 5",
			"SELECT a , b FROM t GROUP BY 1 , 2 ORDER BY 2 DESC LIMIT 10 OFFSET 5", nil},
		{"SELECT a FROM t WHERE s LIKE 'ab%' AND substr(s, 1, 2) = 'ab'",
			"SELECT a FROM t WHERE s LIKE 'ab%' AND substr ( s , 1 , 2 ) = ?s",
			[]types.Value{types.VarcharValue("ab")}},
		{"SELECT a FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' DAY",
			"SELECT a FROM t WHERE d < ?t + INTERVAL '3' DAY", []types.Value{types.DateValue(9131)}},
		{"SELECT a FROM t WHERE k IN (SELECT b FROM u GROUP BY 1, 2)",
			"SELECT a FROM t WHERE k IN ( SELECT b FROM u GROUP BY 1 , 2 )", nil},
		{"SELECT a FROM t WHERE k BETWEEN x AND 5", "SELECT a FROM t WHERE k BETWEEN x AND 5", nil},
		{"SELECT a FROM t WHERE d = DATE 'soon'", "SELECT a FROM t WHERE d = DATE 'soon'", nil},
	} {
		tm, ok := PlanKey(c.sql, "c", "0")
		if !ok {
			t.Errorf("PlanKey(%q) refused the statement", c.sql)
			continue
		}
		if got := strings.TrimSuffix(tm.Key, "\x00c\x000"); got != c.key {
			t.Errorf("PlanKey(%q)\n got %q\nwant %q", c.sql, got, c.key)
		}
		if len(tm.Values) != len(c.values) || len(tm.Pos) != len(c.values) {
			t.Errorf("PlanKey(%q) lifted %v at %v, want %v", c.sql, tm.Values, tm.Pos, c.values)
			continue
		}
		for i, v := range c.values {
			if tm.Values[i].T != v.T || !tm.Values[i].Equal(v) {
				t.Errorf("PlanKey(%q) slot %d = %v, want %v", c.sql, i+1, tm.Values[i], v)
			}
		}
	}

	for _, sql := range []string{"INSERT INTO t SELECT 1", "EXPLAIN SELECT 1", "CREATE TABLE t (a BIGINT)", "SELECT 'open"} {
		if _, ok := PlanKey(sql, "c", "0"); ok {
			t.Errorf("PlanKey(%q) keyed a statement the plan cache never holds", sql)
		}
	}
	// The catalog and the flags are part of the key.
	a, _ := PlanKey("SELECT 1", "c", "0")
	b, _ := PlanKey("SELECT 1", "d", "0")
	f, _ := PlanKey("SELECT 1", "c", "1")
	if a.Key == b.Key || a.Key == f.Key {
		t.Error("catalog or flags left out of the key")
	}
	// Literal keys tell the values apart, and their types.
	x, _ := PlanKey("SELECT a FROM t WHERE c = 'a;1'", "c", "0")
	y, _ := PlanKey("SELECT a FROM t WHERE c = 'a'", "c", "0")
	if x.Key != y.Key || x.LiteralKey() == y.LiteralKey() {
		t.Errorf("literal keys: %q %q", x.LiteralKey(), y.LiteralKey())
	}
	if key(t, "SELECT a FROM t WHERE k = 1") == key(t, "SELECT a FROM t WHERE k = 1.0") {
		t.Error("a literal's type must stay in the key")
	}
}

func TestRowsWithin(t *testing.T) {
	for _, c := range []struct {
		then, now int64
		want      bool
	}{
		{100, 100, true}, {100, 400, true}, {100, 401, false}, {100, 25, true}, {100, 24, false},
		{0, 4, true}, {0, 5, false}, {-1, -1, true}, {-1, 0, false}, {100, -1, false},
	} {
		if got := RowsWithin(c.then, c.now); got != c.want {
			t.Errorf("RowsWithin(%d, %d) = %v, want %v", c.then, c.now, got, c.want)
		}
	}
}

// rawEnd returns the offset just past the token that starts at pos, or past
// the string after it when it is the keyword DATE of a lifted date.
func rawEnd(sql string, pos int) int {
	i := pos
	if strings.HasPrefix(strings.ToUpper(sql[i:]), "DATE") && !isIdentByte(sql, i+4) {
		for i += 4; sql[i] != '\''; i++ {
		}
	}
	if sql[i] == '\'' {
		for i++; ; i++ {
			if sql[i] == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					i++
					continue
				}
				return i + 1
			}
		}
	}
	t, err := sqlparser.NewLexer(sql[i:]).Next()
	if err != nil {
		return i
	}
	return i + len(t.Text)
}

func isIdentByte(s string, i int) bool {
	if i >= len(s) {
		return false
	}
	c := s[i]
	return c == '_' || c == '$' || c >= '0' && c <= '9' || c|0x20 >= 'a' && c|0x20 <= 'z' || c >= 0x80
}

// sameType is a literal of v's type and another value.
func sameType(v types.Value) string {
	switch v.T {
	case types.Bigint:
		if v.I == 7 {
			return "8"
		}
		return "7"
	case types.Double:
		if v.F == 7.25 {
			return "8.5"
		}
		return "7.25"
	case types.Date:
		if types.FormatDate(v.I) == "2001-02-03" {
			return "DATE '2001-02-04'"
		}
		return "DATE '2001-02-03'"
	}
	if v.S == "zz'q" {
		return "'yy'"
	}
	return "'zz''q'"
}

// FuzzPlanKey: replacing a lifted literal with another of its type keeps the
// key; a comment between tokens changes nothing; changing a kept token (an
// identifier, a keyword, a kept number or string) or a lifted literal's type
// changes the key.
func FuzzPlanKey(f *testing.F) {
	for _, sql := range []string{
		"SELECT count(*), sum(v) FROM memory.events WHERE app = 17",
		"SELECT o_orderkey FROM tpch.orders WHERE o_custkey = 7 ORDER BY o_orderkey LIMIT 10",
		"SELECT a FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' AND s LIKE 'ab%'",
		"SELECT a * 100, \"Q\"\"x\" FROM t -- it's\nWHERE k IN (1, 2.5, 'x') AND c = 'SF' GROUP BY 1",
		"SELECT a FROM t /* it's */ WHERE k IN (SELECT b FROM u WHERE u.c >= 3) OFFSET 5",
	} {
		f.Add(sql, uint8(3), "note")
	}
	f.Fuzz(func(t *testing.T, sql string, pick uint8, comment string) {
		tm, ok := PlanKey(sql, "c", "0")
		if !ok {
			return
		}
		// Every lifted literal replaced by another of its type.
		var b strings.Builder
		last := 0
		for i, pos := range tm.Pos {
			b.WriteString(sql[last:pos])
			b.WriteString(" " + sameType(tm.Values[i]) + " ")
			last = rawEnd(sql, pos)
		}
		b.WriteString(sql[last:])
		if alt, ok := PlanKey(b.String(), "c", "0"); !ok || alt.Key != tm.Key || len(alt.Values) != len(tm.Values) {
			t.Fatalf("same-type literals moved the key:\n%q\n%q", sql, b.String())
		}

		var toks []sqlparser.Token
		for lx := sqlparser.NewLexer(sql); ; {
			tok, err := lx.Next()
			if err != nil {
				t.Fatalf("PlanKey keyed text the lexer rejects: %q", sql)
			}
			toks = append(toks, tok)
			if tok.Kind == sqlparser.TokEOF {
				break
			}
		}
		// A comment before any token (on a line of its own: the end of the
		// text may be in a -- comment).
		for strings.Contains(comment, "*/") {
			comment = strings.ReplaceAll(comment, "*/", "")
		}
		at := toks[int(pick)%len(toks)].Pos
		commented := sql[:at] + "\n/*" + comment + "*/ " + sql[at:]
		if c, ok := PlanKey(commented, "c", "0"); !ok || c.Key != tm.Key || len(c.Values) != len(tm.Values) {
			t.Fatalf("a comment moved the key:\n%q\n%q", sql, commented)
		}

		// A kept token changed, or a lifted literal's type.
		lifted := map[int]bool{}
		for i, pos := range tm.Pos {
			lifted[pos] = true
			if tm.Values[i].T == types.Bigint && sql[pos] >= '0' && sql[pos] <= '9' {
				end := rawEnd(sql, pos)
				if c, ok := PlanKey(sql[:end]+".5"+sql[end:], "c", "0"); ok && c.Key == tm.Key {
					t.Fatalf("a literal's type left the key: %q", sql)
				}
			}
		}
		var kept []sqlparser.Token
		for i, tok := range toks {
			if lifted[tok.Pos] || i > 0 && lifted[toks[i-1].Pos] && tok.Kind == sqlparser.TokString && toks[i-1].Kind == sqlparser.TokKeyword {
				continue // a lifted literal, or the string of a lifted date
			}
			switch tok.Kind {
			case sqlparser.TokIdent, sqlparser.TokKeyword, sqlparser.TokNumber, sqlparser.TokString:
				kept = append(kept, tok)
			}
		}
		if len(kept) == 0 {
			return
		}
		tok := kept[int(pick)%len(kept)]
		var changed string
		switch {
		case tok.Kind == sqlparser.TokString || sql[tok.Pos] == '"':
			changed = sql[:tok.Pos+1] + "q" + sql[tok.Pos+1:]
		case tok.Kind == sqlparser.TokNumber:
			changed = sql[:tok.Pos+len(tok.Text)] + "7" + sql[tok.Pos+len(tok.Text):]
		default: // an identifier or keyword, which q turns into another identifier
			changed = sql[:tok.Pos+len(tok.Text)] + "q" + sql[tok.Pos+len(tok.Text):]
		}
		if c, ok := PlanKey(changed, "c", "0"); ok && c.Key == tm.Key {
			t.Fatalf("changing %q left the key:\n%q\n%q", tok.Text, sql, changed)
		}
	})
}
