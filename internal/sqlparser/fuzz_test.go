package sqlparser

import (
	"reflect"
	"testing"
)

// FuzzParser throws arbitrary strings at the parser: it must either return a
// statement or an error, never panic or hang. Malformed SQL arrives verbatim
// over POST /v1/statement, so the parser is a direct network-input surface.
func FuzzParser(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT count(*) FROM t WHERE k BETWEEN 1 AND 5",
		"SELECT s, sum(v) FROM d GROUP BY s HAVING sum(v) > 0 ORDER BY s DESC LIMIT 3",
		"SELECT a.k FROM d a JOIN e b ON a.k = b.k WHERE a.s LIKE '%x%'",
		"SELECT k, row_number() OVER (PARTITION BY s ORDER BY v) FROM d",
		"SELECT CASE WHEN v > 0 THEN 'p' ELSE 'n' END FROM d",
		"SELECT transform(ARRAY[1,2,3], x -> x + 1)",
		"INSERT INTO d SELECT * FROM (VALUES (1, NULL, 'x'))",
		"CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR)",
		"CREATE TABLE t AS SELECT * FROM d",
		"DROP TABLE IF EXISTS t",
		"SHOW TABLES FROM hive",
		"DESCRIBE d",
		"EXPLAIN ANALYZE SELECT 1",
		"SELECT * FROM (VALUES (1, ((",
		"SELECT 'unterminated",
		"SELECT /* comment",
		"((((((((((",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", sql)
		}
	})
}

// FuzzExprKey: two expressions of a parsed statement have one Key exactly when
// they are the same tree, literal slots aside (a subquery is the same tree
// only as itself). The analyzer matches aggregates, GROUP BY keys and window
// calls by this text, so text that merged two trees merged two results.
func FuzzExprKey(f *testing.F) {
	for _, s := range []string{
		"SELECT sum(CASE WHEN a < 30 THEN 1 ELSE 0 END), sum(CASE WHEN a >= 30 THEN 1 ELSE 0 END)",
		"SELECT a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2, s LIKE 'x%', s NOT LIKE 'x%'",
		"SELECT a IN (1, 2), a NOT IN (1, 2), a IN (SELECT 1), a IN (SELECT 1)",
		`SELECT "a.b", a.b, "TRUE", TRUE, "it""s", 'it''s', (ARRAY)[1], ARRAY[1], "array"`,
		"SELECT rank() OVER (PARTITION BY a ORDER BY b DESC), rank() OVER (PARTITION BY a ORDER BY b)",
		"SELECT count(*), count(DISTINCT a), count(a), CASE a WHEN 1 THEN 2 END, CAST(a AS bigint)",
		"SELECT transform(ARRAY[1, 2], x -> x + 1), transform(ARRAY[1, 2], (x) -> x + 1), -a, - -a",
		"SELECT DATE '2020-01-01', INTERVAL '3' DAY, EXTRACT(year FROM d), NULL, a IS NOT NULL",
		"SELECT 1 FROM t WHERE EXISTS (SELECT 1) AND EXISTS (SELECT 1) GROUP BY a HAVING sum(b) > 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		var exprs []Expr
		collectExprs(reflect.ValueOf(stmt), &exprs)
		if len(exprs) > 64 {
			exprs = exprs[:64]
		}
		for i, a := range exprs {
			for _, b := range exprs[:i] {
				text, tree := Key(a) == Key(b), sameTree(reflect.ValueOf(a), reflect.ValueOf(b))
				if text != tree {
					t.Fatalf("%s and %s: equal text %v, same tree %v", a, b, text, tree)
				}
			}
		}
	})
}

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// collectExprs appends every expression node under v.
func collectExprs(v reflect.Value, out *[]Expr) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if v.Kind() == reflect.Pointer && v.Type().Implements(exprType) {
			*out = append(*out, v.Interface().(Expr))
		}
		collectExprs(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			collectExprs(v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			collectExprs(v.Index(i), out)
		}
	}
}

// sameTree compares two parse trees field by field, but for slots; a nil
// slice equals an empty one, and a query only itself.
func sameTree(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Type() == reflect.TypeOf((*Query)(nil)) {
			return a.Pointer() == b.Pointer()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).Name != "Slot" && !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}
