package presto

import (
	"strings"
	"testing"
)

// TestBigintDoubleJoinKey: an equality of a BIGINT and a DOUBLE column
// compares CAST(bigint AS DOUBLE) with the double. The join keys on the cast
// — its EXPLAIN shows a key, not a cross join — and returns exactly the rows
// the comparison admits: 0 meets −0.0, NULL and NaN meet nothing, and
// 2⁵³ + 1, which no double holds, meets 2⁵³ as its cast rounds to. A cast
// that can fail is no key: it stays in the residual, so a row that meets no
// partner is never cast.
func TestBigintDoubleJoinKey(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	mustExec(t, c, "CREATE TABLE ck_p (id BIGINT, k BIGINT)")
	mustExec(t, c, "INSERT INTO ck_p SELECT * FROM (VALUES (1, 0), (2, CAST(NULL AS BIGINT)), "+
		"(3, 9007199254740993), (4, 5), (5, 7))")
	mustExec(t, c, "CREATE TABLE ck_b (id BIGINT, k DOUBLE)")
	mustExec(t, c, "INSERT INTO ck_b SELECT * FROM (VALUES (10, CAST('-0' AS DOUBLE)), (11, CAST(NULL AS DOUBLE)), "+
		"(12, CAST('NaN' AS DOUBLE)), (13, 9007199254740992.0), (14, 5.0), (15, 5.5), (16, 5.0))")
	mustExec(t, c, "CREATE TABLE ck_s (x BIGINT, s VARCHAR)")
	mustExec(t, c, "INSERT INTO ck_s SELECT * FROM (VALUES (1, '0'), (4, '6'), (9, 'abc'))")

	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT p.id, b.id FROM ck_p p JOIN ck_b b ON p.k = b.k",
			[]string{"1|10", "3|13", "4|14", "4|16"}},
		{"SELECT p.id, b.id FROM ck_b b JOIN ck_p p ON b.k = p.k",
			[]string{"1|10", "3|13", "4|14", "4|16"}},
		{"SELECT p.id, b.id FROM ck_p p LEFT JOIN ck_b b ON p.k = b.k",
			[]string{"1|10", "2|NULL", "3|13", "4|14", "4|16", "5|NULL"}},
		{"SELECT p.id, b.id FROM ck_p p RIGHT JOIN ck_b b ON p.k = b.k AND b.id <> 16",
			[]string{"1|10", "3|13", "4|14", "NULL|11", "NULL|12", "NULL|15", "NULL|16"}},
		// ck_s's 'abc' has no partner on x: CAST('abc' AS BIGINT) would fail.
		{"SELECT p.id, s.x FROM ck_p p LEFT JOIN ck_s s ON p.id = s.x AND CAST(s.s AS BIGINT) = p.k",
			[]string{"1|1", "2|NULL", "3|NULL", "4|NULL", "5|NULL"}},
	} {
		var plan strings.Builder
		for _, row := range mustExec(t, c, "EXPLAIN "+tc.sql) {
			plan.WriteString(row[0].String())
		}
		if strings.Contains(plan.String(), "CROSSJoin") || strings.Contains(plan.String(), "Join[]") {
			t.Errorf("%s plans without a join key:\n%s", tc.sql, plan.String())
		}
		assertRows(t, tc.sql, stringifyRows(mustExec(t, c, tc.sql)), tc.want)
	}
}
