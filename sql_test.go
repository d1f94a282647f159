package presto

// SQL semantics tests: each exercises one dialect behaviour end to end
// through parse → analyze → optimize → distributed execution.

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

func sqlCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(c.Close)
	mustExec(t, c, "CREATE TABLE people (id BIGINT, name VARCHAR, age BIGINT, city VARCHAR)")
	mustExec(t, c, `INSERT INTO people SELECT * FROM (VALUES
		(1, 'alice', 30, 'SF'), (2, 'bob',   25, 'NY'), (3, 'carol', 35, 'SF'),
		(4, 'dave',  28, 'LA'), (5, 'erin',  25, 'NY'), (6, 'frank', NULL, 'SF'))`)
	return c
}

func queryErr(t *testing.T, c *Cluster, sql string) error {
	t.Helper()
	_, err := c.Query(sql)
	if err == nil {
		t.Fatalf("query %q should fail", sql)
	}
	return err
}

func TestSQLWhereCombinations(t *testing.T) {
	c := sqlCluster(t)
	cases := []struct {
		where string
		want  int
	}{
		{"age > 26", 3},
		{"age >= 25 AND city = 'NY'", 2},
		{"city = 'SF' OR city = 'LA'", 4},
		{"age BETWEEN 25 AND 30", 4},
		{"name LIKE '%a%'", 4}, // alice, carol, dave, frank
		{"name NOT LIKE 'a%'", 5},
		{"city IN ('SF', 'LA')", 4},
		{"age IN (30, NULL)", 1},     // a non-member is NULL, a member still true
		{"age NOT IN (30, NULL)", 0}, // no row is definitely outside a list with a NULL
		{"age IS NULL", 1},
		{"age IS NOT NULL", 5},
		{"NOT (city = 'SF')", 3},
	}
	for _, cs := range cases {
		rows := mustExec(t, c, "SELECT id FROM people WHERE "+cs.where)
		if len(rows) != cs.want {
			t.Errorf("WHERE %s: got %d rows, want %d", cs.where, len(rows), cs.want)
		}
	}
}

func TestSQLNullComparisonsExcludeRows(t *testing.T) {
	c := sqlCluster(t)
	// frank's NULL age must not satisfy any comparison.
	rows := mustExec(t, c, "SELECT id FROM people WHERE age > 0 OR age <= 0")
	if len(rows) != 5 {
		t.Errorf("NULL row leaked through comparisons: %d rows", len(rows))
	}
}

func TestSQLAggregatesWithNulls(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow("SELECT count(*), count(age), sum(age), min(age), max(age), avg(age) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 6 || row[1].I != 5 {
		t.Errorf("counts: %v", row)
	}
	if row[2].I != 143 || row[3].I != 25 || row[4].I != 35 {
		t.Errorf("sum/min/max: %v", row)
	}
	if row[5].F != 143.0/5 {
		t.Errorf("avg ignores nulls: %v", row[5])
	}
}

func TestSQLCountDistinct(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow("SELECT count(DISTINCT city), count(DISTINCT age) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 3 || row[1].I != 4 {
		t.Errorf("distinct counts: %v", row)
	}
}

func TestSQLGroupByHaving(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, `
		SELECT city, count(*) AS n FROM people
		GROUP BY city HAVING count(*) >= 2 ORDER BY n DESC, city`)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0].S != "SF" || rows[0][1].I != 3 {
		t.Errorf("first group: %v", rows[0])
	}
}

func TestSQLOrderByNullsLast(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT name, age FROM people ORDER BY age")
	if rows[len(rows)-1][0].S != "frank" {
		t.Errorf("NULL age should sort last: %v", rows)
	}
}

func TestSQLDistinct(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT DISTINCT city FROM people ORDER BY city")
	if len(rows) != 3 || rows[0][0].S != "LA" {
		t.Errorf("distinct: %v", rows)
	}
}

func TestSQLCaseExpression(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, `
		SELECT name, CASE WHEN age >= 30 THEN 'senior' WHEN age >= 26 THEN 'mid' ELSE 'junior' END
		FROM people WHERE age IS NOT NULL ORDER BY id`)
	if rows[0][1].S != "senior" || rows[1][1].S != "junior" || rows[3][1].S != "mid" {
		t.Errorf("case: %v", rows)
	}
}

func TestSQLScalarFunctions(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow(`SELECT upper(name), length(name), substr(name, 1, 2), coalesce(age, -1)
		FROM people WHERE id = 6`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].S != "FRANK" || row[1].I != 5 || row[2].S != "fr" || row[3].I != -1 {
		t.Errorf("functions: %v", row)
	}
}

func TestSQLUnionAllAndDistinct(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT city FROM people UNION ALL SELECT city FROM people")
	if len(rows) != 12 {
		t.Errorf("union all: %d", len(rows))
	}
	rows = mustExec(t, c, "SELECT city FROM people UNION SELECT city FROM people")
	if len(rows) != 3 {
		t.Errorf("union distinct: %d", len(rows))
	}
}

func TestSQLSubqueryInFrom(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow(`
		SELECT max(n) FROM (SELECT city, count(*) AS n FROM people GROUP BY city) x`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 3 {
		t.Errorf("nested agg: %v", row)
	}
}

func TestSQLInSubquery(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE vip (id BIGINT)")
	mustExec(t, c, "INSERT INTO vip SELECT * FROM (VALUES (1), (3), (99))")
	rows := mustExec(t, c, "SELECT name FROM people WHERE id IN (SELECT id FROM vip) ORDER BY name")
	if len(rows) != 2 || rows[0][0].S != "alice" || rows[1][0].S != "carol" {
		t.Errorf("in subquery: %v", rows)
	}
	rows = mustExec(t, c, "SELECT count(*) FROM people WHERE id NOT IN (SELECT id FROM vip)")
	if rows[0][0].I != 4 {
		t.Errorf("not in subquery: %v", rows)
	}
}

func TestSQLScalarSubquery(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT name FROM people WHERE age > (SELECT avg(age) FROM people) ORDER BY name")
	// avg = 28.6 → alice(30), carol(35)
	if len(rows) != 2 {
		t.Errorf("scalar subquery: %v", rows)
	}
}

func TestSQLExists(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE empty_t (x BIGINT)")
	rows := mustExec(t, c, "SELECT count(*) FROM people WHERE EXISTS (SELECT 1 FROM people WHERE age > 100)")
	if rows[0][0].I != 0 {
		t.Errorf("exists over empty result: %v", rows)
	}
	rows = mustExec(t, c, "SELECT count(*) FROM people WHERE EXISTS (SELECT 1 FROM people WHERE age > 30)")
	if rows[0][0].I != 6 {
		t.Errorf("exists: %v", rows)
	}
}

func TestSQLWindowFunctions(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, `
		SELECT name, city, row_number() OVER (PARTITION BY city ORDER BY age) AS rn
		FROM people WHERE age IS NOT NULL
		ORDER BY city, rn`)
	byCity := map[string][]int64{}
	for _, r := range rows {
		byCity[r[1].S] = append(byCity[r[1].S], r[2].I)
	}
	for city, rns := range byCity {
		for i, rn := range rns {
			if rn != int64(i+1) {
				t.Errorf("%s row numbers: %v", city, rns)
			}
		}
	}
	// rank with ties: bob and erin share age 25 in NY.
	rows = mustExec(t, c, `
		SELECT name, rank() OVER (ORDER BY age) FROM people WHERE city = 'NY'`)
	if rows[0][1].I != 1 || rows[1][1].I != 1 {
		t.Errorf("rank ties: %v", rows)
	}
}

func TestSQLWindowRunningSum(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, `
		SELECT name, sum(age) OVER (ORDER BY id) FROM people WHERE age IS NOT NULL ORDER BY id`)
	if rows[0][1].I != 30 || rows[1][1].I != 55 || rows[4][1].I != 143 {
		t.Errorf("running sum: %v", rows)
	}
}

func TestSQLCTE(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow(`
		WITH sf AS (SELECT * FROM people WHERE city = 'SF'),
		     old AS (SELECT * FROM sf WHERE age > 30)
		SELECT count(*) FROM old`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 1 {
		t.Errorf("cte: %v", row)
	}
}

func TestSQLCrossJoin(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow("SELECT count(*) FROM people a CROSS JOIN people b")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 36 {
		t.Errorf("cross join: %v", row)
	}
}

func TestSQLSelfJoin(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, `
		SELECT a.name, b.name
		FROM people a JOIN people b ON a.city = b.city AND a.id < b.id
		ORDER BY a.name, b.name`)
	if len(rows) != 4 { // SF: 3 pairs, NY: 1 pair
		t.Errorf("self join pairs: %v", rows)
	}
}

func TestSQLFullOuterJoin(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE cities (city VARCHAR, pop BIGINT)")
	mustExec(t, c, "INSERT INTO cities SELECT * FROM (VALUES ('SF', 800), ('CHI', 2700))")
	rows := mustExec(t, c, `
		SELECT p.city, c.city FROM (SELECT DISTINCT city FROM people) p
		FULL JOIN cities c ON p.city = c.city`)
	var matched, leftOnly, rightOnly int
	for _, r := range rows {
		switch {
		case !r[0].Null && !r[1].Null:
			matched++
		case r[1].Null:
			leftOnly++
		default:
			rightOnly++
		}
	}
	if matched != 1 || leftOnly != 2 || rightOnly != 1 {
		t.Errorf("full join: matched=%d left=%d right=%d", matched, leftOnly, rightOnly)
	}
}

func TestSQLRightJoin(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE pets (owner BIGINT, pet VARCHAR)")
	mustExec(t, c, "INSERT INTO pets SELECT * FROM (VALUES (1, 'cat'), (99, 'dog'))")
	rows := mustExec(t, c, "SELECT people.name, pets.pet FROM pets RIGHT JOIN people ON pets.owner = people.id")
	if len(rows) != 6 {
		t.Fatalf("right join rows: %d", len(rows))
	}
	withPet := 0
	for _, r := range rows {
		if !r[1].Null {
			withPet++
		}
	}
	if withPet != 1 {
		t.Errorf("rows with pets: %d", withPet)
	}
}

func TestSQLJoinUsing(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE salaries (id BIGINT, salary BIGINT)")
	mustExec(t, c, "INSERT INTO salaries SELECT * FROM (VALUES (1, 100), (2, 200))")
	rows := mustExec(t, c, "SELECT people.name, salaries.salary FROM people JOIN salaries USING (id) ORDER BY salary")
	if len(rows) != 2 || rows[1][1].I != 200 {
		t.Errorf("using join: %v", rows)
	}
}

func TestSQLLimitOffset(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 3")
	if len(rows) != 2 || rows[0][0].I != 4 || rows[1][0].I != 5 {
		t.Errorf("limit/offset: %v", rows)
	}
}

func TestSQLCastAndConcat(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow("SELECT CAST('42' AS BIGINT) + 1, 'id=' || CAST(7 AS VARCHAR)")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 43 || row[1].S != "id=7" {
		t.Errorf("cast/concat: %v", row)
	}
}

func TestSQLCastErrorFailsQuery(t *testing.T) {
	c := sqlCluster(t)
	err := queryErr(t, c, "SELECT CAST(name AS BIGINT) FROM people")
	if !strings.Contains(err.Error(), "cast") && !strings.Contains(err.Error(), "BIGINT") {
		t.Errorf("error: %v", err)
	}
}

func TestSQLDateLiteralsAndFunctions(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow(`
		SELECT year(DATE '2018-09-15'), month(DATE '2018-09-15'),
		       DATE '2018-09-15' + INTERVAL '30' DAY`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 2018 || row[1].I != 9 {
		t.Errorf("date parts: %v", row)
	}
	if row[2].String() != "2018-10-15" {
		t.Errorf("date arithmetic: %v", row[2])
	}
}

func TestSQLLambdas(t *testing.T) {
	c := sqlCluster(t)
	row, err := c.QueryRow(`SELECT
		transform(ARRAY[1, 2, 3], x -> x * x),
		filter(ARRAY[1, 2, 3, 4], x -> x % 2 = 0),
		reduce(ARRAY[1, 2, 3, 4], 0, (acc, x) -> acc + x),
		cardinality(ARRAY[1, 2])`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].A[2].I != 9 {
		t.Errorf("transform: %v", row[0])
	}
	if len(row[1].A) != 2 {
		t.Errorf("filter: %v", row[1])
	}
	if row[2].I != 10 {
		t.Errorf("reduce: %v", row[2])
	}
	if row[3].I != 2 {
		t.Errorf("cardinality: %v", row[3])
	}
}

func TestSQLShowTablesAndDrop(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SHOW TABLES")
	names := []string{}
	for _, r := range rows {
		names = append(names, r[0].S)
	}
	if !sort.StringsAreSorted(names) {
		t.Error("SHOW TABLES should be sorted")
	}
	mustExec(t, c, "DROP TABLE people")
	queryErr(t, c, "SELECT 1 FROM people")
	mustExec(t, c, "DROP TABLE IF EXISTS people") // idempotent with IF EXISTS
}

func TestSQLExplainShowsDistributedPlan(t *testing.T) {
	c := sqlCluster(t)
	text, err := c.Explain("SELECT city, count(*) FROM people GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fragment", "PARTIAL", "FINAL", "RemoteSource"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestSQLErrorsAreClean(t *testing.T) {
	c := sqlCluster(t)
	cases := []string{
		"SELECT bogus_column FROM people",
		"SELECT bogus_func(1)",
		"SELECT * FROM people WHERE name > 5",
		"SELECT sum(name) FROM people",
		"FROBNICATE everything",
	}
	for _, sql := range cases {
		if _, err := c.Query(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestSQLEmptyTableBehaviour(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE nothing (x BIGINT)")
	row, err := c.QueryRow("SELECT count(*), sum(x), min(x) FROM nothing")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 0 || !row[1].Null || !row[2].Null {
		t.Errorf("empty aggregates: %v", row)
	}
	rows := mustExec(t, c, "SELECT x FROM nothing WHERE x > 0")
	if len(rows) != 0 {
		t.Errorf("empty scan: %v", rows)
	}
}

func TestSQLGroupByEmptyInput(t *testing.T) {
	c := sqlCluster(t)
	mustExec(t, c, "CREATE TABLE nothing (x BIGINT)")
	rows := mustExec(t, c, "SELECT x, count(*) FROM nothing GROUP BY x")
	if len(rows) != 0 {
		t.Errorf("group by over empty input should yield no rows: %v", rows)
	}
}

func TestSQLValuesDirect(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "VALUES (1, 'a'), (2, 'b')")
	if len(rows) != 2 || rows[1][1].S != "b" {
		t.Errorf("values: %v", rows)
	}
}

func TestSQLTypeCoercionInUnion(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "SELECT 1 UNION ALL SELECT 2.5")
	for _, r := range rows {
		if r[0].T != types.Double {
			t.Errorf("union should widen to double: %v", r[0].T)
		}
	}
}

func TestSQLConcurrentQueries(t *testing.T) {
	c := sqlCluster(t)
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func() {
			_, err := c.Query("SELECT city, count(*) FROM people GROUP BY city")
			errs <- err
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestSQLDescribeAndShowCatalogs(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "DESCRIBE people")
	if len(rows) != 4 || rows[0][0].S != "id" || rows[0][1].S != "BIGINT" {
		t.Errorf("describe: %v", rows)
	}
	rows = mustExec(t, c, "SHOW CATALOGS")
	if len(rows) != 1 || rows[0][0].S != "memory" {
		t.Errorf("catalogs: %v", rows)
	}
}

func TestSQLExplainAnalyze(t *testing.T) {
	c := sqlCluster(t)
	rows := mustExec(t, c, "EXPLAIN ANALYZE SELECT city, count(*) FROM people GROUP BY city")
	text := ""
	for _, r := range rows {
		text += r[0].S + "\n"
	}
	for _, want := range []string{"Fragment", "wall:", "task CPU:", "output rows: 3",
		// The switches the statement ran under: none set.
		"switches: defaults",
		// Per-operator breakdown appended from the stats rollup.
		"Operator stats:", "TableScan", "HashAggregation", "pipeline", "drivers",
		"cpu ", "blocked ", "peak mem",
		// Where the scanning stage's splits went.
		"Tasks: ", "(rows ", ", skew "} {
		if !strings.Contains(text, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, text)
		}
	}
}
