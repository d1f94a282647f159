package presto

// Expression identity: the analyzer matches aggregates, GROUP BY keys and
// window calls by sqlparser.Key, and the fragmenter and CSE match IR subtrees
// by expr.CanonicalKey. Each statement here has two
// expressions that an earlier printer rendered alike, so it computed one of
// them twice.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/connectors/tpch"
	"repro/internal/workload"
)

func TestExpressionIdentity(t *testing.T) {
	c := sqlCluster(t)
	for _, tc := range []struct {
		sql  string
		want []int64
	}{
		{`SELECT sum(CASE WHEN age < 30 THEN 1 ELSE 0 END), sum(CASE WHEN age >= 30 THEN 1 ELSE 0 END) FROM people`,
			[]int64{3, 2}},
		{`SELECT sum(CASE WHEN age BETWEEN 25 AND 28 THEN 1 ELSE 0 END),
		        sum(CASE WHEN age NOT BETWEEN 25 AND 28 THEN 1 ELSE 0 END) FROM people`, []int64{3, 2}},
		{`SELECT sum(CASE WHEN name LIKE 'a%' THEN 1 ELSE 0 END),
		        sum(CASE WHEN name NOT LIKE 'a%' THEN 1 ELSE 0 END) FROM people`, []int64{1, 5}},
		{`SELECT sum(CAST(city IN ('SF') AS BIGINT)), sum(CAST(city IN ('NY') AS BIGINT)) FROM people`,
			[]int64{3, 2}},
		{`SELECT sum(a.age), sum(b.age) FROM people a JOIN people b ON a.id = b.id + 1`, []int64{113, 143}},
		{`SELECT ARRAY[5, 6][2]`, []int64{6}},
	} {
		row, err := c.QueryRow(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		for i, want := range tc.want {
			if row[i].Null || row[i].I != want {
				t.Errorf("%s: column %d is %v, want %d", tc.sql, i, row[i], want)
			}
		}
	}

	// The select list's CASE is not the grouped one.
	err := queryErr(t, c, `SELECT CASE WHEN age < 30 THEN 'young' ELSE 'old' END, count(*) FROM people
		GROUP BY CASE WHEN age < 28 THEN 'young' ELSE 'old' END`)
	if !strings.Contains(err.Error(), `column "age" must appear in GROUP BY`) {
		t.Errorf("ungrouped CASE failed with %v, want age not in GROUP BY", err)
	}

	// Messages print a subquery without the token that keys it.
	for sql, want := range map[string]string{
		`SELECT id FROM people WHERE sum(age) > (SELECT 1)`:                  "aggregate function sum(age) is not allowed here",
		`SELECT id FROM people WHERE sum(id) OVER (ORDER BY (SELECT 1)) > 0`: "window function sum(id) OVER (ORDER BY (subquery)) in unsupported position",
		`SELECT id FROM people UNION SELECT 1 ORDER BY (SELECT 1)`:           "ORDER BY expression (subquery) must appear in the select list",
	} {
		if err := queryErr(t, c, sql); !strings.Contains(err.Error(), want) {
			t.Errorf("%s failed with %v, want %q", sql, err, want)
		}
	}

	// ORDER BY sorts by its own sum, not the select list's other one.
	rows := mustExec(t, c, `SELECT city, sum(CASE WHEN age < 30 THEN 1 ELSE 0 END) FROM people
		GROUP BY city ORDER BY sum(CASE WHEN age >= 30 THEN 1 ELSE 0 END), city`)
	if got := fmt.Sprint(rows); got != "[[LA 1] [NY 2] [SF 0]]" {
		t.Errorf("ORDER BY sum(CASE ...) gave %s, want [[LA 1] [NY 2] [SF 0]]", got)
	}

	text, err := c.Explain(`SELECT ARRAY[5, 6][2]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "_col0:BIGINT") {
		t.Errorf("an ARRAY literal's element is not typed BIGINT:\n%s", text)
	}
}

// TestOrderByMatchesAcrossSlots: an ORDER BY expression is the select item
// it spells, though the plan cache lifts each of their literals into its own
// slot (the analyzer's test of that name checks the plan). A statement planned
// the first time, planned from its template and planned with the plan cache
// off gives one answer.
func TestOrderByMatchesAcrossSlots(t *testing.T) {
	cached := sqlCluster(t)
	fresh := sqlClusterWith(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisablePlanCache: true})
	for _, tc := range []struct{ sql, want string }{
		{`SELECT DISTINCT age + 1 FROM people ORDER BY age + 1`, "[[26] [29] [31] [36] [NULL]]"},
		{`SELECT age + 1 FROM people WHERE age > 25 ORDER BY age + 1`, "[[29] [31] [36]]"},
		{`SELECT DISTINCT CASE WHEN age < 30 THEN 'young' ELSE 'old' END FROM people
			ORDER BY CASE WHEN age < 30 THEN 'young' ELSE 'old' END`, "[[old] [young]]"},
	} {
		for i := 0; i < 2; i++ {
			if got := fmt.Sprint(mustExec(t, cached, tc.sql)); got != tc.want {
				t.Errorf("run %d of %s gave %s, want %s", i+1, tc.sql, got, tc.want)
			}
		}
		if got := fmt.Sprint(mustExec(t, fresh, tc.sql)); got != tc.want {
			t.Errorf("%s without the plan cache gave %s, want %s", tc.sql, got, tc.want)
		}
	}
}

// TestCaseSumsStayOneTemplate: two CASE sums whose literals are equal but sit
// in different slots are two aggregates, so the plan stays a template, and a
// statement with other literals runs it and gets its own sums.
func TestCaseSumsStayOneTemplate(t *testing.T) {
	c := sqlCluster(t)
	q := "SELECT sum(CASE WHEN age < %d THEN 1 ELSE 0 END), sum(CASE WHEN age >= %d THEN 1 ELSE 0 END) FROM people"
	mustExec(t, c, fmt.Sprintf(q, 30, 30))
	before := c.Coordinator.ServingStats().Plan.Hits
	row, err := c.QueryRow(fmt.Sprintf(q, 28, 35))
	if err != nil {
		t.Fatal(err)
	}
	if c.Coordinator.ServingStats().Plan.Hits == before {
		t.Error("the statement with other literals missed the template")
	}
	if row[0].I != 2 || row[1].I != 1 {
		t.Errorf("bound to 28 and 35 the sums are %v, want [2 1]", row)
	}
}

// TestFig6ConditionalSums checks Fig. 6 q09's five bucket sums and q80's
// sold and returned sums against loops over the generator's rows.
func TestFig6ConditionalSums(t *testing.T) {
	const scale = 0.05
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", scale))
	queries := map[string]string{}
	for _, q := range workload.Fig6Queries("tpch") {
		queries[q.ID] = q.SQL
	}

	col := func(table, name string) int {
		for i, cl := range tpch.Columns(table) {
			if cl.Name == name {
				return i
			}
		}
		t.Fatalf("no column %s.%s", table, name)
		return -1
	}
	brand := map[int64]string{}
	for _, p := range tpch.Generate("part", scale, 4096) {
		for r := 0; r < p.RowCount(); r++ {
			brand[p.Col(col("part", "p_partkey")).Long(r)] = p.Col(col("part", "p_brand")).Str(r)
		}
	}
	var buckets [5]float64
	type soldReturned struct{ sold, returned float64 }
	perBrand := map[string]*soldReturned{}
	for _, p := range tpch.Generate("lineitem", scale, 4096) {
		for r := 0; r < p.RowCount(); r++ {
			qty := p.Col(col("lineitem", "l_quantity")).Double(r)
			price := p.Col(col("lineitem", "l_extendedprice")).Double(r)
			for b := range buckets {
				if qty >= float64(10*b+1) && qty <= float64(10*b+10) {
					buckets[b] += price
				}
			}
			br, ok := brand[p.Col(col("lineitem", "l_partkey")).Long(r)]
			if !ok {
				continue
			}
			if perBrand[br] == nil {
				perBrand[br] = &soldReturned{}
			}
			if p.Col(col("lineitem", "l_returnflag")).Str(r) == "R" {
				perBrand[br].returned += price
			} else {
				perBrand[br].sold += price
			}
		}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }

	row, err := c.QueryRow(queries["q09"])
	if err != nil {
		t.Fatal(err)
	}
	for b, want := range buckets {
		if !near(row[b].F, want) {
			t.Errorf("q09 bucket %d: %v, want %v", b, row[b].F, want)
		}
	}
	rows, err := c.Query(queries["q80"])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(perBrand) {
		t.Fatalf("q80: %d brands, want %d", len(rows), len(perBrand))
	}
	for _, r := range rows {
		want := perBrand[r[0].S]
		if want == nil || !near(r[1].F, want.sold) || !near(r[2].F, want.returned) {
			t.Errorf("q80 %s: sold %v returned %v, want %+v", r[0].S, r[1].F, r[2].F, want)
		}
	}
}
