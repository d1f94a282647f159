package presto

// Result-cache tests: a cached result outlives the appends its scans could
// not have read, and is served without binding a plan.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/connectors/shardsql"
	"repro/internal/exec"
)

// TestResultCacheAppendsDifferential interleaves a seeded stream of INSERTs —
// single rows and several, on hot keys, cold keys and NULL keys, and one
// INSERT … SELECT — with reads of every kind of scan domain: a point, an IN
// list, ranges, two constrained columns, IS NULL (no domain), no predicate,
// a join and a self-join. Midway the
// table is dropped and created again. Every answer must be the one the same
// statement gives with the result cache off, and some answers must have come
// from entries re-stamped past an append.
func TestResultCacheAppendsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { appendsDifferential(t, seed) })
	}
}

func appendsDifferential(t *testing.T, seed int64) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	create := func() {
		mustExec(t, c, "CREATE TABLE ev (k BIGINT, v BIGINT)")
		mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (50, 2), (CAST(NULL AS BIGINT), 3))")
	}
	create()
	mustExec(t, c, "CREATE TABLE dim (k BIGINT, name VARCHAR)")
	mustExec(t, c, "INSERT INTO dim SELECT * FROM (VALUES (1, 'one'), (2, 'two'), (3, 'three'), (50, 'fifty'))")

	rng := rand.New(rand.NewSource(seed))
	key := func() string {
		switch r := rng.Intn(10); {
		case r < 6:
			return fmt.Sprint(1 + rng.Intn(4)) // hot
		case r < 9:
			return fmt.Sprint(10 + rng.Intn(200)) // cold
		default:
			return "CAST(NULL AS BIGINT)"
		}
	}
	read := func() string {
		k := 1 + rng.Intn(4)
		switch rng.Intn(9) {
		case 0:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM ev WHERE k = %d", k)
		case 6:
			return fmt.Sprintf("SELECT count(*) FROM ev WHERE k IN (%d, 7) AND v = 2", k)
		case 7:
			return fmt.Sprintf("SELECT count(*), sum(a.v) FROM ev a JOIN ev b ON a.v = b.v WHERE a.k = %d AND b.k = %d", k, 1+rng.Intn(4))
		case 1:
			return fmt.Sprintf("SELECT k, count(*) FROM ev WHERE k IN (%d, %d, 50) GROUP BY k", k, k+1)
		case 2:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM ev WHERE k BETWEEN %d AND %d", k, k+2)
		case 3:
			return fmt.Sprintf("SELECT count(*) FROM ev WHERE k > %d", 100+k*20)
		case 4:
			return "SELECT count(*), sum(v) FROM ev WHERE k IS NULL"
		case 5:
			return "SELECT count(*), sum(v) FROM ev"
		}
		return fmt.Sprintf("SELECT d.name, count(*), sum(e.v) FROM ev e JOIN dim d ON e.k = d.k WHERE e.k = %d GROUP BY d.name", k)
	}
	off := Session{Switches: exec.DisableResultCache}
	const ops = 400
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case i == ops/2:
			mustExec(t, c, "DROP TABLE ev")
			create()
		case i == ops/3:
			mustExec(t, c, "INSERT INTO ev SELECT k + 1000, v FROM ev WHERE k = 2")
		case r < 2:
			mustExec(t, c, fmt.Sprintf("INSERT INTO ev SELECT * FROM (VALUES (%s, 1))", key()))
		case r < 3:
			rows := make([]string, 2+rng.Intn(3))
			for j := range rows {
				rows[j] = fmt.Sprintf("(%s, %d)", key(), 1+rng.Intn(3))
			}
			mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES "+strings.Join(rows, ", ")+")")
		default:
			sql := read()
			got := servingRun(t, c, sql, Session{})
			assertRows(t, fmt.Sprintf("op %d: %s", i, sql), got, servingRun(t, c, sql, off))
		}
	}
	st := c.ServingStats().Result
	t.Logf("result cache: %+v", st)
	if st.Restamps == 0 || st.Hits <= st.Restamps {
		t.Errorf("no result outlived an append: %+v", st)
	}
}

// TestResultCacheShardSQLDifferential runs the stream of
// TestResultCacheAppendsDifferential against a sharded-MySQL table: seeded
// INSERTs on keys the reads look up and on keys they do not, between point,
// IN-list, range, unconstrained and join reads, and one DROP and CREATE
// midway. Two clusters take every statement, each with its own connector: one
// with the serving caches at their defaults, one with the result cache off.
// Every answer must be the same, some must be re-stamped past an append, and
// a read repeated with no write between must be a result hit.
func TestResultCacheShardSQLDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { shardsqlDifferential(t, seed) })
	}
}

func shardsqlDifferential(t *testing.T, seed int64) {
	cached := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer cached.Close()
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	defer ref.Close()
	cached.Register(shardsql.New("mysql", 4))
	ref.Register(shardsql.New("mysql", 4))
	both := func(sql string) {
		t.Helper()
		mustExec(t, cached, sql)
		mustExec(t, ref, sql)
	}
	create := func() {
		both("CREATE TABLE mysql.ev (k BIGINT, v BIGINT)")
		both("INSERT INTO mysql.ev SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (50, 2))")
	}
	create()
	both("CREATE TABLE mysql.dim (k BIGINT, name VARCHAR)")
	both("INSERT INTO mysql.dim SELECT * FROM (VALUES (1, 'one'), (2, 'two'), (3, 'three'), (50, 'fifty'))")

	rng := rand.New(rand.NewSource(seed))
	key := func() int {
		if rng.Intn(10) < 6 {
			return 1 + rng.Intn(4) // a key the reads look up
		}
		return 10 + rng.Intn(200) // one only the wide ranges and full scans see
	}
	read := func() string {
		k := 1 + rng.Intn(4)
		switch rng.Intn(7) {
		case 0:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM mysql.ev WHERE k = %d", k)
		case 1:
			return fmt.Sprintf("SELECT k, count(*) FROM mysql.ev WHERE k IN (%d, %d, 50) GROUP BY k", k, k+1)
		case 2:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM mysql.ev WHERE k BETWEEN %d AND %d", k, k+2)
		case 3:
			return fmt.Sprintf("SELECT count(*) FROM mysql.ev WHERE k > %d", 100+k*20)
		case 4:
			return "SELECT count(*), sum(v) FROM mysql.ev"
		case 5:
			return fmt.Sprintf("SELECT count(*), sum(a.v) FROM mysql.ev a JOIN mysql.ev b ON a.v = b.v WHERE a.k = %d AND b.k = %d", k, 1+rng.Intn(4))
		}
		return fmt.Sprintf("SELECT d.name, count(*), sum(e.v) FROM mysql.ev e JOIN mysql.dim d ON e.k = d.k WHERE e.k = %d GROUP BY d.name", k)
	}
	const ops = 300
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case i == ops/2:
			both("DROP TABLE mysql.ev")
			create()
		case r < 2:
			both(fmt.Sprintf("INSERT INTO mysql.ev SELECT * FROM (VALUES (%d, 1))", key()))
		case r < 3:
			rows := make([]string, 2+rng.Intn(3))
			for j := range rows {
				rows[j] = fmt.Sprintf("(%d, %d)", key(), 1+rng.Intn(3))
			}
			both("INSERT INTO mysql.ev SELECT * FROM (VALUES " + strings.Join(rows, ", ") + ")")
		default:
			sql := read()
			assertRows(t, fmt.Sprintf("op %d: %s", i, sql), servingRun(t, cached, sql, Session{}), servingRun(t, ref, sql, Session{}))
		}
	}
	st := cached.ServingStats().Result
	t.Logf("result cache: %+v", st)
	if st.Restamps == 0 || st.Hits <= st.Restamps || st.Skipped != 0 {
		t.Errorf("no sharded result outlived an append, or one was skipped: %+v", st)
	}
	for _, sql := range []string{read(), read(), read()} {
		want := servingRun(t, ref, sql, Session{})
		servingRun(t, cached, sql, Session{})
		hits := cached.ServingStats().Result.Hits
		assertRows(t, "repeat: "+sql, servingRun(t, cached, sql, Session{}), want)
		if cached.ServingStats().Result.Hits != hits+1 {
			t.Errorf("repeat of %s with no write between was not a result hit", sql)
		}
	}
}

// TestPlanKeyKeepsIdentifierSpelling: statements that differ in an
// identifier's case share no plan, so each answers under its own label.
func TestPlanKeyKeepsIdentifierSpelling(t *testing.T) {
	c := sqlCluster(t)
	for _, q := range []struct{ sql, label, name string }{
		{"SELECT Name FROM people WHERE id = 1", "Name", "alice"},
		{"SELECT name FROM people WHERE id = 2", "name", "bob"},
		{"SELECT Name FROM people WHERE id = 3", "Name", "carol"},
		{"SELECT name FROM people WHERE id = 2", "name", "bob"},
	} {
		res, err := c.Execute(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Columns) != 1 || res.Columns[0] != q.label || len(rows) != 1 || rows[0][0].S != q.name {
			t.Errorf("%s: %v %v, want [%s] [[%s]]", q.sql, res.Columns, rows, q.label, q.name)
		}
	}
}

// TestResultHitByteBudget: a result-cache hit on a plan template with other
// literals than the template's binds no plan. While a hit was bound first,
// such a hit allocated 4 818 bytes (the bound copies of both plans and the
// pushdown answer); served unbound it allocates 1 786.
func TestResultHitByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	// 1.4 x the 1 786 bytes measured when this was written.
	const budget = 2500
	c := eventsClusterWith(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 1})
	bytesPerStatement(t, c, 0, 200) // plans the template on key 0 and caches each key's result
	hits := c.ServingStats().Result.Hits
	got := bytesPerStatement(t, c, 1, 199)
	if n := c.ServingStats().Result.Hits - hits; n != 199 {
		t.Fatalf("%d of 199 repeats were result-cache hits", n)
	}
	t.Logf("%.0f bytes per result-cache hit", got)
	if got > budget {
		t.Errorf("a result-cache hit allocates %.0f bytes, budget %d", got, budget)
	}
}
