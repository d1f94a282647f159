package presto

// Result-cache tests: a cached result outlives the appends its scans could
// not have read, and is served without binding a plan.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/raptor"
	"repro/internal/connectors/shardsql"
	"repro/internal/exec"
	"repro/internal/orcish"
	"repro/internal/types"
)

// TestResultCacheAppendsDifferential interleaves a seeded stream of INSERTs —
// single rows and several, on hot keys, cold keys and NULL keys, and one
// INSERT … SELECT — with reads of every kind of scan domain: a point, an IN
// list, ranges, two constrained columns, IS NULL, a point or NULL, no
// predicate, a join and a self-join. Midway the table is dropped and created
// again. Every answer must be the one the same statement gives with the
// result cache off, and some answers must have come from entries re-stamped
// past an append. It runs over the memory catalog (seedN), over raptor and
// over a hive lake; there, once, a data file is also rewritten by another
// program.
func TestResultCacheAppendsDifferential(t *testing.T) {
	for _, catalog := range []string{"memory", "raptor", "lake"} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprint("seed", seed)
			if catalog != "memory" {
				name = catalog + "_" + name
			}
			t.Run(name, func(t *testing.T) { appendsDifferential(t, catalog, seed) })
		}
	}
}

func appendsDifferential(t *testing.T, catalog string, seed int64) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	var lake string // the hive catalog's directory
	switch catalog {
	case "raptor":
		c.Register(raptor.New(catalog, 2))
	case "lake":
		lake = t.TempDir()
		conn, err := hive.New(catalog, hive.Config{Dir: lake, StripeRows: 4})
		if err != nil {
			t.Fatal(err)
		}
		c.Register(conn)
	}
	ev, dim := catalog+".ev", catalog+".dim"
	create := func() {
		mustExec(t, c, "CREATE TABLE "+ev+" (k BIGINT, v BIGINT)")
		mustExec(t, c, "INSERT INTO "+ev+" SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (50, 2), (CAST(NULL AS BIGINT), 3))")
	}
	create()
	mustExec(t, c, "CREATE TABLE "+dim+" (k BIGINT, name VARCHAR)")
	mustExec(t, c, "INSERT INTO "+dim+" SELECT * FROM (VALUES (1, 'one'), (2, 'two'), (3, 'three'), (50, 'fifty'))")

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
		switch rng.Intn(10) {
		case 0:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM %s WHERE k = %d", ev, k)
		case 6:
			return fmt.Sprintf("SELECT count(*) FROM %s WHERE k IN (%d, 7) AND v = 2", ev, k)
		case 7:
			return fmt.Sprintf("SELECT count(*), sum(a.v) FROM %s a JOIN %s b ON a.v = b.v WHERE a.k = %d AND b.k = %d", ev, ev, k, 1+rng.Intn(4))
		case 8:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM %s WHERE k = %d OR k IS NULL", ev, k)
		case 1:
			return fmt.Sprintf("SELECT k, count(*) FROM %s WHERE k IN (%d, %d, 50) GROUP BY k", ev, k, k+1)
		case 2:
			return fmt.Sprintf("SELECT count(*), sum(v) FROM %s WHERE k BETWEEN %d AND %d", ev, k, k+2)
		case 3:
			return fmt.Sprintf("SELECT count(*) FROM %s WHERE k > %d", ev, 100+k*20)
		case 4:
			return "SELECT count(*), sum(v) FROM " + ev + " WHERE k IS NULL"
		case 5:
			return "SELECT count(*), sum(v) FROM " + ev
		}
		return fmt.Sprintf("SELECT d.name, count(*), sum(e.v) FROM %s e JOIN %s d ON e.k = d.k WHERE e.k = %d GROUP BY d.name", ev, dim, k)
	}
	off := Session{Switches: exec.DisableResultCache}
	const ops = 400
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case i == ops/2:
			mustExec(t, c, "DROP TABLE "+ev)
			create()
		case i == ops/3:
			mustExec(t, c, "INSERT INTO "+ev+" SELECT k + 1000, v FROM "+ev+" WHERE k = 2")
		case i == ops/4 && lake != "":
			sql := "SELECT count(*), sum(v) FROM " + ev
			servingRun(t, c, sql, Session{}) // cached before the rewrite
			rewriteOutside(t, filepath.Join(lake, "ev"))
			assertRows(t, "after a file was rewritten outside: "+sql, servingRun(t, c, sql, Session{}), servingRun(t, c, sql, off))
		case r < 2:
			mustExec(t, c, fmt.Sprintf("INSERT INTO %s SELECT * FROM (VALUES (%s, 1))", ev, key()))
		case r < 3:
			rows := make([]string, 2+rng.Intn(3))
			for j := range rows {
				rows[j] = fmt.Sprintf("(%s, %d)", key(), 1+rng.Intn(3))
			}
			mustExec(t, c, "INSERT INTO "+ev+" SELECT * FROM (VALUES "+strings.Join(rows, ", ")+")")
		default:
			sql := read()
			got := servingRun(t, c, sql, Session{})
			assertRows(t, fmt.Sprintf("op %d: %s", i, sql), got, servingRun(t, c, sql, off))
		}
	}
	st := c.ServingStats().Result
	t.Logf("result cache: %+v", st)
	if st.Hits == 0 || catalog != "lake" && (st.Restamps == 0 || st.Hits <= st.Restamps) {
		t.Errorf("no result outlived an append: %+v", st)
	}
}

// rewriteOutside rewrites the largest data file of a hive table directory as
// another program would: same path and columns (k, v), other rows.
func rewriteOutside(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.orcish"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no data file in %s: %v", dir, err)
	}
	largest, size := "", int64(-1)
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil && fi.Size() > size {
			largest, size = f, fi.Size()
		}
	}
	cols := []orcish.ColumnMeta{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	page := block.NewPage(block.NewLongBlock([]int64{2, 3, 60}, nil), block.NewLongBlock([]int64{7, 7, 7}, nil))
	if err := orcish.WriteFile(largest, cols, []*block.Page{page}, 4); err != nil {
		t.Fatal(err)
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

// TestIsNullConstrainsTheScan: col IS NULL and col = c OR col IS NULL each
// push a domain that admits NULL into the scan. A cached result of either
// outlives an append that holds no NULL and none of its points, and not one
// that holds a NULL.
func TestIsNullConstrainsTheScan(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE ev (k BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES (1, 1), (3, 1), (CAST(NULL AS BIGINT), 2))")
	reads := map[string]string{
		"SELECT count(*), sum(v) FROM ev WHERE k IS NULL":          "{k:IN(NULL)}",
		"SELECT count(*), sum(v) FROM ev WHERE k = 3 OR k IS NULL": "{k:IN(3,NULL)}",
	}
	for sql, domain := range reads {
		text, err := c.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "Scan[memory.ev "+domain+"]") {
			t.Errorf("%s: the scan is not constrained to %s:\n%s", sql, domain, text)
		}
	}
	off := Session{Switches: exec.DisableResultCache}
	check := func(when string, hit bool) {
		t.Helper()
		for sql := range reads {
			before := c.ServingStats().Result
			assertRows(t, when+": "+sql, servingRun(t, c, sql, Session{}), servingRun(t, c, sql, off))
			if after := c.ServingStats().Result; (after.Hits > before.Hits) != hit {
				t.Errorf("%s: %s: a hit is %v, want %v (%+v -> %+v)", when, sql, !hit, hit, before, after)
			}
		}
	}
	check("first read", false)
	check("repeat", true)
	mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES (7, 1))")
	restamps := c.ServingStats().Result.Restamps
	check("after an append of k = 7", true)
	if got := c.ServingStats().Result.Restamps; got != restamps+int64(len(reads)) {
		t.Errorf("%d restamps past the append of k = 7, want %d", got-restamps, len(reads))
	}
	mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES (CAST(NULL AS BIGINT), 5))")
	check("after an append of a NULL k", false)
}

// TestContradictoryPointsReadNothing: a conjunction of points no value meets
// is the empty set, also where the connector enforces the column's
// constraint itself (a sharded table routes by it) and the filter is gone.
func TestContradictoryPointsReadNothing(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(shardsql.New("mysql", 4))
	mustExec(t, c, "CREATE TABLE mysql.ev (k BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO mysql.ev SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (CAST(NULL AS BIGINT), 2))")
	for sql, want := range map[string]int64{
		"SELECT count(*) FROM mysql.ev WHERE k = 1 AND k = 3":                      0,
		"SELECT count(*) FROM mysql.ev WHERE k IN (1, 2) AND k IN (3, 4)":          0,
		"SELECT count(*) FROM mysql.ev WHERE k = 3 AND (k = 1 OR k IS NULL)":       0,
		"SELECT count(*) FROM mysql.ev WHERE k IS NULL":                            1,
		"SELECT count(*) FROM mysql.ev WHERE k = 3 OR k IS NULL":                   2,
		"SELECT count(*) FROM mysql.ev WHERE k IN (1, 3) AND (k = 3 OR k IS NULL)": 1,
	} {
		if rows := mustExec(t, c, sql); rows[0][0].I != want {
			t.Errorf("%s = %v, want %d", sql, rows[0][0], want)
		}
	}
}
