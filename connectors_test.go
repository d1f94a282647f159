package presto

import (
	"fmt"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/kvconn"
	"repro/internal/connectors/raptor"
	"repro/internal/connectors/shardsql"
	"repro/internal/types"
)

func TestHiveConnectorEndToEnd(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	hv, err := hive.New("hive", hive.Config{Dir: t.TempDir(), CollectStats: true, LazyReads: true, StripeRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(hv)

	mustExec(t, c, "CREATE TABLE hive.events (id BIGINT, kind VARCHAR, val DOUBLE)")
	mustExec(t, c, `INSERT INTO hive.events
		SELECT * FROM (VALUES
			(1, 'click', 1.5), (2, 'view', 2.0), (3, 'click', 0.5),
			(4, 'buy', 9.9), (5, 'view', 3.0), (6, 'click', 4.5))`)

	row, err := c.QueryRow("SELECT count(*), sum(val) FROM hive.events WHERE kind = 'click'")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 3 || row[1].F != 6.5 {
		t.Fatalf("got %v", row)
	}

	// Stripe skipping: a predicate excluding every id should read no rows.
	row, err = c.QueryRow("SELECT count(*) FROM hive.events WHERE id > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 0 {
		t.Fatalf("want 0, got %v", row)
	}
}

func TestRaptorColocatedJoin(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	rp := raptor.New("raptor", 2)
	c.Register(rp)

	cols := []connector.Column{{Name: "id", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	if err := rp.CreateBucketedTable("a", cols, "id", 4); err != nil {
		t.Fatal(err)
	}
	cols2 := []connector.Column{{Name: "id", T: types.Bigint}, {Name: "w", T: types.Bigint}}
	if err := rp.CreateBucketedTable("b", cols2, "id", 4); err != nil {
		t.Fatal(err)
	}
	var aRows, bRows [][]types.Value
	for i := int64(0); i < 100; i++ {
		aRows = append(aRows, []types.Value{types.BigintValue(i), types.BigintValue(i * 2)})
		if i%2 == 0 {
			bRows = append(bRows, []types.Value{types.BigintValue(i), types.BigintValue(i * 3)})
		}
	}
	if err := rp.LoadRows("a", aRows); err != nil {
		t.Fatal(err)
	}
	if err := rp.LoadRows("b", bRows); err != nil {
		t.Fatal(err)
	}

	// The plan must use a co-located join (no shuffle).
	text, err := c.Explain("SELECT count(*) FROM raptor.a JOIN raptor.b ON a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(text, "COLOCATED") {
		t.Fatalf("expected colocated join in plan:\n%s", text)
	}
	row, err := c.QueryRow("SELECT count(*), sum(a.v + b.w) FROM raptor.a JOIN raptor.b ON a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 50 {
		t.Fatalf("want 50 matches, got %v", row)
	}
	// sum over even i in [0,100): 2i + 3i = 5i → 5 * sum(0,2,...,98) = 5*2450
	if row[1].I != 5*2450 {
		t.Fatalf("want %d, got %v", 5*2450, row)
	}
}

func TestShardSQLPushdown(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	sq := shardsql.New("mysql", 8)
	c.Register(sq)

	cols := []connector.Column{
		{Name: "app_id", T: types.Bigint},
		{Name: "metric", T: types.Varchar},
		{Name: "v", T: types.Double},
	}
	if err := sq.CreateShardedTable("metrics", cols, "app_id"); err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for app := int64(0); app < 50; app++ {
		for m := 0; m < 10; m++ {
			rows = append(rows, []types.Value{
				types.BigintValue(app),
				types.VarcharValue(fmt.Sprintf("m%d", m)),
				types.DoubleValue(float64(app) + float64(m)/10),
			})
		}
	}
	if err := sq.LoadRows("metrics", rows); err != nil {
		t.Fatal(err)
	}
	row, err := c.QueryRow("SELECT count(*) FROM mysql.metrics WHERE app_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 10 {
		t.Fatalf("want 10, got %v", row)
	}
}

// TestIndexJoinKeepsBuildConstraint: a join whose build side is a
// constrained scan of an indexed table returns only the rows the constraint
// admits. As an index join it looked up every probe key and dropped the
// constraint, so a point read on one side joined every row of the other.
func TestIndexJoinKeepsBuildConstraint(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(shardsql.New("mysql", 4))
	mustExec(t, c, "CREATE TABLE mysql.ev (k BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO mysql.ev SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (50, 2))")
	mustExec(t, c, "CREATE TABLE mysql.dim (k BIGINT, name VARCHAR)")
	mustExec(t, c, "INSERT INTO mysql.dim SELECT * FROM (VALUES (1, 'one'), (2, 'two'), (3, 'three'), (50, 'fifty'))")
	for k, want := range map[int]string{2: "two|1|1", 50: "fifty|1|2"} {
		sql := fmt.Sprintf("SELECT d.name, count(*), sum(e.v) FROM mysql.ev e JOIN mysql.dim d ON e.k = d.k WHERE e.k = %d GROUP BY d.name", k)
		assertRows(t, sql, servingRun(t, c, sql, Session{}), []string{want})
	}
}

func TestKVIndexJoin(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	kv := kvconn.New("kv")
	c.Register(kv)
	cols := []connector.Column{{Name: "user_id", T: types.Varchar}, {Name: "country", T: types.Varchar}}
	if err := kv.CreateTable("users", cols); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		country := "US"
		if i%3 == 0 {
			country = "DE"
		}
		kv.Put("users", []types.Value{types.VarcharValue(fmt.Sprintf("u%d", i)), types.VarcharValue(country)})
	}
	mustExec(t, c, "CREATE TABLE events (user_id VARCHAR, clicks BIGINT)")
	mustExec(t, c, `INSERT INTO events SELECT * FROM (VALUES
		('u0', 5), ('u1', 3), ('u3', 7), ('u99', 1))`)

	text, err := c.Explain("SELECT e.user_id, u.country FROM events e JOIN kv.users u ON e.user_id = u.user_id")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(text, "INDEX") {
		t.Fatalf("expected index join in plan:\n%s", text)
	}
	rows := mustExec(t, c, `
		SELECT e.user_id, u.country, e.clicks
		FROM events e JOIN kv.users u ON e.user_id = u.user_id
		ORDER BY e.user_id`)
	if len(rows) != 3 { // u99 has no match
		t.Fatalf("want 3 rows, got %v", rows)
	}
	if rows[0][1].S != "DE" { // u0 divisible by 3
		t.Fatalf("got %v", rows[0])
	}

	// A LEFT index join applies its residual: a probe row whose match fails
	// it is NULL-extended, as the hash join against a memory copy of the
	// table does.
	const left = `SELECT e.user_id, u.country, e.clicks FROM events e LEFT JOIN %s u
		ON e.user_id = u.user_id AND e.clicks > 4`
	if text, err := c.Explain(fmt.Sprintf(left, "kv.users")); err != nil || !contains(text, "INDEX") {
		t.Fatalf("expected an index join with a residual in plan (%v):\n%s", err, text)
	}
	mustExec(t, c, "CREATE TABLE users_copy AS SELECT * FROM kv.users")
	want := []string{"u0|DE|5", "u1|NULL|3", "u3|DE|7", "u99|NULL|1"}
	for _, table := range []string{"kv.users", "users_copy"} {
		query := fmt.Sprintf(left, table)
		assertRows(t, query, stringifyRows(mustExec(t, c, query)), want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRaptorIndexJoinSeesWrites: an index join against a raptor table, and a
// lookup of its index, find rows written after CreateIndex — by LoadRows and
// by an INSERT.
func TestRaptorIndexJoinSeesWrites(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	rp := raptor.New("raptor", 2)
	c.Register(rp)
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "name", T: types.Varchar}}
	if err := rp.CreateBucketedTable("dim", cols, "k", 4); err != nil {
		t.Fatal(err)
	}
	if err := rp.LoadRows("dim", [][]types.Value{{types.BigintValue(1), types.VarcharValue("one")}}); err != nil {
		t.Fatal(err)
	}
	if err := rp.CreateIndex("dim", "k"); err != nil {
		t.Fatal(err)
	}
	if err := rp.LoadRows("dim", [][]types.Value{{types.BigintValue(2), types.VarcharValue("two")}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO raptor.dim SELECT * FROM (VALUES (3, 'three'))")
	mustExec(t, c, "CREATE TABLE ev (k BIGINT, clicks BIGINT)")
	mustExec(t, c, "INSERT INTO ev SELECT * FROM (VALUES (1, 10), (2, 20), (3, 30), (4, 40))")
	const q = "SELECT e.k, d.name, e.clicks FROM ev e JOIN raptor.dim d ON e.k = d.k ORDER BY e.k"
	if text, err := c.Explain(q); err != nil || !contains(text, "INDEX") {
		t.Fatalf("expected an index join in plan (%v):\n%s", err, text)
	}
	assertRows(t, q, stringifyRows(mustExec(t, c, q)), []string{"1|one|10", "2|two|20", "3|three|30"})
	idx, ok := rp.Index("dim", []string{"k"}, []string{"name"})
	if !ok {
		t.Fatal("index not found")
	}
	for k, want := range map[int64]string{2: "two", 3: "three"} {
		if p, err := idx.Lookup([]types.Value{types.BigintValue(k)}); err != nil || p == nil || p.Col(0).Str(0) != want {
			t.Errorf("lookup %d: %v %v, want %s", k, p, err, want)
		}
	}
}
