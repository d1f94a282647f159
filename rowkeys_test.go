package presto

import (
	"fmt"
	"testing"

	"repro/internal/connectors/hive"
	"repro/internal/connectors/kvconn"
	"repro/internal/connectors/shardsql"
)

// keyRows are four VARCHAR keys: NULL and 'NULL', which render alike, the
// empty string and 'a'.
const keyRows = "INSERT INTO %s SELECT * FROM (VALUES ('a', 1), ('', 2), ('NULL', 3), (CAST(NULL AS VARCHAR), 4))"

// TestNullAndNullStringAreTwoKeys: a stored row's key tells NULL from the
// VARCHAR 'NULL'. shardsql routed and looked rows up by their rendering, so a
// point read of 'NULL' also found the NULL row (and, the shard column being
// enforced, no filter dropped it); kvconn stored both under one key, so the
// second write replaced the first.
func TestNullAndNullStringAreTwoKeys(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	defer c.Close()
	c.Register(shardsql.New("mysql", 4))
	c.Register(kvconn.New("kv"))
	for _, table := range []string{"mysql.s", "kv.s"} {
		mustExec(t, c, "CREATE TABLE "+table+" (k VARCHAR, v BIGINT)")
		mustExec(t, c, fmt.Sprintf(keyRows, table))
		for where, want := range map[string]int64{
			"":                         4,
			"WHERE k = 'NULL'":         1,
			"WHERE k IS NULL":          1,
			"WHERE k = ''":             1,
			"WHERE k IN ('NULL', 'a')": 2,
		} {
			sql := "SELECT count(*) FROM " + table + " " + where
			if rows := mustExec(t, c, sql); rows[0][0].I != want {
				t.Errorf("%s = %v, want %d", sql, rows[0][0], want)
			}
		}
		if rows := mustExec(t, c, "SELECT v FROM "+table+" WHERE k = 'NULL'"); len(rows) != 1 || rows[0][0].I != 3 {
			t.Errorf("%s: k = 'NULL' read %v, want the one row of v = 3", table, rows)
		}
	}
}

// TestEmptyVarcharRangeReadsNothing: two ranges that do not overlap make the
// empty set, on a VARCHAR column as on any other. Its representation was the
// BIGINT range [1, 0], which the empty VARCHAR compared into, so shardsql,
// which enforces its shard column's constraint, returned that row.
func TestEmptyVarcharRangeReadsNothing(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	defer c.Close()
	c.Register(shardsql.New("mysql", 4))
	lake, err := hive.New("lake", hive.Config{Dir: t.TempDir(), StripeRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(lake)
	for _, table := range []string{"mysql.s", "lake.s"} {
		mustExec(t, c, "CREATE TABLE "+table+" (k VARCHAR, v BIGINT)")
		mustExec(t, c, fmt.Sprintf(keyRows, table))
		for where, want := range map[string]int64{
			"WHERE k > 'b' AND k < 'a'":                           0,
			"WHERE k >= 'a' AND k <= 'a'":                         1,
			"WHERE (k < '' OR k > 'z') AND k BETWEEN 'a' AND 'b'": 0,
			"WHERE k > 'b' AND k < 'a' OR k = 'NULL'":             1,
		} {
			sql := "SELECT count(*) FROM " + table + " " + where
			if rows := mustExec(t, c, sql); rows[0][0].I != want {
				t.Errorf("%s = %v, want %d", sql, rows[0][0], want)
			}
		}
	}
}
