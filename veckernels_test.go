package presto

// End-to-end differential coverage for the filter kernels over hash-heavy
// statements: every query runs twice — once on the default path and once on
// an Interpreted cluster, the independent reference — and the result sets
// must be identical. (The hash operators have one implementation; their
// per-row reference and its differentials live in internal/operators.) This
// is the kernel analogue of the cache and chaos differential suites.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/workload"
)

// vecDiffQueries stresses each kernelized hot path: single- and multi-key
// grouped aggregation, DISTINCT and count(DISTINCT), hash joins (including a
// double-vs-bigint key join), selective filters over flat columns, and
// varchar keys that exercise the byte-arena table layout.
var vecDiffQueries = []string{
	// Grouped aggregation: bigint keys (fixed-cell fast path) and varchar
	// keys (byte-key fallback).
	"SELECT l_returnflag, l_shipmode, sum(l_quantity), count(*) FROM tpch.lineitem GROUP BY l_returnflag, l_shipmode ORDER BY l_returnflag, l_shipmode",
	"SELECT l_suppkey, count(*), sum(l_extendedprice) FROM tpch.lineitem GROUP BY l_suppkey",
	"SELECT o_orderpriority, count(*) FROM tpch.orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
	// DISTINCT paths.
	"SELECT DISTINCT l_returnflag, l_shipmode FROM tpch.lineitem",
	"SELECT count(DISTINCT l_suppkey) FROM tpch.lineitem",
	"SELECT l_returnflag, count(DISTINCT l_shipmode) FROM tpch.lineitem GROUP BY l_returnflag",
	// Hash joins over the shuffle.
	"SELECT c_mktsegment, count(*) FROM tpch.orders JOIN tpch.customer ON o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment",
	// Selective filters: high, medium, and low selectivity over flat columns,
	// plus IN/BETWEEN/LIKE shapes the selection kernels specialize on.
	"SELECT count(*) FROM tpch.lineitem WHERE l_quantity < 2",
	"SELECT count(*) FROM tpch.lineitem WHERE l_quantity <= 25",
	"SELECT sum(l_extendedprice) FROM tpch.lineitem WHERE l_discount BETWEEN 0.05 AND 0.07",
	"SELECT count(*) FROM tpch.lineitem WHERE l_shipmode IN ('MAIL', 'AIR')",
	"SELECT count(*) FROM tpch.lineitem WHERE l_shipmode NOT IN ('MAIL', 'AIR') AND l_quantity > 10",
	"SELECT count(*) FROM tpch.orders WHERE o_orderpriority LIKE '%URGENT'",
	"SELECT count(*) FROM tpch.lineitem WHERE NOT (l_quantity > 10 AND l_discount < 0.05)",
	// Aggregation on a double expression (double group keys).
	"SELECT l_discount, count(*) FROM tpch.lineitem GROUP BY l_discount",
}

// kernelClusters starts the default cluster and the interpreted reference
// that the differentials below compare.
func kernelClusters(t *testing.T) (vec, interp *Cluster) {
	t.Helper()
	vec = NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(vec.Close)
	interp = NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, Interpreted: true})
	t.Cleanup(interp.Close)
	return vec, interp
}

// TestVecKernelsDifferentialTPCH asserts the kernels and the interpreter
// agree on the TPC-H workload.
func TestVecKernelsDifferentialTPCH(t *testing.T) {
	c, interp := kernelClusters(t)
	for _, cl := range []*Cluster{c, interp} {
		cl.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	}
	for _, q := range vecDiffQueries {
		vec := stringifyRows(execSession(t, c, q, Session{}))
		ref := stringifyRows(execSession(t, interp, q, Session{}))
		assertRows(t, q, vec, ref)
	}
}

// TestVecKernelsDifferentialEdgeData builds a table holding the hash-key
// edge cases — NULLs, -0.0, integral doubles, empty-vs-NULL varchar — and
// runs group-by/join/distinct queries on both paths.
func TestVecKernelsDifferentialEdgeData(t *testing.T) {
	c, interp := kernelClusters(t)
	rows := []string{
		"(0, 0.0, '')",
		"(0, -0.0, '')",
		"(1, 1.0, 'a')",
		"(1, 1.5, 'a')",
		"(2, 2.0, NULL)",
		"(NULL, NULL, '')",
		"(NULL, 2.0, NULL)",
		"(3, 3.0, 'b')",
		"(0, 0.5, 'b')",
	}
	for _, cl := range []*Cluster{c, interp} {
		mustExec(t, cl, "CREATE TABLE e (k BIGINT, d DOUBLE, s VARCHAR)")
		for _, r := range rows {
			mustExec(t, cl, "INSERT INTO e VALUES "+r)
		}
	}
	queries := []string{
		"SELECT d, count(*) FROM e GROUP BY d",
		"SELECT s, count(*) FROM e GROUP BY s",
		"SELECT k, d, s, count(*) FROM e GROUP BY k, d, s",
		"SELECT DISTINCT s FROM e",
		"SELECT count(DISTINCT d) FROM e",
		// Double-vs-bigint join keys: 0.0/-0.0/1.0/2.0/3.0 match, 0.5/1.5
		// and NULLs do not.
		"SELECT a.k, b.d FROM e a JOIN e b ON a.k = b.d",
		"SELECT count(*) FROM e WHERE d >= 1.0",
		"SELECT count(*) FROM e WHERE s = ''",
		"SELECT count(*) FROM e WHERE s IS NULL",
	}
	// +0.0 and -0.0 are one group key, and which of the two a group shows is
	// whichever row reached the hash table first — arrival order across
	// splits, which neither path promises. Only the DOUBLE group-key column
	// of the two GROUP BY queries is folded; every other output, the join's
	// b.d included, is compared exactly.
	groupKeyCol := map[string]int{queries[0]: 0, queries[2]: 1}
	foldGroupKey := func(q string, rows []string) []string {
		col, ok := groupKeyCol[q]
		if !ok {
			return rows
		}
		for i, r := range rows {
			fields := strings.Split(r, "|")
			if fields[col] == "-0" {
				fields[col] = "0"
			}
			rows[i] = strings.Join(fields, "|")
		}
		sort.Strings(rows)
		return rows
	}
	for _, q := range queries {
		vec := foldGroupKey(q, stringifyRows(execSession(t, c, q, Session{})))
		ref := foldGroupKey(q, stringifyRows(execSession(t, interp, q, Session{})))
		assertRows(t, q, vec, ref)
	}
	// Sanity anchors (not just vec==interpreted): -0.0 groups with +0.0, and the
	// bigint 0 rows join both zero doubles.
	got := stringifyRows(execSession(t, c, "SELECT count(*) FROM e GROUP BY d HAVING d = 0.0", Session{}))
	if len(got) != 1 || got[0] != "2" {
		t.Errorf("d=0.0 group: got %v, want one group of 2 (+0.0 and -0.0 merged)", got)
	}
}

// TestVecKernelsDifferentialRandom mirrors the cache differential harness:
// random data, random-ish query mix, kernels vs interpreter.
func TestVecKernelsDifferentialRandom(t *testing.T) {
	c, interp := kernelClusters(t)
	for _, cl := range []*Cluster{c, interp} {
		mustExec(t, cl, "CREATE TABLE r (k BIGINT, v BIGINT, s VARCHAR)")
	}
	seed := int64(17)
	vals := ""
	for i := 0; i < 400; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		k := int64(math.Abs(float64(seed % 20)))
		v := seed % 50
		s := []string{"aa", "ab", "ba", "bb", "cc"}[int(math.Abs(float64(seed%5)))]
		vv := fmt.Sprintf("%d", v)
		if seed%10 == 0 {
			vv = "NULL"
		}
		if vals != "" {
			vals += ", "
		}
		vals += fmt.Sprintf("(%d, %s, '%s')", k, vv, s)
		if (i+1)%50 == 0 {
			for _, cl := range []*Cluster{c, interp} {
				mustExec(t, cl, "INSERT INTO r VALUES "+vals)
			}
			vals = ""
		}
	}
	queries := []string{
		"SELECT k, count(*), sum(v) FROM r GROUP BY k",
		"SELECT s, k, count(*) FROM r GROUP BY s, k",
		"SELECT DISTINCT k, s FROM r",
		"SELECT k, count(DISTINCT s) FROM r GROUP BY k",
		"SELECT a.k, count(*) FROM r a JOIN r b ON a.k = b.v GROUP BY a.k",
		"SELECT count(*) FROM r WHERE v BETWEEN -10 AND 10",
		"SELECT s, sum(v) FROM r WHERE s LIKE 'a%' GROUP BY s",
		"SELECT count(*) FROM r WHERE v IS NULL",
	}
	for _, q := range queries {
		vec := stringifyRows(execSession(t, c, q, Session{}))
		ref := stringifyRows(execSession(t, interp, q, Session{}))
		assertRows(t, q, vec, ref)
	}
}

func execSession(t *testing.T, c *Cluster, q string, s Session) [][]Value {
	t.Helper()
	// The arms these harnesses compare may differ only in execution switches,
	// which share result-cache entries by design — a cached serve of the other
	// arm's rows would make the comparison vacuous.
	s.Switches |= exec.DisableResultCache
	res, err := c.ExecuteSession(q, s)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows
}
