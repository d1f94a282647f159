package presto

// End-to-end differential coverage for the vectorized projection engine:
// every query runs under the ablation matrix — columnar kernels with morsel
// and static scheduling and with the hash/filter kernels off — and on a fully
// interpreted cluster, and the result sets must be identical, in-process and
// over the HTTP-distributed cluster. Division-by-zero must raise the same
// error in every mode, and filter/CASE guards must suppress it in every
// mode.

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/workload"
)

// projDiffQueries stresses the projection hot paths: arithmetic over bigint
// and double columns, shared subtrees (CSE), concat, CASE, casts, boolean
// projections, and projection over encoded inputs.
var projDiffQueries = []string{
	// TPC-H q1 projection shape: the shared product must survive CSE.
	"SELECT l_returnflag, sum(l_extendedprice * (1 - l_discount)), sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) FROM tpch.lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
	// q6 shape: filtered arithmetic projection.
	"SELECT sum(l_extendedprice * l_discount) FROM tpch.lineitem WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
	// Long arithmetic, nested, with division over a nonzero column.
	"SELECT l_orderkey + l_linenumber * 2, l_orderkey - l_linenumber, l_orderkey / l_linenumber, l_orderkey % l_linenumber FROM tpch.lineitem WHERE l_orderkey < 200",
	// Negation and mixed long/double arithmetic.
	"SELECT -l_quantity, l_quantity * l_discount, l_extendedprice / 100.0 FROM tpch.lineitem WHERE l_suppkey = 1",
	// Varchar concat over dictionary-encoded inputs.
	"SELECT l_returnflag || '/' || l_shipmode, count(*) FROM tpch.lineitem GROUP BY l_returnflag || '/' || l_shipmode",
	// CASE projection, including a branch-guarded division.
	"SELECT CASE WHEN l_quantity > 25 THEN 'big' WHEN l_quantity > 10 THEN 'mid' ELSE 'small' END, count(*) FROM tpch.lineitem GROUP BY 1 ORDER BY 1",
	"SELECT sum(CASE WHEN l_linenumber <> 0 THEN l_orderkey / l_linenumber ELSE 0 END) FROM tpch.lineitem",
	// Boolean-valued projections.
	"SELECT l_quantity < 10, l_shipmode IN ('MAIL', 'AIR'), count(*) FROM tpch.lineitem GROUP BY 1, 2 ORDER BY 1, 2",
	"SELECT l_returnflag LIKE 'A%', l_shipinstruct IS NULL, count(*) FROM tpch.lineitem GROUP BY 1, 2 ORDER BY 1, 2",
	// Casts both directions.
	"SELECT CAST(l_quantity AS DOUBLE) / 2, CAST(l_discount * 100 AS BIGINT) FROM tpch.lineitem WHERE l_orderkey < 100",
	// Constant projection folding (RLE output path).
	"SELECT 42, 'k', l_orderkey FROM tpch.lineitem WHERE l_orderkey < 50",
}

// projMatrix is the session ablation matrix for the projection engine.
var projMatrix = []struct {
	name string
	s    Session
}{
	{"vec+morsel", Session{}},
	{"vec+static", Session{Switches: exec.DisableMorsels}},
	{"novec-kernels", Session{Switches: exec.DisableVectorKernels}},
}

// TestVecProjDifferentialTPCH runs the projection workload under the full
// ablation matrix plus a fully interpreted cluster; all arms must agree.
func TestVecProjDifferentialTPCH(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	interp := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, Interpreted: true})
	defer interp.Close()
	interp.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	for _, q := range projDiffQueries {
		base := stringifyRows(execSession(t, c, q, projMatrix[0].s))
		for _, m := range projMatrix[1:] {
			got := stringifyRows(execSession(t, c, q, m.s))
			assertRows(t, q+" ["+m.name+"]", got, base)
		}
		assertRows(t, q+" [interpreted]", stringifyRows(execSession(t, interp, q, Session{})), base)
	}
}

// TestVecProjDifferentialEdgeData covers the value-level edge cases through
// SQL: NULL operands, -0.0, doubles equal to ints, empty and NULL varchar,
// and zero divisors behind guards.
func TestVecProjDifferentialEdgeData(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	interp := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 2, Interpreted: true})
	defer interp.Close()
	for _, cl := range []*Cluster{c, interp} {
		mustExec(t, cl, "CREATE TABLE pe (k BIGINT, v BIGINT, d DOUBLE, s VARCHAR)")
		for _, r := range []string{
			"(1, 2, 0.0, 'a')",
			"(2, 0, -0.0, '')",
			"(3, NULL, 2.0, NULL)",
			"(NULL, 3, 2.5, 'bb')",
			"(0, -4, -3.5, 'a')",
			"(5, 5, 1e18, 'ccc')",
			"(NULL, NULL, NULL, NULL)",
		} {
			mustExec(t, cl, "INSERT INTO pe VALUES "+r)
		}
	}
	queries := []string{
		"SELECT k + v, k * v, -k FROM pe",
		"SELECT d + 0.0, d * -1.0, -d FROM pe",
		"SELECT CAST(k AS DOUBLE) + d FROM pe",
		"SELECT s || '!', s || s FROM pe",
		"SELECT k IS NULL, s = '', d >= 0.0 FROM pe",
		"SELECT CASE WHEN v <> 0 THEN k / v ELSE NULL END FROM pe",
		"SELECT CASE WHEN v > 0 AND v <> 0 THEN 100 % v ELSE -1 END FROM pe",
		"SELECT k BETWEEN 0 AND 3, v IN (2, 3, -4) FROM pe",
		"SELECT k / v FROM pe WHERE v <> 0",
		"SELECT 7, 'const', k FROM pe",
		// Predicates with no selection kernel: col-vs-col and arithmetic
		// operands, alone and behind a kernelized conjunct.
		"SELECT k, v FROM pe WHERE k < v",
		"SELECT k, d FROM pe WHERE k > 0 AND k + v > d",
		"SELECT s FROM pe WHERE NOT (k >= v OR s = 'a')",
		// Non-equi join residuals over NULLs (interpreted per candidate
		// pair), where the residual cannot be pushed below the join.
		"SELECT a.k, a.v, b.d FROM pe a LEFT JOIN pe b ON a.k = b.k AND a.v < b.d",
		"SELECT a.k, b.s FROM pe a LEFT JOIN pe b ON a.s = b.s AND a.k + 1 > b.v",
		// Window function over a computed argument.
		"SELECT k, sum(v * 2 + 1) OVER (PARTITION BY s ORDER BY k) FROM pe WHERE k IS NOT NULL",
		"SELECT k, max(d / 2.0) OVER (ORDER BY k) FROM pe WHERE k IS NOT NULL",
	}
	for _, q := range queries {
		base := stringifyRows(execSession(t, c, q, projMatrix[0].s))
		for _, m := range projMatrix[1:] {
			got := stringifyRows(execSession(t, c, q, m.s))
			assertRows(t, q+" ["+m.name+"]", got, base)
		}
		assertRows(t, q+" [interpreted]", stringifyRows(execSession(t, interp, q, Session{})), base)
	}
	// Anchor: -0.0 renders the same as 0.0 through every path is NOT
	// required, but k/v over the guarded filter must drop exactly the two
	// zero/null-divisor rows.
	rows := execSession(t, c, "SELECT k / v FROM pe WHERE v <> 0", Session{})
	if len(rows) != 4 {
		t.Fatalf("guarded division returned %d rows, want 4", len(rows))
	}
}

// queryErr runs a query and returns the first error, whether it surfaces at
// submission or while draining rows (execution errors arrive with pages).
func projQueryErr(c *Cluster, q string, s Session) error {
	res, err := c.ExecuteSession(q, s)
	if err != nil {
		return err
	}
	_, err = res.All()
	return err
}

// TestVecProjDivisionByZeroMatrix: an unguarded division over a zero divisor
// must fail the query identically in every ablation arm — never silently
// produce NULL — while filter- and CASE-guarded forms succeed everywhere.
func TestVecProjDivisionByZeroMatrix(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE dz (a BIGINT, b BIGINT)")
	mustExec(t, c, "INSERT INTO dz VALUES (10, 2), (9, 3), (7, 0), (8, 4)")
	interp := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 2, Interpreted: true})
	defer interp.Close()
	mustExec(t, interp, "CREATE TABLE dz (a BIGINT, b BIGINT)")
	mustExec(t, interp, "INSERT INTO dz VALUES (10, 2), (9, 3), (7, 0), (8, 4)")
	// Double modulo has no kernel; the interpreter defines it in every arm:
	// a value, NULL for a NULL operand, an error for a zero divisor in a
	// projection and a row that does not pass for one in a filter.
	for _, cl := range []*Cluster{c, interp} {
		mustExec(t, cl, "CREATE TABLE dm (x DOUBLE, y DOUBLE)")
		mustExec(t, cl, "INSERT INTO dm VALUES (7.5, 2.0), (9.0, 4.0), (NULL, 3.0), (5.0, 0.0)")
	}

	for _, q := range []string{"SELECT a / b FROM dz", "SELECT a % b FROM dz", "SELECT x % y FROM dm"} {
		for _, m := range projMatrix {
			s := m.s
			s.Switches |= exec.DisableResultCache
			err := projQueryErr(c, q, s)
			if err == nil {
				t.Fatalf("%s [%s]: expected division-by-zero error, got rows", q, m.name)
			}
			if !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("%s [%s]: wrong error: %v", q, m.name, err)
			}
		}
		if err := projQueryErr(interp, q, Session{Switches: exec.DisableResultCache}); err == nil ||
			!strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s [interpreted]: wrong error: %v", q, err)
		}
	}
	// Guarded forms: selection fusion means the projection only ever sees
	// surviving rows, in every mode.
	for _, q := range []string{
		"SELECT a / b FROM dz WHERE b <> 0",
		"SELECT sum(CASE WHEN b <> 0 THEN a / b ELSE 0 END) FROM dz",
		"SELECT x % y FROM dm WHERE y <> 0",
		"SELECT x FROM dm WHERE x % y = 1.0",
	} {
		base := stringifyRows(execSession(t, c, q, projMatrix[0].s))
		for _, m := range projMatrix[1:] {
			assertRows(t, q+" ["+m.name+"]", stringifyRows(execSession(t, c, q, m.s)), base)
		}
		assertRows(t, q+" [interpreted]", stringifyRows(execSession(t, interp, q, Session{})), base)
	}
	if rows := execSession(t, c, "SELECT x FROM dm WHERE x % y = 1.0", Session{}); len(rows) != 2 {
		t.Fatalf("x %% y = 1.0 passed %d rows, want 2 (7.5 %% 2.0 and 9.0 %% 4.0)", len(rows))
	}
}

// TestVecProjDistributedDifferential pushes the projection workload through
// the HTTP-distributed cluster under vectorized and ablated sessions; rows
// must match the embedded engine.
func TestVecProjDistributedDifferential(t *testing.T) {
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(ref.Close)
	ref.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	for _, q := range projDiffQueries {
		want := stringifyRows(execSession(t, ref, q, Session{}))
		assertRows(t, q+" [distributed]", stringifyRows(d.mustQuery(t, q)), want)
		res, err := d.Coord.Execute(q, Session{Switches: exec.DisableVectorKernels})
		if err != nil {
			t.Fatalf("distributed ablated %q: %v", q, err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatalf("distributed ablated %q: %v", q, err)
		}
		assertRows(t, q+" [distributed novec-kernels]", stringifyRows(rows), want)
	}
}

// TestVecProjExplainAnalyzeCounters: the kernel counters must surface in the
// EXPLAIN ANALYZE operator table and vanish on an interpreted cluster.
func TestVecProjExplainAnalyzeCounters(t *testing.T) {
	q := "EXPLAIN ANALYZE SELECT sum(l_extendedprice * (1 - l_discount)), sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) FROM tpch.lineitem"
	text := func(interpreted bool) string {
		c := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 2, Interpreted: interpreted})
		defer c.Close()
		c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
		var sb strings.Builder
		for _, r := range execSession(t, c, q, Session{}) {
			sb.WriteString(r[0].S)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	on := text(false)
	if !strings.Contains(on, "vec-proj") || !strings.Contains(on, "cse-hits") {
		t.Errorf("explain analyze missing projection kernel counters:\n%s", on)
	}
	if off := text(true); strings.Contains(off, "vec-proj") {
		t.Errorf("interpreted run still reports vectorized projection counters:\n%s", off)
	}
}
