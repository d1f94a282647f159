package presto

// Plan-template tests: a statement that differs from a cached one only in the
// literals of value positions runs the cached plan with its own literals
// bound in. Binding must give the rows, and the EXPLAIN, that planning the
// statement afresh gives; a plan must stay valid across data writes, and not
// across DDL or a large change in a table's size.

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/types"
	"repro/internal/workload"
)

// templateStmt is one statement shape of the differential: its text with the
// literals each random set replaces, and the ORDER BY column that decides a
// LIMIT whose ties admit several answers (-1: none).
type templateStmt struct {
	id, sql string
	tieCol  int
}

// servingShapes are serving_mix's three read shapes, and q09's masked sums
// (maskedSums); ads, over the sharded connector, runs in the in-process leg.
func servingShapes(withAds bool) []templateStmt {
	out := []templateStmt{
		{"orders", `SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate
			FROM tpch.orders WHERE o_custkey = 7 ORDER BY o_orderkey`, -1},
		{"events", `SELECT count(*), sum(v) FROM memory.events WHERE app = 3`, -1},
		{"q09masks", maskedSums, -1},
	}
	if withAds {
		out = append(out, templateStmt{"ads", workload.AdvertiserQuery("ads", 5), -1})
	}
	for _, q := range workload.Fig6Queries("tpch") {
		tie, ok := fig6TieKey[q.ID]
		if !ok {
			tie = -1
		}
		out = append(out, templateStmt{q.ID, q.SQL, tie})
	}
	return out
}

// maskedSums is q09's shape with two sets of BETWEEN bounds: its aggregates
// are masked (plan.Aggregate's Mask), and each mask's bounds and each ELSE
// stay slots of the template, so that every literal set sums its own rows —
// one whose ELSE is not 0 through the masked block's CASE semantics.
const maskedSums = `SELECT count(*),
	sum(CASE WHEN l_quantity BETWEEN 1 AND 10 THEN l_extendedprice ELSE 0 END),
	sum(CASE WHEN l_quantity BETWEEN 11 AND 20 THEN l_extendedprice ELSE 0 END)
	FROM tpch.lineitem`

// eventsPage is memory.events: keys 0..keys-1, two rows each, v = 1.
func eventsPage(keys int) *block.Page {
	var apps, ones []int64
	for k := 0; k < keys; k++ {
		apps = append(apps, int64(k), int64(k))
		ones = append(ones, 1, 1)
	}
	return block.NewPage(block.NewLongBlock(apps, nil), block.NewLongBlock(ones, nil))
}

var eventsCols = []connector.Column{{Name: "app", T: types.Bigint}, {Name: "v", T: types.Bigint}}

// literalEnd returns the offset just past the literal that starts at pos: a
// number, a quoted string, or DATE followed by one.
func literalEnd(sql string, pos int) int {
	i := pos
	if strings.HasPrefix(strings.ToUpper(sql[i:]), "DATE") {
		i += 4
		for sql[i] != '\'' {
			i++
		}
	}
	if sql[i] == '\'' {
		for i++; ; i++ {
			if sql[i] == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					i++
					continue
				}
				return i + 1
			}
		}
	}
	for i < len(sql) && (sql[i] >= '0' && sql[i] <= '9' || sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
		(sql[i] == '+' || sql[i] == '-') && (sql[i-1] == 'e' || sql[i-1] == 'E')) {
		i++
	}
	return i
}

// varchars are the strings a random set draws from: the flag values the
// generator uses, and some it never does.
var varchars = []string{"F", "O", "P", "R", "A", "N", "X", "it's"}

// randomLiterals rewrites every lifted literal of sql with a random value of
// the same type, keeping it non-negative (a minus sign would change the key).
func randomLiterals(rng *rand.Rand, sql string, tm serving.Template) string {
	var b strings.Builder
	last := 0
	for i, pos := range tm.Pos {
		b.WriteString(sql[last:pos])
		v := tm.Values[i]
		switch v.T {
		case types.Bigint:
			fmt.Fprintf(&b, "%d", rng.Int63n(2*v.I+50))
		case types.Double:
			b.WriteString(strconv.FormatFloat(rng.Float64()*(2*v.F+1), 'f', 4, 64))
		case types.Date:
			fmt.Fprintf(&b, "DATE '%s'", types.FormatDate(v.I+int64(rng.Intn(1461)-730)))
		default:
			b.WriteString("'" + strings.ReplaceAll(varchars[rng.Intn(len(varchars))], "'", "''") + "'")
		}
		last = literalEnd(sql, pos)
	}
	b.WriteString(sql[last:])
	return b.String()
}

// maskLiterals blanks every number and quoted string of an EXPLAIN, leaving
// its shape.
var literalRE = regexp.MustCompile(`'(?:[^']|'')*'|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?`)

func maskLiterals(s string) string { return literalRE.ReplaceAllString(s, "?") }

func explainBoth(logical plan.Node, dp *plan.DistributedPlan) string {
	return plan.Format(logical) + dp.Format()
}

// substitute returns n with vals in place of its lifted constants and
// constraint bounds, coerced to the types n holds them at: the plan a cache
// hit runs, as its EXPLAIN would read. The engine never makes this copy — its
// tasks read the literals as parameters — so only this comparison needs it.
func substitute(t *testing.T, n plan.Node, vals []types.Value) plan.Node {
	t.Helper()
	bind := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil
		}
		return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
			if c, ok := x.(*expr.Const); ok && c.Slot > 0 {
				v, err := vals[c.Slot-1].Coerce(c.Val.T)
				if err != nil {
					t.Fatalf("slot %d: %v", c.Slot, err)
				}
				return expr.NewSlotConst(v, c.Slot)
			}
			return nil
		})
	}
	binds := func(es []expr.Expr) []expr.Expr {
		out := make([]expr.Expr, len(es))
		for i, e := range es {
			out[i] = bind(e)
		}
		return out
	}
	if kids := n.Children(); len(kids) > 0 {
		bound := make([]plan.Node, len(kids))
		for i, k := range kids {
			bound[i] = substitute(t, k, vals)
		}
		n = n.WithChildren(bound)
	}
	switch x := n.(type) {
	case *plan.Scan:
		d, err := x.Handle.Constraint.Bind(vals)
		if err != nil {
			t.Fatal(err)
		}
		cp := *x
		cp.Handle.Constraint = d
		return &cp
	case *plan.Filter:
		cp := *x
		cp.Predicate = bind(x.Predicate)
		return &cp
	case *plan.Project:
		cp := *x
		cp.Exprs = binds(x.Exprs)
		return &cp
	case *plan.Aggregation:
		cp := *x
		cp.GroupBy, cp.Aggregates = binds(x.GroupBy), slices.Clone(x.Aggregates)
		for i := range cp.Aggregates {
			a := &cp.Aggregates[i]
			a.Arg, a.Mask, a.Else = bind(a.Arg), bind(a.Mask), bind(a.Else)
		}
		return &cp
	case *plan.Join:
		cp := *x
		cp.Residual = bind(x.Residual)
		return &cp
	case *plan.Window:
		cp := *x
		cp.Funcs = slices.Clone(x.Funcs)
		for i := range cp.Funcs {
			cp.Funcs[i].Arg = bind(cp.Funcs[i].Arg)
		}
		return &cp
	}
	return n
}

// substituteAll is substitute over every fragment of dp.
func substituteAll(t *testing.T, dp *plan.DistributedPlan, vals []types.Value) *plan.DistributedPlan {
	out := &plan.DistributedPlan{RootID: dp.RootID}
	for _, f := range dp.Fragments {
		cp := *f
		cp.Root = substitute(t, f.Root, vals)
		out.Fragments = append(out.Fragments, &cp)
	}
	return out
}

// templateDifferential runs sets random literal sets of every statement on
// coord, through the plan cache and around it, and compares rows; wherever the
// cache bound a template, the bound plan's EXPLAIN must equal a fresh plan's
// unless the fresh plan has another shape. Each set also runs twice more on
// the cached plan, with the result cache off: once on the fragments workers
// compiled for an earlier set, once after every worker's compiled fragments
// were dropped (exec.Worker.DropCompiledFragments), and both give the rows
// planning afresh gives. It returns the ids whose every set was a plan-cache
// hit.
func templateDifferential(t *testing.T, coord *coordinator.Coordinator, stmts []templateStmt, sets int,
	workers []*exec.Worker) map[string]bool {
	t.Helper()
	on := Session{}
	off := Session{Switches: exec.DisablePlanCache | exec.DisableResultCache}
	run := Session{Switches: exec.DisableResultCache}
	rows := func(sql string, s Session, col int) []string {
		t.Helper()
		res, err := coord.Execute(sql, s)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		all, err := res.All()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if col >= 0 {
			for i, r := range all {
				all[i] = r[col : col+1]
			}
		}
		return stringifyRows(all)
	}
	templated := map[string]bool{}
	rng := rand.New(rand.NewSource(60))
	for _, st := range stmts {
		tm, ok := serving.PlanKey(st.sql, "memory", "0")
		if !ok {
			t.Fatalf("%s: no plan-cache key", st.id)
		}
		rows(st.sql, on, st.tieCol)  // plans the template
		rows(st.sql, run, st.tieCol) // compiles its fragments under run's switches
		hits, shapes := 0, 0
		for i := 0; i < sets; i++ {
			sql := randomLiterals(rng, st.sql, tm)
			if got, _ := serving.PlanKey(sql, "memory", "0"); got.Key != tm.Key {
				t.Fatalf("%s: random literals moved the key:\n%s", st.id, sql)
			}
			before := coord.ServingStats().Plan.Hits
			got := rows(sql, on, st.tieCol)
			if coord.ServingStats().Plan.Hits > before {
				hits++
			}
			want := rows(sql, off, st.tieCol)
			assertRows(t, st.id+": "+sql, got, want)
			warm := fragmentCacheHits(workers)
			assertRows(t, st.id+" (compiled fragments cached): "+sql, rows(sql, run, st.tieCol), want)
			if fragmentCacheHits(workers) == warm {
				t.Errorf("%s: no task of a cached plan took a cached compiled fragment: %s", st.id, sql)
			}
			for _, w := range workers {
				w.DropCompiledFragments()
			}
			assertRows(t, st.id+" (compiled fragments dropped): "+sql, rows(sql, run, st.tieCol), want)

			tl, tdp, vals, ok := coord.CachedPlan(sql, on)
			if !ok {
				continue
			}
			bl, bdp := substitute(t, tl, vals), substituteAll(t, tdp, vals)
			fl, fdp, err := coord.Plan(sql, on)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			bound, fresh := explainBoth(bl, bdp), explainBoth(fl, fdp)
			if bound == fresh {
				continue
			}
			if maskLiterals(bound) == maskLiterals(fresh) {
				t.Fatalf("%s: the bound plan differs from a fresh one of the same shape\nbound:\n%s\nfresh:\n%s", sql, bound, fresh)
			}
			shapes++
		}
		templated[st.id] = hits == sets
		t.Logf("%s: %d of %d sets hit the plan cache; %d fresh plans took another shape", st.id, hits, sets, shapes)
	}
	return templated
}

// templateSets is the random literal sets per statement shape.
const templateSets = 200

func TestPlanTemplateMatchesFreshPlan(t *testing.T) {
	sets := templateSets
	if testing.Short() || raceEnabled {
		sets = 20
	}
	check := func(t *testing.T, templated map[string]bool, withAds bool) {
		want := []string{"orders", "events", "q09masks"}
		if withAds {
			want = append(want, "ads")
		}
		for _, id := range want {
			if !templated[id] {
				t.Errorf("serving shape %s was not served as a template", id)
			}
		}
	}
	t.Run("in-process", func(t *testing.T) {
		c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
		defer c.Close()
		c.Register(workload.LoadTPCHMemory("tpch", 0.01))
		ads, err := workload.AdvertiserData("ads", 4, 50, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.Register(ads)
		mem, err := c.catalog.Connector("memory")
		if err != nil {
			t.Fatal(err)
		}
		mem.(interface {
			LoadTable(string, []connector.Column, []*block.Page)
		}).LoadTable("events", eventsCols, []*block.Page{eventsPage(50)})
		check(t, templateDifferential(t, c.Coordinator, servingShapes(true), sets, c.workers), true)
		// Over 0.01's lineitem q09masks is one task with one step: without
		// statistics it has a partial and a final step, and both mask.
		two := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableStats: true})
		defer two.Close()
		two.Register(workload.LoadTPCHMemory("tpch", 0.01))
		requireDistributed(t, two.Coordinator, maskedSums)
		if ex, err := two.Explain(maskedSums); err != nil || strings.Count(ex, " mask ") < 4 {
			t.Errorf("q09masks: the plan does not mask both sums in both steps (%v):\n%s", err, ex)
		}
	})
	t.Run("http", func(t *testing.T) {
		d := newDistClusterWith(t, 2, distConfig{plans: true})
		d.catalog.Register(workload.LoadTPCHMemory("tpch", 0.01))
		d.mem.LoadTable("events", eventsCols, []*block.Page{eventsPage(50)})
		check(t, templateDifferential(t, d.Coord, servingShapes(false), sets, d.workers), false)
	})
}

// fragmentCacheHits sums the workers' compiled-fragment cache hits.
func fragmentCacheHits(workers []*exec.Worker) int64 {
	var n int64
	for _, w := range workers {
		n += w.FragmentCacheStats().Hits
	}
	return n
}

// TestPlanKeyCommentAlias: an apostrophe in a comment or in a quoted
// identifier does not open a string literal, so 'SF' and 'sf' after one stay
// two statements with two answers.
func TestPlanKeyCommentAlias(t *testing.T) {
	c := sqlCluster(t)
	for _, form := range []string{
		"SELECT count(*) FROM people -- it's\nWHERE city = '%s'",
		"SELECT count(*) FROM people /* it's */ WHERE city = '%s'",
		`SELECT count(*) AS "it's" FROM people WHERE city = '%s'`,
	} {
		for _, c2 := range []struct {
			city string
			want int64
		}{{"SF", 3}, {"sf", 0}} {
			row, err := c.QueryRow(fmt.Sprintf(form, c2.city))
			if err != nil {
				t.Fatal(err)
			}
			if row[0].I != c2.want {
				t.Errorf("%q with %s counted %d, want %d", form, c2.city, row[0].I, c2.want)
			}
		}
	}
}

// TestPlanValidity: an INSERT keeps a table's plans and the next read sees
// its rows; DROP and CREATE with other columns invalidate at once; a plan
// made before the table grew a hundredfold is made again.
func TestPlanValidity(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	mustExec(t, c, "CREATE TABLE g (k BIGINT, v BIGINT)")
	mustExec(t, c, "INSERT INTO g SELECT * FROM (VALUES (1, 10), (2, 20))")
	count := func(k int) int64 {
		t.Helper()
		row, err := c.QueryRow(fmt.Sprintf("SELECT count(*) FROM g WHERE k = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		return row[0].I
	}
	count(1) // plans the template
	st := c.ServingStats().Plan
	mustExec(t, c, "INSERT INTO g SELECT * FROM (VALUES (1, 11))")
	if got := count(1); got != 2 {
		t.Fatalf("count after INSERT = %d, want 2", got)
	}
	after := c.ServingStats().Plan
	if after.Hits != st.Hits+1 || after.Invalidations != st.Invalidations {
		t.Errorf("an INSERT moved the plan cache: %+v → %+v", st, after)
	}

	// A hundredfold growth replans: the lookup drops the stale entry.
	var rows []string
	for i := 0; i < 300; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i%7, i))
	}
	mustExec(t, c, "INSERT INTO g SELECT * FROM (VALUES "+strings.Join(rows, ", ")+")")
	st = c.ServingStats().Plan
	if got := count(1); got != 2+43 {
		t.Fatalf("count after growth = %d, want %d", got, 2+43)
	}
	if after := c.ServingStats().Plan; after.Invalidations != st.Invalidations+1 || after.Hits != st.Hits {
		t.Errorf("a plan made at 3 rows served at 303: %+v → %+v", st, after)
	}
	count(1)
	if after := c.ServingStats().Plan; after.Hits != st.Hits+1 {
		t.Errorf("the replanned statement was not cached again: %+v → %+v", st, after)
	}

	// DROP and CREATE with other columns: the next read plans afresh and
	// sees the new table.
	mustExec(t, c, "DROP TABLE g")
	mustExec(t, c, "CREATE TABLE g (name VARCHAR, k BIGINT)")
	mustExec(t, c, "INSERT INTO g SELECT * FROM (VALUES ('a', 1))")
	st = c.ServingStats().Plan
	if got := count(1); got != 1 {
		t.Fatalf("count after recreate = %d, want 1", got)
	}
	if after := c.ServingStats().Plan; after.Hits != st.Hits {
		t.Errorf("a plan over the dropped table served the new one: %+v → %+v", st, after)
	}
	row, err := c.QueryRow("SELECT name FROM g WHERE k = 1")
	if err != nil || row[0].S != "a" {
		t.Fatalf("read of the recreated table: %v %v", row, err)
	}
}

// TestResultCacheDeterminismFromExpressions: whether a plan's results may be
// cached is decided by its expressions, so a string literal that spells
// random( is cached and a call to random() is not.
func TestResultCacheDeterminismFromExpressions(t *testing.T) {
	c := sqlCluster(t)
	hits := func(sql string) int64 {
		t.Helper()
		before := c.ServingStats().Result.Hits
		for i := 0; i < 2; i++ {
			if _, err := c.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		return c.ServingStats().Result.Hits - before
	}
	if got := hits("SELECT count(*) FROM people WHERE name <> 'random(1)'"); got != 1 {
		t.Errorf("a literal spelling random( was served %d times from the result cache, want 1", got)
	}
	if got := hits("SELECT count(*) FROM people WHERE age > random() * 100"); got != 0 {
		t.Errorf("a random() filter was served %d times from the result cache", got)
	}
}
