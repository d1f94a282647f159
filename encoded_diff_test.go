package presto

// Differential coverage over encoded, skewed data: hand-built pages mixing
// dictionary, RLE, and flat blocks — including the shapes the decode-free
// kernels and the morsel queue specialize on (an all-RLE page, a dictionary
// with unreferenced ids, one giant split next to tiny ones). Every query runs
// on the default cluster and on an Interpreted one, the independent reference,
// and, for the distributed suite, through the HTTP worker protocol; all paths
// must return identical rows. A Go-loop ground truth anchors the per-key
// counts so the two cannot agree on a shared wrong answer.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/types"
	"repro/internal/workload"
)

// encGiantRows exceeds the 64k morsel target so the giant page must be sliced
// into several morsels, and dwarfs the sibling splits so a driver per split
// would leave most drivers idle.
const encGiantRows = 130_000

// encodedFactPages builds the four facts pages. memconn chunks pages
// contiguously into SplitsPerTable=4 splits, so with exactly four pages each
// page is its own split: one giant, three tiny — the skew shape morsel
// stealing exists for.
func encodedFactPages() []*block.Page {
	var pages []*block.Page

	// Page 0 — giant: dictionary-encoded varchar keys with a heavy hitter
	// ("hot" on ~70% of rows), flat bigint columns.
	dict := []string{"hot", "key01", "key02", "key03", "key04", "key05", "key06", "key07", "key08", "key09"}
	idx := make([]int32, encGiantRows)
	g := make([]int64, encGiantRows)
	v := make([]int64, encGiantRows)
	seed := int64(41)
	for i := range idx {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := int(uint64(seed) % 100)
		if r < 70 {
			idx[i] = 0
		} else {
			idx[i] = int32(1 + r%9)
		}
		g[i] = int64(i % 13)
		v[i] = int64(i)
	}
	pages = append(pages, block.NewPage(
		block.NewDictionaryBlock(block.NewVarcharBlock(dict, nil), idx),
		block.NewLongBlock(g, nil),
		block.NewLongBlock(v, nil),
	))

	// Page 1 — all-RLE: every column is a single run, the case the hash-agg
	// RLE fast path folds into one accumulator update.
	pages = append(pages, block.NewPage(
		block.NewRLEBlock(types.VarcharValue("hot"), 4000),
		block.NewRLEBlock(types.BigintValue(7), 4000),
		block.NewRLEBlock(types.BigintValue(3), 4000),
	))

	// Page 2 — dictionary with unreferenced ids: the dictionary holds seven
	// entries (one NULL) but the indices touch only {0, 3, 4}; "beta",
	// "gamma", and both "unused" entries must never surface in results, and
	// per-dictionary-id hashing must not choke on the NULL entry.
	d2 := block.NewVarcharBlock(
		[]string{"alpha", "beta", "gamma", "", "", "unusedA", "unusedB"},
		[]bool{false, false, false, false, true, false, false})
	idx2 := make([]int32, 600)
	g2 := make([]int64, 600)
	v2 := make([]int64, 600)
	for i := range idx2 {
		idx2[i] = []int32{0, 3, 4}[i%3]
		g2[i] = 2
		v2[i] = int64(-i)
	}
	pages = append(pages, block.NewPage(
		block.NewDictionaryBlock(d2, idx2),
		block.NewLongBlock(g2, nil),
		block.NewLongBlock(v2, nil),
	))

	// Page 3 — flat with edge values: NULL vs empty varchar, NULL bigints.
	pages = append(pages, block.NewPage(
		block.NewVarcharBlock(
			[]string{"hot", "", "alpha", "", "key01", "zz", "hot", ""},
			[]bool{false, true, false, false, false, false, false, true}),
		block.NewLongBlock([]int64{7, 0, 2, 2, 13, 13, 0, 5}, []bool{false, true, false, false, false, false, false, false}),
		block.NewLongBlock([]int64{1, 2, 3, 4, 5, 6, 7, 8}, nil),
	))
	return pages
}

// encodedPairPages builds the pairs table (a, b varchar; c, v bigint), whose
// pages put every mix of encodings under a two- or three-column group key:
// dictionaries on all three (one with a NULL entry, all with entries no row
// references), a dictionary beside runs, a dictionary beside flat columns (the
// rows must be resolved one by one), runs only, three rows under dictionaries
// of fifteen combinations (fewer rows than combinations: the row path again),
// and a flat page with NULLs and empty strings.
func encodedPairPages() []*block.Page {
	aDict := block.NewVarcharBlock([]string{"x", "y", "z", "", "unusedA"}, []bool{false, false, false, true, false})
	bDict := block.NewVarcharBlock([]string{"p", "q", "unusedB"}, nil)
	cDict := block.NewLongBlock([]int64{10, 20, 30, 99}, nil)
	seq := func(n int, from int64) *block.LongBlock {
		v := make([]int64, n)
		for i := range v {
			v[i] = from + int64(i)
		}
		return block.NewLongBlock(v, nil)
	}
	idx := func(n, mod, step int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i * step % mod)
		}
		return out
	}
	flatB, flatC := make([]string, 600), make([]int64, 600)
	for i := range flatB {
		flatB[i], flatC[i] = []string{"p", "q", "r"}[i%3], int64(10*(1+i%4))
	}
	return []*block.Page{
		block.NewPage(block.NewDictionaryBlock(aDict, idx(2000, 4, 1)), block.NewDictionaryBlock(bDict, idx(2000, 2, 3)),
			block.NewDictionaryBlock(cDict, idx(2000, 3, 5)), seq(2000, 0)),
		block.NewPage(block.NewDictionaryBlock(aDict, idx(1000, 4, 3)), block.NewRLEBlock(types.VarcharValue("p"), 1000),
			block.NewRLEBlock(types.BigintValue(10), 1000), seq(1000, 5000)),
		block.NewPage(block.NewDictionaryBlock(aDict, idx(600, 3, 1)), block.NewVarcharBlock(flatB, nil),
			block.NewLongBlock(flatC, nil), seq(600, 10000)),
		block.NewPage(block.NewRLEBlock(types.VarcharValue("z"), 500), block.NewRLEBlock(types.VarcharValue("q"), 500),
			block.NewRLEBlock(types.BigintValue(30), 500), seq(500, 20000)),
		block.NewPage(block.NewDictionaryBlock(aDict, []int32{0, 3, 0}), block.NewDictionaryBlock(bDict, []int32{1, 1, 0}),
			block.NewDictionaryBlock(cDict, []int32{2, 2, 2}), seq(3, 30000)),
		block.NewPage(
			block.NewVarcharBlock([]string{"x", "", "", "w", "x"}, []bool{false, true, false, false, false}),
			block.NewVarcharBlock([]string{"p", "p", "", "", "p"}, []bool{false, false, false, true, false}),
			block.NewLongBlock([]int64{10, 10, 0, 0, 10}, []bool{false, false, true, false, false}), seq(5, 40000)),
	}
}

// encodedPairDictRows is how many rows of encodedPairPages an aggregation
// keyed on (a, b) or (a, b, c) resolves through its dictionary memo: the
// pages whose key columns are all encoded and at least as long as their
// combinations are many.
const encodedPairDictRows = 2000 + 1000 + 500

// newEncodedConnector loads the facts, pairs, lens and dims tables into a
// fresh memconn catalog named "enc". dims is deliberately flat so the join
// probes a dictionary-encoded varchar key against a flat build side (the
// memory catalog stores its label column under a dictionary all the same).
func newEncodedConnector() *memconn.Connector {
	conn := memconn.New("enc")
	factCols := []connector.Column{
		{Name: "k", T: types.Varchar},
		{Name: "g", T: types.Bigint},
		{Name: "v", T: types.Bigint},
	}
	conn.LoadTable("facts", factCols, encodedFactPages())

	dimCols := []connector.Column{
		{Name: "k", T: types.Varchar},
		{Name: "label", T: types.Varchar},
	}
	dims := block.NewPage(
		block.NewVarcharBlock([]string{"hot", "key01", "key03", "alpha", "", "zz", "nomatch"}, nil),
		block.NewVarcharBlock([]string{"H", "K1", "K3", "A", "EMPTY", "Z", "N"}, nil),
	)
	conn.LoadTable("dims", dimCols, []*block.Page{dims})

	conn.LoadTable("pairs", []connector.Column{
		{Name: "a", T: types.Varchar}, {Name: "b", T: types.Varchar}, {Name: "c", T: types.Bigint}, {Name: "v", T: types.Bigint},
	}, encodedPairPages())

	// lens: 1 / (length(a) - length(b)) fails for exactly one combination of
	// the two dictionaries' entries, ("aa", "yy"), which only rows v >= 50 have.
	la, lb, lv := make([]int32, 100), make([]int32, 100), make([]int64, 100)
	for i := range la {
		la[i], lb[i], lv[i] = int32(i%3), int32(i%2), int64(i)
		if la[i] == 0 && lb[i] == 1 && i < 50 {
			lb[i] = 0
		}
	}
	conn.LoadTable("lens", []connector.Column{
		{Name: "a", T: types.Varchar}, {Name: "b", T: types.Varchar}, {Name: "v", T: types.Bigint},
	}, []*block.Page{block.NewPage(
		block.NewDictionaryBlock(block.NewVarcharBlock([]string{"aa", "bbb", "cccc"}, nil), la),
		block.NewDictionaryBlock(block.NewVarcharBlock([]string{"x", "yy"}, nil), lb),
		block.NewLongBlock(lv, nil))})
	return conn
}

// encDiffQueries exercise grouped aggregation, DISTINCT, joins, and filters
// over the encoded columns.
var encDiffQueries = []string{
	"SELECT k, count(*), sum(v), min(v), max(v), avg(v) FROM enc.facts GROUP BY k",
	"SELECT g, count(*), sum(v) FROM enc.facts GROUP BY g",
	"SELECT k, g, count(*) FROM enc.facts GROUP BY k, g",
	"SELECT count(DISTINCT k), count(DISTINCT g) FROM enc.facts",
	"SELECT DISTINCT k FROM enc.facts",
	"SELECT count(*), sum(v) FROM enc.facts",
	"SELECT count(*) FROM enc.facts WHERE k = 'hot'",
	"SELECT count(*) FROM enc.facts WHERE k = ''",
	"SELECT count(*) FROM enc.facts WHERE k IS NULL",
	"SELECT sum(v) FROM enc.facts WHERE g = 7",
	"SELECT count(*) FROM enc.facts WHERE k LIKE 'key%' AND v > 100",
	"SELECT d.label, count(*), sum(f.v) FROM enc.facts f JOIN enc.dims d ON f.k = d.k GROUP BY d.label",
	"SELECT count(*) FROM enc.facts f JOIN enc.dims d ON f.k = d.k",
	"SELECT f.g, d.label, count(*) FROM enc.facts f JOIN enc.dims d ON f.k = d.k GROUP BY f.g, d.label",
	"SELECT a, b, count(*), sum(v) FROM enc.pairs GROUP BY a, b",
	"SELECT a, b, c, count(*), sum(v), min(v) FROM enc.pairs GROUP BY a, b, c",
	"SELECT b, a, count(*) FROM enc.pairs WHERE v % 7 <> 0 GROUP BY b, a",
	"SELECT a || '/' || b, count(*), sum(v) FROM enc.pairs GROUP BY a || '/' || b",
	"SELECT count(*) FROM enc.pairs WHERE a = 'x' AND b IN ('p', 'r')",
	"SELECT sum(10 / (length(a) - length(b))), count(*) FROM enc.lens WHERE v < 50",
}

// encEngine is one cluster every encoded query runs on.
type encEngine struct {
	name string
	c    *Cluster
}

// encEngines starts cfg twice, each reading conn: as given (selection
// kernels, vector projections, the morsel queue) and Interpreted, the
// independent reference.
func encEngines(t *testing.T, cfg ClusterConfig, conn connector.Connector) []encEngine {
	t.Helper()
	var out []encEngine
	for _, name := range []string{"kernels", "interpreted"} {
		cfg.Interpreted = name == "interpreted"
		c := NewCluster(cfg)
		t.Cleanup(c.Close)
		c.Register(conn)
		out = append(out, encEngine{name, c})
	}
	return out
}

// encGroundTruth walks the pages through the row-at-a-time Block interface —
// no engine involved — and returns per-key (count, sum) for non-null keys.
func encGroundTruth() map[string][2]int64 {
	truth := map[string][2]int64{}
	for _, p := range encodedFactPages() {
		k, v := p.Col(0), p.Col(2)
		for r := 0; r < p.RowCount(); r++ {
			if k.IsNull(r) {
				continue
			}
			e := truth[k.Str(r)]
			e[0]++
			e[1] += v.Long(r)
			truth[k.Str(r)] = e
		}
	}
	return truth
}

// TestEncodedDifferentialMatrix runs every query on both in-process clusters
// over the encoded skewed tables; the result sets must be identical, and the
// group-by-key query must match the Go-loop ground truth.
func TestEncodedDifferentialMatrix(t *testing.T) {
	engines := encEngines(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2}, newEncodedConnector())
	for _, q := range encDiffQueries {
		base := stringifyRows(execSession(t, engines[0].c, q, Session{}))
		for _, e := range engines[1:] {
			assertRows(t, q+" ["+e.name+"]", stringifyRows(execSession(t, e.c, q, Session{})), base)
		}
	}

	// Anchor against ground truth so the two cannot agree on a shared wrong
	// answer: per-key count and sum.
	truth := encGroundTruth()
	for _, e := range engines {
		rows := execSession(t, e.c, "SELECT k, count(*), sum(v) FROM enc.facts WHERE k IS NOT NULL GROUP BY k", Session{})
		if len(rows) != len(truth) {
			t.Fatalf("[%s] got %d groups, ground truth has %d", e.name, len(rows), len(truth))
		}
		for _, row := range rows {
			k := row[0].S
			want, ok := truth[k]
			if !ok {
				t.Errorf("[%s] unexpected group %q (unreferenced dictionary id leaked?)", e.name, k)
				continue
			}
			if row[1].I != want[0] || row[2].I != want[1] {
				t.Errorf("[%s] group %q = (count %d, sum %d), want (%d, %d)",
					e.name, k, row[1].I, row[2].I, want[0], want[1])
			}
		}
	}
}

// encPairTruth walks the pairs pages through the row-at-a-time Block interface
// and returns count and sum(v) per rendered (a, b[, c]) key.
func encPairTruth(keyCols int) map[string][2]int64 {
	truth := map[string][2]int64{}
	for _, p := range encodedPairPages() {
		for r := 0; r < p.RowCount(); r++ {
			var key []string
			for c := 0; c < keyCols; c++ {
				key = append(key, p.Col(c).Value(r).String())
			}
			e := truth[strings.Join(key, "|")]
			e[0]++
			e[1] += p.Col(3).Long(r)
			truth[strings.Join(key, "|")] = e
		}
	}
	return truth
}

// TestEncodedMultiKeyGroupBy anchors the two- and three-key group-bys over
// every mix of encodings against a Go-loop ground truth, on both clusters,
// and reads off the query's own stats that the pages which
// could be resolved by dictionary entry were, and the others (a flat key
// column beside a dictionary; fewer rows than combinations) were not.
func TestEncodedMultiKeyGroupBy(t *testing.T) {
	engines := encEngines(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2}, newEncodedConnector())
	for keyCols, q := range map[int]string{
		2: "SELECT a, b, count(*), sum(v) FROM enc.pairs GROUP BY a, b",
		3: "SELECT a, b, c, count(*), sum(v) FROM enc.pairs GROUP BY a, b, c",
	} {
		truth := encPairTruth(keyCols)
		for _, m := range engines {
			c := m.c
			res, err := c.ExecuteSession(q, Session{Switches: exec.DisableResultCache})
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, m.name, err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, m.name, err)
			}
			if len(rows) != len(truth) {
				t.Errorf("%s [%s]: %d groups, ground truth has %d", q, m.name, len(rows), len(truth))
			}
			for _, row := range rows {
				var key []string
				for _, v := range row[:keyCols] {
					key = append(key, v.String())
				}
				want, ok := truth[strings.Join(key, "|")]
				if !ok || row[keyCols].I != want[0] || row[keyCols+1].I != want[1] {
					t.Errorf("%s [%s]: group %v = (count %d, sum %d), want %v (unreferenced entry leaked, or a combination mis-resolved?)",
						q, m.name, key, row[keyCols].I, row[keyCols+1].I, want)
				}
			}
			st, _ := c.QueryStats(res.QueryID)
			var dictRows int64
			for _, sg := range st.Stages {
				for _, pl := range sg.Pipelines {
					for _, op := range pl.Operators {
						if op.Name == "HashAggregation" {
							dictRows += op.DictRows
						}
					}
				}
			}
			if dictRows != encodedPairDictRows {
				t.Errorf("%s [%s]: aggregations resolved %d rows by dictionary entry, want %d (the all-encoded pages and no other)",
					q, m.name, dictRows, encodedPairDictRows)
			}
		}
	}
}

// TestDictionaryPathsInExplainAnalyze: whether a statement took the
// dictionary paths is read off its own EXPLAIN ANALYZE — the scan says how
// many of its columns arrived encoded, the filter/project, the aggregation and
// the lookup join how many rows they handled by dictionary entry.
func TestDictionaryPathsInExplainAnalyze(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))
	lines := func(q string) []string {
		var out []string
		for _, r := range execSession(t, c, "EXPLAIN ANALYZE "+q, Session{}) {
			out = append(out, r[0].S)
		}
		return out
	}
	has := func(lines []string, operator, counter string) bool {
		for _, l := range lines {
			if strings.Contains(l, operator) && strings.Contains(l, counter) {
				return true
			}
		}
		return false
	}
	agg := lines(`SELECT l_shipmode || '-' || l_returnflag, count(*) FROM tpch.lineitem
		WHERE l_shipdate > DATE '1995-01-01' GROUP BY l_shipmode || '-' || l_returnflag`)
	for operator, counter := range map[string]string{"TableScan": "encoded-cols 2", "FilterProject": "dict-rows", "HashAggregation": "dict-rows"} {
		if !has(agg, operator, counter) {
			t.Errorf("%s line without %q:\n%s", operator, counter, strings.Join(agg, "\n"))
		}
	}
	join := lines(`SELECT count(*) FROM tpch.customer a JOIN tpch.customer b ON a.c_mktsegment = b.c_mktsegment`)
	if !has(join, "LookupJoin", "dict-rows") {
		t.Errorf("LookupJoin line without dict-rows:\n%s", strings.Join(join, "\n"))
	}
	flat := lines("SELECT l_orderkey, count(*) FROM tpch.lineitem GROUP BY l_orderkey")
	if has(flat, "", "dict-rows") || has(flat, "", "encoded-cols") {
		t.Errorf("a statement over flat columns reports dictionary work:\n%s", strings.Join(flat, "\n"))
	}
}

// TestEncodedProjectionErrorsOnlyWhenReferenced: a projection over two
// dictionary columns is evaluated once per combination of their entries, and
// one combination divides by zero. While no surviving row has it the query
// succeeds (the rows are then evaluated one by one); once a row has it the
// query fails with the row path's error.
func TestEncodedProjectionErrorsOnlyWhenReferenced(t *testing.T) {
	const proj = "SELECT sum(10 / (length(a) - length(b))), count(*) FROM enc.lens"
	for _, m := range encEngines(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2}, newEncodedConnector()) {
		rows := execSession(t, m.c, proj+" WHERE v < 50", Session{})
		var want int64
		for i := 0; i < 50; i++ {
			la, lb := []int64{2, 3, 4}[i%3], []int64{1, 2}[i%2]
			if i%3 == 0 && i%2 == 1 {
				lb = 1
			}
			want += 10 / (la - lb)
		}
		if len(rows) != 1 || rows[0][0].I != want || rows[0][1].I != 50 {
			t.Errorf("[%s] unreferenced failing combination: got %v, want sum %d over 50 rows", m.name, rows, want)
		}
		res, err := m.c.ExecuteSession(proj, Session{Switches: exec.DisableResultCache})
		if err == nil {
			_, err = res.All()
		}
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("[%s] referenced failing combination: err %v, want division by zero", m.name, err)
		}
	}
}

// TestEncodedLoadedThenInserted: a table the memory catalog loaded (its key
// column stored under a dictionary) and then took INSERTs into (flat pages
// behind the encoded ones) groups each key once, old and new rows together.
func TestEncodedLoadedThenInserted(t *testing.T) {
	conn := memconn.New("mem")
	keys, vals := make([]string, 300), make([]int64, 300)
	for i := range keys {
		keys[i], vals[i] = []string{"hot", "warm", "cold"}[i%3], 1
	}
	conn.LoadTable("t", []connector.Column{{Name: "k", T: types.Varchar}, {Name: "v", T: types.Bigint}},
		[]*block.Page{block.NewPage(block.NewVarcharBlock(keys, nil), block.NewLongBlock(vals, nil))})
	engines := encEngines(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2}, conn)
	if ndv := conn.Stats("t").ColumnNDV["k"]; ndv != 3 {
		t.Fatalf("ColumnNDV[k] = %d after the load, want 3", ndv)
	}
	for i := 0; i < 5; i++ {
		if _, err := engines[0].c.Query(fmt.Sprintf("INSERT INTO mem.t VALUES ('hot', 10), ('new%d', 100)", i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if ndv := conn.Stats("t").ColumnNDV["k"]; ndv != 5 {
		t.Errorf("ColumnNDV[k] = %d after the inserts, want 5", ndv)
	}
	want := []string{"cold|100|100", "hot|105|150", "new0|3|300", "new1|2|200", "warm|100|100"}
	for _, m := range engines {
		got := stringifyRows(execSession(t, m.c, "SELECT k, count(*), sum(v) FROM mem.t GROUP BY k", Session{}))
		assertRows(t, "loaded then inserted ["+m.name+"]", got, want)
	}
}

// TestEncodedDictProbeFlatBuildJoin is the regression test for the hash-join
// probe layout mismatch: the probe side arrives dictionary- and RLE-encoded
// while the build side was built from flat varchar pages. The join must fall
// back per page rather than fail or drop rows, and the per-label counts must
// match the ground truth.
func TestEncodedDictProbeFlatBuildJoin(t *testing.T) {
	truth := encGroundTruth()
	labelOf := map[string]string{"hot": "H", "key01": "K1", "key03": "K3", "alpha": "A", "": "EMPTY", "zz": "Z"}
	want := map[string]int64{}
	for k, cnt := range truth {
		if lbl, ok := labelOf[k]; ok {
			want[lbl] += cnt[0]
		}
	}

	for _, m := range encEngines(t, ClusterConfig{Workers: 2, ThreadsPerWorker: 2}, newEncodedConnector()) {
		rows := execSession(t, m.c,
			"SELECT d.label, count(*) FROM enc.facts f JOIN enc.dims d ON f.k = d.k GROUP BY d.label", Session{})
		got := map[string]int64{}
		for _, row := range rows {
			got[row[0].S] = row[1].I
		}
		if len(got) != len(want) {
			t.Errorf("[%s] join produced labels %v, want %v", m.name, got, want)
			continue
		}
		for lbl, n := range want {
			if got[lbl] != n {
				t.Errorf("[%s] label %q joined %d rows, want %d", m.name, lbl, got[lbl], n)
			}
		}
	}
}

// TestEncodedDistributedDifferential pushes the same encoded tables through
// the HTTP-distributed cluster: the binary page codec must round-trip the
// dictionary and RLE blocks, and distributed results must equal the embedded
// interpreter's.
func TestEncodedDistributedDifferential(t *testing.T) {
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, Interpreted: true})
	t.Cleanup(ref.Close)
	ref.Register(newEncodedConnector())
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(newEncodedConnector())

	for _, q := range encDiffQueries {
		want := stringifyRows(execSession(t, ref, q, Session{}))
		assertRows(t, q+" [distributed]", stringifyRows(d.mustQuery(t, q)), want)
	}
}

// TestEncodedSkewUsesAllDrivers is the scheduling half of the morsel story:
// with one giant split and three tiny ones on a worker of eight threads, the
// scan starts as many drivers as the split-concurrency target allows — not one
// a split, which would pin the giant split to a single driver — and their
// shared reads of the giant split's morsels add up to the Go-loop ground
// truth.
func TestEncodedSkewUsesAllDrivers(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 8, TargetSplitConcurrency: 6})
	defer c.Close()
	c.Register(newEncodedConnector())

	truth := map[string][2]int64{} // g rendered, NULL included → count, sum(v)
	for _, p := range encodedFactPages() {
		g, v := p.Col(1), p.Col(2)
		for r := 0; r < p.RowCount(); r++ {
			e := truth[g.Value(r).String()]
			e[0]++
			e[1] += v.Long(r)
			truth[g.Value(r).String()] = e
		}
	}
	q := "SELECT g, count(*), sum(v) FROM enc.facts GROUP BY g"
	res, err := c.ExecuteSession(q, Session{Switches: exec.DisableResultCache})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(truth) || len(rows) != 15 { // g in 0..12 from the giant page, 13 from the edge page, plus the NULL group
		t.Errorf("skew scan produced %d groups, want 15 (ground truth %d): %v", len(rows), len(truth), rows)
	}
	for _, row := range rows {
		if want := truth[row[0].String()]; row[1].I != want[0] || row[2].I != want[1] {
			t.Errorf("group %s = (count %d, sum %d), want %v", row[0], row[1].I, row[2].I, want)
		}
	}
	st, _ := c.QueryStats(res.QueryID)
	drivers := 0
	for _, sg := range st.Stages {
		for _, pl := range sg.Pipelines {
			if len(pl.Operators) > 0 && pl.Operators[0].Name == "TableScan" {
				drivers = max(drivers, pl.Drivers)
			}
		}
	}
	if drivers != 6 {
		t.Errorf("the skewed scan started %d drivers, want 6 (the split-concurrency target): more than its 4 splits", drivers)
	}
}
