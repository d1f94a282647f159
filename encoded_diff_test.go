package presto

// Differential coverage over encoded, skewed data: hand-built pages mixing
// dictionary, RLE, and flat blocks — including the shapes the decode-free
// kernels and the morsel queue specialize on (an all-RLE page, a dictionary
// with unreferenced ids, one giant split next to tiny ones). Every query runs
// under the full {vector kernels × morsel scheduling} session matrix and, for
// the distributed suite, through the HTTP worker protocol; all paths must
// return identical rows. A Go-loop ground truth anchors the per-key counts so
// the matrix cannot agree on a shared wrong answer.

import (
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/types"
)

// encGiantRows exceeds the 64k morsel target so the giant page must be sliced
// into several morsels, and dwarfs the sibling splits so static per-driver
// assignment would leave most drivers idle.
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

// newEncodedConnector loads the facts and dims tables into a fresh memconn
// catalog named "enc". dims is deliberately flat so the join probes a
// dictionary-encoded varchar key against a flat build side.
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
}

// encMatrix is the ablation session matrix: filter kernels vs interpreted filters ("legacy")
// crossed with morsel vs static split scheduling.
var encMatrix = []struct {
	name string
	s    Session
}{
	{"vec+morsel", Session{}},
	{"legacy+morsel", Session{DisableVectorKernels: true}},
	{"vec+static", Session{DisableMorsels: true}},
	{"legacy+static", Session{DisableVectorKernels: true, DisableMorsels: true}},
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

// TestEncodedDifferentialMatrix runs every query under all four sessions on
// an in-process cluster over the encoded skewed tables; the result sets must
// be identical, and the group-by-key query must match the Go-loop ground
// truth.
func TestEncodedDifferentialMatrix(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(newEncodedConnector())

	for _, q := range encDiffQueries {
		base := stringifyRows(execSession(t, c, q, encMatrix[0].s))
		for _, m := range encMatrix[1:] {
			got := stringifyRows(execSession(t, c, q, m.s))
			assertRows(t, q+" ["+m.name+"]", got, base)
		}
	}

	// Anchor against ground truth so the matrix cannot agree on a shared
	// wrong answer: per-key count and sum.
	truth := encGroundTruth()
	for _, m := range encMatrix {
		rows := execSession(t, c, "SELECT k, count(*), sum(v) FROM enc.facts WHERE k IS NOT NULL GROUP BY k", m.s)
		if len(rows) != len(truth) {
			t.Fatalf("[%s] got %d groups, ground truth has %d", m.name, len(rows), len(truth))
		}
		for _, row := range rows {
			k := row[0].S
			want, ok := truth[k]
			if !ok {
				t.Errorf("[%s] unexpected group %q (unreferenced dictionary id leaked?)", m.name, k)
				continue
			}
			if row[1].I != want[0] || row[2].I != want[1] {
				t.Errorf("[%s] group %q = (count %d, sum %d), want (%d, %d)",
					m.name, k, row[1].I, row[2].I, want[0], want[1])
			}
		}
	}
}

// TestEncodedDictProbeFlatBuildJoin is the regression test for the hash-join
// probe layout mismatch: the probe side arrives dictionary- and RLE-encoded
// while the build side was built from flat varchar pages. The join must fall
// back per page rather than fail or drop rows, and the per-label counts must
// match the ground truth.
func TestEncodedDictProbeFlatBuildJoin(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	defer c.Close()
	c.Register(newEncodedConnector())

	truth := encGroundTruth()
	labelOf := map[string]string{"hot": "H", "key01": "K1", "key03": "K3", "alpha": "A", "": "EMPTY", "zz": "Z"}
	want := map[string]int64{}
	for k, cnt := range truth {
		if lbl, ok := labelOf[k]; ok {
			want[lbl] += cnt[0]
		}
	}

	for _, m := range encMatrix {
		rows := execSession(t, c,
			"SELECT d.label, count(*) FROM enc.facts f JOIN enc.dims d ON f.k = d.k GROUP BY d.label", m.s)
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
// engine's under both scheduling modes.
func TestEncodedDistributedDifferential(t *testing.T) {
	ref := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2})
	t.Cleanup(ref.Close)
	ref.Register(newEncodedConnector())
	d := newDistCluster(t, 2, nil)
	d.catalog.Register(newEncodedConnector())

	for _, q := range encDiffQueries {
		want := stringifyRows(execSession(t, ref, q, Session{}))
		assertRows(t, q+" [distributed]", stringifyRows(d.mustQuery(t, q)), want)
		res, err := d.Coord.Execute(q, Session{DisableMorsels: true})
		if err != nil {
			t.Fatalf("distributed static %q: %v", q, err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatalf("distributed static %q: %v", q, err)
		}
		assertRows(t, q+" [distributed static]", stringifyRows(rows), want)
	}
}

// TestEncodedSkewUsesAllDrivers is the scheduling half of the morsel story:
// with one giant split and three tiny ones, the morsel path must spread the
// giant split's pages across drivers instead of leaving them pinned to one.
// We assert on results staying correct while the skewed table is scanned with
// more parallelism than splits-per-driver would allow, by checking that the
// morsel run completes and agrees with the static run even when the cluster
// has more threads than splits.
func TestEncodedSkewUsesAllDrivers(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1, ThreadsPerWorker: 8})
	defer c.Close()
	c.Register(newEncodedConnector())

	q := "SELECT g, count(*), sum(v) FROM enc.facts GROUP BY g"
	morsel := stringifyRows(execSession(t, c, q, Session{}))
	static := stringifyRows(execSession(t, c, q, Session{DisableMorsels: true}))
	assertRows(t, q+" [morsel vs static on skew]", morsel, static)
	if len(morsel) != 15 { // g in 0..12 from the giant page, 13 from the edge page, plus the NULL group
		t.Errorf("skew scan produced %d groups, want 15: %v", len(morsel), morsel)
	}
}
