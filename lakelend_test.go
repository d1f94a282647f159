package presto

// A lazy lake scan lends its pages (DESIGN.md "Who owns a page"): in front of
// an operator that releases its input, the lazy columns of a whole stripe
// page decode into the scan's scratch, which the scan takes back at its next
// page. These differentials run every shape a lake scan can feed — released
// and kept, whole and sliced, re-wrapped with partition columns, dictionary
// columns with NULLs — with taken-back vectors poisoned, against the same
// files read eagerly and against a memory copy.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/orcish"
	"repro/internal/types"
)

// lendColumns is the lake tables' schema: flat and dictionary-encoded
// numbers (n with NULLs, q of few values), a date, a double, and a
// low-cardinality string with NULLs, which the writer stores as a dictionary.
var lendColumns = []orcish.ColumnMeta{
	{Name: "k", T: types.Bigint}, {Name: "q", T: types.Bigint}, {Name: "n", T: types.Bigint},
	{Name: "d", T: types.Date}, {Name: "x", T: types.Double}, {Name: "s", T: types.Varchar},
}

// lendPage draws rows [from, from+rows) of a lake table.
func lendPage(rng *rand.Rand, from, rows int) *block.Page {
	k, q, n, d := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	x, s := make([]float64, rows), make([]string, rows)
	nNull, sNull := make([]bool, rows), make([]bool, rows)
	words := []string{"a", "b", "c1", "c2", "d", "e"}
	for i := range rows {
		k[i], q[i], n[i] = int64(from+i), int64(rng.Intn(5)), rng.Int63n(1000)
		d[i], x[i] = 9000+rng.Int63n(2000), rng.Float64()
		nNull[i], sNull[i] = rng.Intn(9) == 0, rng.Intn(7) == 0
		s[i] = words[rng.Intn(len(words))]
	}
	return block.NewPage(block.NewLongBlock(k, nil), block.NewLongBlock(q, nil), block.NewLongBlock(n, nNull),
		block.NewDateBlock(d, nil), block.NewDoubleBlock(x, nil), block.NewVarcharBlock(s, sNull))
}

// lendLake writes the lake under dir — facts (three files of 1024-row
// stripes), dim (a join build), parts (partitioned by region) and big (one
// stripe larger than a morsel) — and returns a memory catalog holding the
// same rows, parts' region column last as the lake appends it.
func lendLake(t *testing.T, dir string) *memconn.Connector {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	mem := memconn.New("mem")
	cols := func(extra ...connector.Column) []connector.Column {
		var out []connector.Column
		for _, c := range lendColumns {
			out = append(out, connector.Column{Name: c.Name, T: c.T})
		}
		return append(out, extra...)
	}
	write := func(path string, schema []orcish.ColumnMeta, pages []*block.Page, stripeRows int) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := orcish.WriteFile(path, schema, pages, stripeRows); err != nil {
			t.Fatal(err)
		}
	}

	var facts []*block.Page
	for f := range 3 {
		var file []*block.Page
		for p := range 2 {
			file = append(file, lendPage(rng, (2*f+p)*3000, 3000))
		}
		write(filepath.Join(dir, "facts", fmt.Sprintf("f%d.orcish", f)), lendColumns, file, 1024)
		facts = append(facts, file...)
	}
	mem.LoadTable("facts", cols(), facts)

	keys, weights := make([]int64, 2000), make([]int64, 2000)
	for i := range keys {
		keys[i], weights[i] = int64(9*i), int64(i%13)
	}
	dim := block.NewPage(block.NewLongBlock(keys, nil), block.NewLongBlock(weights, nil))
	dimCols := []orcish.ColumnMeta{{Name: "k", T: types.Bigint}, {Name: "w", T: types.Bigint}}
	write(filepath.Join(dir, "dim", "d.orcish"), dimCols, []*block.Page{dim}, 1024)
	mem.LoadTable("dim", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "w", T: types.Bigint}}, []*block.Page{dim})

	var parts []*block.Page
	for _, region := range []string{"east", "west"} {
		p := lendPage(rng, 0, 2500)
		write(filepath.Join(dir, "parts", "region="+region, "p.orcish"), lendColumns, []*block.Page{p}, 1024)
		parts = append(parts, block.NewPage(append(slices.Clone(p.Cols), block.NewRLEBlock(types.VarcharValue(region), p.RowCount()))...))
	}
	mem.LoadTable("parts", cols(connector.Column{Name: "region", T: types.Varchar}), parts)

	rows := exec.DefaultMorselRows + 4000
	big := lendPage(rng, 0, rows)
	write(filepath.Join(dir, "big", "b.orcish"), lendColumns, []*block.Page{big}, rows)
	mem.LoadTable("big", cols(), []*block.Page{big})
	return mem
}

// lendStatements are the shapes a lake scan feeds, {T} standing for the
// catalog.
var lendStatements = []string{
	// scan -> filter -> aggregation: the filter's processor lends to the
	// aggregation, so the scan lends to the processor.
	"SELECT s, count(*), sum(x), sum(k), min(d), max(n) FROM {T}.facts WHERE k % 3 <> 1 AND x > 0.2 GROUP BY s",
	"SELECT q, count(*), sum(n), max(x) FROM {T}.facts WHERE d BETWEEN 9500 AND 10500 GROUP BY q",
	// scan -> aggregation.
	"SELECT count(*), sum(k), sum(x), count(n), min(d), max(q), count(s) FROM {T}.facts",
	// scan -> output: the output buffer keeps its pages, so nothing is lent.
	"SELECT k, q, n, d, x, s FROM {T}.facts WHERE k % 7 = 0",
	"SELECT * FROM {T}.dim",
	// scan -> join build (kept) and probe (released).
	"SELECT f.s, count(*), sum(f.x), sum(dm.w) FROM {T}.facts f JOIN {T}.dim dm ON f.k = dm.k GROUP BY f.s",
	"SELECT f.k, f.q, f.s, dm.w FROM {T}.facts f JOIN {T}.dim dm ON f.k = dm.k WHERE f.x < 0.3",
	// a partitioned table: the source re-wraps every page with its region.
	"SELECT region, s, count(*), sum(x), sum(n) FROM {T}.parts WHERE n IS NOT NULL GROUP BY region, s",
	"SELECT region, count(*), max(k) FROM {T}.parts WHERE region = 'east' GROUP BY region",
	// a stripe larger than a morsel: its slices are shared across drivers.
	"SELECT s, count(*), sum(k), sum(x) FROM {T}.big GROUP BY s",
	"SELECT count(*), sum(x), max(d) FROM {T}.big WHERE k % 5 = 0",
	// a dictionary VARCHAR column with NULLs, filtered and grouped.
	"SELECT s, count(*), count(s), max(k) FROM {T}.facts WHERE s <> 'b' OR s IS NULL GROUP BY s",
	"SELECT count(*), sum(q) FROM {T}.facts WHERE s LIKE 'c%'",
}

// TestLazyLakeLendingDifferential: every statement returns, read lazily from
// the lake with taken-back scratch poisoned, the rows of the same files read
// eagerly and of the memory copy.
func TestLazyLakeLendingDifferential(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	dir := t.TempDir()
	mem := lendLake(t, dir)
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 2, DisableResultCache: true})
	defer c.Close()
	c.Register(mem)
	for _, cat := range []struct {
		name string
		lazy bool
	}{{"lazy", true}, {"eager", false}} {
		lake, err := hive.New(cat.name, hive.Config{Dir: dir, LazyReads: cat.lazy, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		c.Register(lake)
	}
	for _, sql := range lendStatements {
		want := rowsWithin(t, strings.ReplaceAll(sql, "{T}", "mem"), c.Query)
		if len(want) == 0 {
			t.Fatalf("%s: no rows in the memory copy", sql)
		}
		for _, cat := range []string{"lazy", "eager"} {
			q := strings.ReplaceAll(sql, "{T}", cat)
			assertRows(t, q, rowsWithin(t, q, c.Query), want)
		}
	}
}
