package presto

// A dynamic join filter tested row by row — by the processor on a probe scan
// whose rows cross an exchange before they meet the join that publishes the
// filter — over every key type a summary takes and every encoding a probe
// column arrives in: flat with NULLs, a dictionary several pages share, a
// dictionary with more entries than its page has rows, runs, and lazy
// columns. Rows must equal the filters-off run's, and each filter must drop
// rows, so that the row test, not the join, is what the rows went through.

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/types"
)

// dynRowKey is one probe/build pair of the suite: the probe column's domain
// (NULL among it), the build keys, and the build column's type when it is not
// the probe's. An equality across types plans as a residual over a cross join,
// which publishes no filter: for those pairs the rows are all there is to
// compare.
type dynRowKey struct {
	name   string
	t      types.Type
	domain []types.Value
	buildT types.Type
	build  []types.Value
}

func dynRowKeys() []dynRowKey {
	longs := func(t types.Type, vs ...int64) []types.Value {
		out := []types.Value{types.NullValue(t)}
		for _, v := range vs {
			out = append(out, types.Value{T: t, I: v})
		}
		return out
	}
	doubles := func(vs ...float64) []types.Value {
		out := []types.Value{types.NullValue(types.Double)}
		for _, v := range vs {
			out = append(out, types.DoubleValue(v))
		}
		return out
	}
	seq := make([]int64, 40)
	strs := []types.Value{types.NullValue(types.Varchar), types.VarcharValue("")}
	for i := range seq {
		seq[i] = int64(i - 5)
		strs = append(strs, types.VarcharValue(fmt.Sprintf("k%02d", i)))
	}
	negZero := math.Copysign(0, -1)
	dbl := doubles(0, negZero, 1.5, 5, -5, math.NaN(), 42, 1e18, 0.1, 3, 7, 8, 9, 10, 11, 12)
	return []dynRowKey{
		{name: "bigint", t: types.Bigint, domain: longs(types.Bigint, seq...), build: longs(types.Bigint, 1, 3, 3, 34, -5)},
		{name: "date", t: types.Date, domain: longs(types.Date, seq...), build: longs(types.Date, 0, 7, 30)},
		{name: "double", t: types.Double, domain: dbl, build: doubles(negZero, 5, math.NaN(), 0.1, 1e18)},
		{name: "varchar", t: types.Varchar, domain: strs, build: []types.Value{types.VarcharValue("k01"),
			types.VarcharValue("k03"), types.VarcharValue(""), types.NullValue(types.Varchar)}},
		{name: "boolean", t: types.Boolean, domain: []types.Value{types.NullValue(types.Boolean),
			types.BooleanValue(true), types.BooleanValue(false)}, build: []types.Value{types.BooleanValue(true), types.NullValue(types.Boolean)}},
		// Integral doubles joined to BIGINT, both ways round.
		{name: "bigint_double", t: types.Bigint, domain: longs(types.Bigint, seq...), buildT: types.Double,
			build: doubles(3, 34, 2.5, negZero)},
		{name: "double_bigint", t: types.Double, domain: dbl, buildT: types.Bigint, build: longs(types.Bigint, 5, 0, 1e18, 9)},
	}
}

// dynRowPages builds the probe pages of key k, columns (k, v), v numbering
// the rows: a flat page with NULLs; three pages over one dictionary holding
// the whole domain; a page of eight rows over a dictionary of 64 entries; a
// run of a member, of a non-member and of NULL; and a lazy flat page.
func dynRowPages(k dynRowKey) []*block.Page {
	var pages []*block.Page
	v := int64(0)
	add := func(col block.Block) {
		ids := make([]int64, col.Len())
		for i := range ids {
			ids[i], v = v, v+1
		}
		pages = append(pages, block.NewPage(col, block.NewLongBlock(ids, nil)))
	}
	cycle := func(n, step int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = k.domain[i*step%len(k.domain)]
		}
		return out
	}
	indices := func(n, mod, step int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i * step % mod)
		}
		return out
	}
	add(block.BuildBlock(k.t, cycle(3*len(k.domain), 1)))
	dict := block.BuildBlock(k.t, k.domain)
	for p := 0; p < 3; p++ {
		add(block.NewDictionaryBlock(dict, indices(2*len(k.domain)+p, len(k.domain), p+1)))
	}
	add(block.NewDictionaryBlock(block.BuildBlock(k.t, cycle(64, 1)), indices(8, 64, 7)))
	for _, val := range []types.Value{k.build[1], k.domain[len(k.domain)-1], k.domain[0]} {
		add(block.NewRLEBlock(val, 50))
	}
	flat := block.BuildBlock(k.t, cycle(2*len(k.domain), 3))
	add(block.NewLazyBlock(k.t, flat.Len(), func(*block.Arena) block.Block { return flat }))
	return pages
}

// dynRowTested reads a statement's EXPLAIN ANALYZE for its row-tested
// filters' passed/tested counts.
var dynRowTested = regexp.MustCompile(`df\d+ row-tested (\d+)/(\d+) passed`)

// TestDynamicFilterRowTestEveryTypeAndEncoding: with the join partitioned, the
// probe scan's filter arrives from another fragment and is tested on every
// row of every page, whatever its encoding; the rows equal the filters-off
// run's, and the filter passes fewer rows than it tests.
func TestDynamicFilterRowTestEveryTypeAndEncoding(t *testing.T) {
	c := adaptiveCluster(t, ClusterConfig{DisableStats: true})
	conn := memconn.New("dyn")
	c.Register(conn)
	for _, k := range dynRowKeys() {
		buildT := k.buildT
		if buildT == types.Unknown {
			buildT = k.t
		}
		conn.LoadTable(k.name+"_probe", []connector.Column{{Name: "k", T: k.t}, {Name: "v", T: types.Bigint}}, dynRowPages(k))
		conn.LoadTable(k.name+"_build", []connector.Column{{Name: "k", T: buildT}},
			[]*block.Page{block.NewPage(block.BuildBlock(buildT, k.build))})
	}
	for _, k := range dynRowKeys() {
		sql := fmt.Sprintf("SELECT p.v, p.k FROM dyn.%s_probe p JOIN dyn.%s_build b ON p.k = b.k", k.name, k.name)
		on, _ := queryWith(t, c, sql, Session{})
		off, _ := queryWith(t, c, sql, Session{Switches: exec.DisableDynamicFilters})
		assertRows(t, sql, on, off)
		if len(on) == 0 {
			t.Errorf("%s: joined no row; the suite tests nothing", sql)
		}
		if k.buildT != types.Unknown {
			continue
		}
		lines := explainDynFilters(t, c, sql)
		m := dynRowTested.FindAllStringSubmatch(lines, -1)
		if len(m) == 0 {
			t.Errorf("%s [%s]: no row-tested filter in\n%s", sql, k.name, lines)
		}
		for _, g := range m {
			passed, _ := strconv.Atoi(g[1])
			tested, _ := strconv.Atoi(g[2])
			if passed >= tested {
				t.Errorf("%s [%s]: the filter passed %d of %d rows, want fewer", sql, k.name, passed, tested)
			}
		}
	}
}
