package operators

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// channelTestTs is the schema of both sides of the channel-list wall: the
// join key, then a varchar, a bigint and a double payload, and a varchar
// stored the way the memory catalog stores a low-cardinality one.
func channelTestTs(keyT types.Type) []types.Type {
	return []types.Type{keyT, types.Varchar, types.Bigint, types.Double, types.Varchar}
}

// channelKeyKind is a key the wall joins on: key returns the key block of
// page pg (rows rows, side offset off), of type t; a two-column key has a
// second column, key2 of type t2, after the payload columns.
type channelKeyKind struct {
	name string
	t    types.Type
	key  func(pg, rows, off int) block.Block
	t2   types.Type
	key2 func(pg, rows, off int) block.Block
}

// channelKeyKinds are the keys the wall joins on: duplicate-heavy, encoded
// and edge-valued single keys, a unique one, a two-column fixed-width one and
// a varchar one (its bytes kept in the table's arena).
var channelKeyKinds = []channelKeyKind{
	{name: "flat+nulls", t: types.Bigint, key: func(pg, rows, off int) block.Block {
		vals, nulls := make([]int64, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = int64(i%11), i%9 == 0
		}
		return block.NewLongBlock(vals, nulls)
	}},
	{name: "dictionary", t: types.Bigint, key: func(pg, rows, off int) block.Block {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64((pg*rows + r + off) % 7)
		}
		return block.DictEncode(block.NewLongBlock(vals, nil), 1)
	}},
	{name: "rle", t: types.Bigint, key: func(pg, rows, off int) block.Block {
		return block.NewRLEBlock(types.BigintValue(int64((pg+off)%3)), rows)
	}},
	{name: "double -0.0/NaN", t: types.Double, key: func(pg, rows, off int) block.Block {
		cycle := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, 2, 3}
		vals, nulls := make([]float64, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = cycle[i%len(cycle)], i%10 == 0
		}
		return block.NewDoubleBlock(vals, nulls)
	}},
	{name: "unique", t: types.Bigint, key: func(pg, rows, off int) block.Block {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64(pg*rows + r + off)
		}
		return block.NewLongBlock(vals, nil)
	}},
	{name: "bigint,date", t: types.Bigint, key: func(pg, rows, off int) block.Block {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64((pg*rows + r + off) % 5)
		}
		return block.NewLongBlock(vals, nil)
	}, t2: types.Date, key2: func(pg, rows, off int) block.Block {
		vals, nulls := make([]int64, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = int64(18000+i/2%3), i%13 == 0
		}
		return &block.LongBlock{T: types.Date, Vals: vals, Nulls: nulls}
	}},
	{name: "varchar", t: types.Varchar, key: func(pg, rows, off int) block.Block {
		vals, nulls := make([]string, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = fmt.Sprintf("k%d", i%6), i%8 == 0
		}
		vals[0] = "" // the empty string is a key, and not NULL's
		return block.NewVarcharBlock(vals, nulls)
	}},
}

// ts is the schema of a side: channelTestTs, then the second key column.
func (k channelKeyKind) ts() []types.Type {
	ts := channelTestTs(k.t)
	if k.key2 != nil {
		ts = append(ts, k.t2)
	}
	return ts
}

// keys are the key columns of a side.
func (k channelKeyKind) keys() []int {
	if k.key2 != nil {
		return []int{0, 5}
	}
	return []int{0}
}

// pages builds one side's pages, as channelTestPages, with the second key
// column after the payload.
func (k channelKeyKind) pages(npages, rows, off int) []*block.Page {
	pages := channelTestPages(k.key, npages, rows, off)
	if k.key2 != nil {
		for pg, p := range pages {
			pages[pg] = block.NewPage(append(p.Cols, k.key2(pg, rows, off))...)
		}
	}
	return pages
}

// channelTestPages builds one side's pages: the key column of the given
// kind, a varchar payload (dictionary-encoded on odd pages, a dictionary a
// page), a bigint with NULLs (a run on every third page), a double, and a
// varchar under one dictionary all the side's pages share (a NULL entry, and
// one no row references).
func channelTestPages(key func(pg, rows, off int) block.Block, npages, rows, off int) []*block.Page {
	var pages []*block.Page
	shared := block.NewVarcharBlock([]string{fmt.Sprint("d", off, "-0"), "", fmt.Sprint("d", off, "-2"), "unreferenced", fmt.Sprint("d", off, "-4")},
		[]bool{false, true, false, false, false})
	for pg := 0; pg < npages; pg++ {
		idx := make([]int32, rows)
		for r := range idx {
			idx[r] = []int32{0, 1, 2, 4}[(pg*rows+r)%4]
		}
		strs, longs, lnulls, doubles := make([]string, rows), make([]int64, rows), make([]bool, rows), make([]float64, rows)
		for r := 0; r < rows; r++ {
			i := pg*rows + r
			strs[r] = fmt.Sprintf("s%d-%d", off, i%5)
			longs[r], lnulls[r] = int64(i*3+off), i%4 == 0
			doubles[r] = float64(i) / 4
		}
		var sb, lb block.Block = block.NewVarcharBlock(strs, nil), block.NewLongBlock(longs, lnulls)
		if pg%2 == 1 {
			sb = block.DictEncode(sb, 1)
		}
		if pg%3 == 2 {
			lb = block.NewRLEBlock(types.BigintValue(int64(pg)), rows)
		}
		pages = append(pages, block.NewPage(key(pg, rows, off), sb, lb, block.NewDoubleBlock(doubles, nil), block.NewDictionaryBlock(shared, idx)))
	}
	return pages
}

// drainRows drives op like drain, but renders every output page before it
// asks for the next one — all a consumer of lent pages is entitled to — and
// returns the rows in the order they came out.
func drainRows(t *testing.T, op Operator, inputs ...*block.Page) [][]types.Value {
	t.Helper()
	var out [][]types.Value
	pull := func() {
		for {
			p, err := op.Output()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil || p.RowCount() == 0 {
				return
			}
			for r := 0; r < p.RowCount(); r++ {
				out = append(out, p.Row(r))
			}
		}
	}
	for _, p := range inputs {
		pull()
		if !op.NeedsInput() {
			t.Fatal("operator has no output and wants no input")
		}
		if err := op.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	pull()
	op.Finish()
	for !op.IsFinished() {
		pull()
	}
	return out
}

// drainCounts is drainRows' rows as the multiset refJoin returns.
func drainCounts(t *testing.T, op Operator, inputs ...*block.Page) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, row := range drainRows(t, op, inputs...) {
		out[rowText(row)]++
	}
	return out
}

// arrivalOrderPairs checks that a probe row's matches come out in build
// arrival order: the rows one probe row joins come out one after another
// (probe column p tells probe rows apart), and build column b, which grows
// with arrival, grows along them. It returns how many pairs of successive
// matches it compared.
func arrivalOrderPairs(t *testing.T, name string, rows [][]types.Value, p, b int) int {
	t.Helper()
	pairs := 0
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev[p].Null || cur[p].Null || prev[p].Compare(cur[p]) != 0 || prev[b].Null || cur[b].Null {
			continue
		}
		if pairs++; prev[b].Compare(cur[b]) >= 0 {
			t.Errorf("%s: probe row %v joins build row %v before %v", name, cur[p], prev[b], cur[b])
			return pairs
		}
	}
	return pairs
}

// channelResidual is the wall's residual over (probe ++ build) rows of ts:
// the probe's bigint payload below the build's, or the build's shared
// dictionary varchar equal to one of its entries. The bigints hold NULLs and
// runs, so the residual is NULL for some pairs, which do not match.
func channelResidual(ts []types.Type) expr.Expr {
	return &expr.Or{
		L: &expr.Compare{Op: expr.CmpLt, L: &expr.ColumnRef{Index: 2, T: types.Bigint}, R: &expr.ColumnRef{Index: len(ts) + 2, T: types.Bigint}},
		R: &expr.Compare{Op: expr.CmpEq, L: &expr.ColumnRef{Index: len(ts) + 4, T: types.Varchar}, R: expr.NewConst(types.VarcharValue("d0-2"))},
	}
}

// joinShapes are the rows of the wall: keyed and keyless, each without a
// residual and with channelResidual. A keyless join never spills.
var joinShapes = []struct {
	name            string
	keyed, residual bool
}{{"keyed", true, false}, {"keyed+residual", true, true}, {"keyless", false, false}, {"keyless+residual", false, true}}

// TestJoinOutputChannelsDifferential is the wall for the join's one output
// path: every join type, CROSS among them, keyed and keyless, with a residual
// and without, over flat, dictionary, RLE, NULL, -0.0 and NaN keys, unique,
// two-column and varchar keys, emitting every channel, everything but the
// keys, one build column, the probe side alone, and joining an empty build —
// lent and owned, from memory and, keyed, through a build spilled after every
// page (the drain's private operator, which inherits the residual) — must
// emit exactly the listed columns of the per-row reference's rows. The
// residual reads columns that are not listed. Emitting every channel, each
// probe row's matches come out in build arrival order. Pages of seven rows
// make every probe page span several Outputs, and a probe row's candidates
// span pages: a lending join refills its vectors — a dictionary column's
// index vector among them — while the probe page is still being emitted, and
// LEFT, SEMI and ANTI decide a row whose candidates two pages hold. The
// build's column 4 is one shared dictionary over all its pages: from memory
// it is gathered as indices (but for LEFT and FULL, which null-extend), from
// a spilled build it comes back a dictionary a page and is gathered flat.
func TestJoinOutputChannelsDifferential(t *testing.T) {
	cases := []struct {
		name         string
		probe, build []int
		emptyBuild   bool
	}{
		{"all channels", []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}, false},
		{"keys dropped", []int{1, 2, 3, 4}, []int{1, 2, 3, 4}, false},
		{"one build column", nil, []int{2}, false},
		{"shared dictionaries", []int{4}, []int{4}, false},
		{"probe only", []int{3, 1}, nil, false},
		{"empty build", []int{0, 2}, []int{1, 3}, true},
	}
	joinTypes := append(allJoinTypes[:len(allJoinTypes):len(allJoinTypes)], struct {
		name string
		jt   plan.JoinType
	}{"cross", plan.CrossJoin})
	// Pairs of successive matches compared for arrival order, by shape.
	ordered := map[string]int{}
	for _, shape := range joinShapes {
		for _, kind := range channelKeyKinds {
			ts, keys := kind.ts(), kind.keys()
			if !shape.keyed {
				keys = nil
			}
			keyTs := make([]types.Type, len(keys))
			for i, c := range keys {
				keyTs[i] = ts[c]
			}
			var residual expr.Expr
			if shape.residual {
				residual = channelResidual(ts)
			}
			probePages := kind.pages(3, 40, 2)
			for _, tc := range joinTypes {
				if tc.jt == plan.CrossJoin && shape.keyed {
					continue // a CROSS join has no key
				}
				for _, c := range cases {
					var buildPages []*block.Page
					if !c.emptyBuild {
						buildPages = kind.pages(3, 25, 0)
					}
					probeOut, buildOut := c.probe, c.build
					if tc.jt == plan.SemiJoin || tc.jt == plan.AntiJoin {
						buildOut = nil
					}
					want := map[string]int{}
					refJoinRows(tc.jt, buildPages, probePages, keys, keys, residual, ts, ts, func(row []types.Value) {
						var out []types.Value
						for _, ch := range probeOut {
							out = append(out, row[ch])
						}
						for _, ch := range buildOut {
							out = append(out, row[len(ts)+ch])
						}
						want[rowText(out)]++
					})
					for _, spilled := range []bool{false, true} {
						if spilled && !shape.keyed {
							continue // the compiler arms no spill for these
						}
						for _, lend := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/%s/spilled=%v/lend=%v", shape.name, kind.name, tc.name, c.name, spilled, lend)
							bridge := NewJoinBridge()
							if spilled {
								bridge.EnableSpill(spillTestMem(), t.TempDir(), keys, keyTs)
							}
							bridge.AddBuilder()
							hb := NewHashBuild(NopContext(), bridge, keys, keyTs)
							for _, p := range buildPages {
								if err := hb.AddInput(p); err != nil {
									t.Fatal(err)
								}
								if spilled {
									if _, err := bridge.Revoke(); err != nil {
										t.Fatal(err)
									}
								}
							}
							hb.Finish()
							bridge.NoMoreBuilders()
							bridge.AddProbe()
							bridge.NoMoreProbes()
							op := NewLookupJoin(NopContext(), bridge, tc.jt, keys, NewJoinResidual(residual, len(ts), expr.NewPageProcessor), ts, ts, 7)
							op.SetOutputChannels(probeOut, buildOut)
							if lend {
								op.LendOutput(nil)
							}
							rows := drainRows(t, op, probePages...)
							got := map[string]int{}
							for _, row := range rows {
								got[rowText(row)]++
							}
							assertSameCounts(t, name, got, want)
							if c.name == "all channels" && buildOut != nil {
								// Probe and build column 3 grow with arrival.
								ordered[fmt.Sprintf("%s, spilled=%v", shape.name, spilled)] += arrivalOrderPairs(t, name, rows, 3, len(probeOut)+3)
							}
							if spilled && len(buildPages) > 0 && bridge.SpillCount() == 0 {
								t.Errorf("%s: the build never spilled", name)
							}
							if err := op.Close(); err != nil {
								t.Fatal(err)
							}
							bridge.ReleaseSpill()
						}
					}
				}
			}
		}
	}
	for _, shape := range joinShapes {
		for _, spilled := range []bool{false, true} {
			if what := fmt.Sprintf("%s, spilled=%v", shape.name, spilled); ordered[what] == 0 && (shape.keyed || !spilled) {
				t.Errorf("%s: no probe row had two matches to compare", what)
			}
		}
	}
}

// TestOuterJoinWaitsForPendingPairs: a driver finishes its join as soon as
// its input ends, while the join may still have pairs of its last probe page
// to emit. RIGHT and FULL flag matched build rows as they emit the pairs, so
// a join counts as finished to its bridge only once it has emitted them, and
// no peer emits the unmatched build rows before. Two probe operators over a
// build with repeated keys, each finished with pairs pending, and one alone,
// finished before its first Output, return the reference's rows: no build
// row both joined and NULL-extended, none NULL-extended for want of a flag.
func TestOuterJoinWaitsForPendingPairs(t *testing.T) {
	ts := []types.Type{types.Bigint, types.Bigint}
	build := []*block.Page{twoColPage([]int64{1, 1, 1, 2, 2, 3, 4}, []int64{0, 1, 2, 3, 4, 5, 6})}
	probes := [][]*block.Page{
		{twoColPage([]int64{1, 2, 1}, []int64{101, 102, 103})},
		{twoColPage([]int64{3, 5}, []int64{201, 202})},
	}
	for _, tc := range allJoinTypes {
		for _, peers := range []int{1, 2} {
			for _, residual := range []expr.Expr{nil, oddPayloadSum} {
				name := fmt.Sprintf("%s, %d probe operators, residual=%v", tc.name, peers, residual != nil)
				bridge := buildBridge(t, []int{0}, build...)
				var ops []*LookupJoinOperator
				var probed []*block.Page
				for i := 0; i < peers; i++ {
					bridge.AddProbe()
					ops = append(ops, NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, NewJoinResidual(residual, len(ts), expr.NewPageProcessor), ts, ts, 2))
					probed = append(probed, probes[i]...)
				}
				bridge.NoMoreProbes()
				got := map[string]int{}
				for _, row := range drainPeers(t, ops, probes[:peers]) {
					got[rowText(row)]++
				}
				assertSameCounts(t, name, got, refJoin(t, tc.jt, build, probed, []int{0}, []int{0}, residual, ts, ts))
			}
		}
	}
}

// TestSemiResidualDecidesInRounds: a SEMI or ANTI row with a residual puts
// its chain to the residual a round at a time, semiRound candidates first, and
// its first match ends the chain. Probe rows whose first of 1 000 candidates
// passes have the residual see rounds of semiRound pairs, not their chains.
// Where none passes, the rounds double and the rows still come out right.
func TestSemiResidualDecidesInRounds(t *testing.T) {
	const chain = 1000
	ts := []types.Type{types.Bigint, types.Bigint}
	keys, payload := make([]int64, chain), make([]int64, chain)
	for i := range payload {
		payload[i] = int64(2 * i) // even: an odd probe payload passes, an even one does not
	}
	build := twoColPage(keys, payload)
	for _, tc := range []struct {
		name string
		jt   plan.JoinType
	}{{"semi", plan.SemiJoin}, {"anti", plan.AntiJoin}} {
		for _, probePayload := range []int64{1, 2} {
			name := fmt.Sprintf("%s, probe payload %d", tc.name, probePayload)
			bridge := buildBridge(t, []int{0}, build)
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, NewJoinResidual(oddPayloadSum, len(ts), expr.NewPageProcessor), ts, ts, 4096)
			probe := twoColPage([]int64{0, 0, 0}, []int64{probePayload, probePayload, probePayload})
			got := map[string]int{}
			for _, row := range drainRows(t, op, probe) {
				got[rowText(row)]++
			}
			assertSameCounts(t, name, got, refJoin(t, tc.jt, []*block.Page{build}, []*block.Page{probe}, []int{0}, []int{0}, oddPayloadSum, ts, ts))
			if seen := op.residual.page.RowCount(); probePayload%2 == 1 && seen != semiRound {
				t.Errorf("%s: the residual's last round was %d pairs, want %d", name, seen, semiRound)
			}
		}
	}
}

// TestJoinLentVectorsArePoisoned: with the poison on (as scripts/check.sh
// links it under the differential walls), a page a lending join handed out
// reads differently once the join has gathered the next one, so a consumer
// that kept it fails the walls instead of passing by luck.
func TestJoinLentVectorsArePoisoned(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	bridge := buildBridge(t, []int{0}, twoColPage([]int64{1, 2, 3}, []int64{10, 20, 30}))
	bridge.AddProbe()
	ts := []types.Type{types.Bigint, types.Bigint}
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 2)
	op.LendOutput(nil)
	if err := op.AddInput(twoColPage([]int64{1, 2, 3}, []int64{7, 8, 9})); err != nil {
		t.Fatal(err)
	}
	first, err := op.Output()
	if err != nil || first == nil {
		t.Fatalf("first page: %v %v", first, err)
	}
	before := rowText(first.Row(0))
	if _, err := op.Output(); err != nil {
		t.Fatal(err)
	}
	if after := rowText(first.Row(0)); after == before {
		t.Errorf("a lent page still reads %q after the next gather", after)
	}

	// Dictionary columns, probe side and (one dictionary over all its pages)
	// build side: the dictionaries are never lent, the index vectors are, and a
	// poisoned index addresses no entry.
	kind := channelKeyKinds[0]
	dts := channelTestTs(kind.t)
	bridge = buildBridge(t, []int{0}, channelTestPages(kind.key, 2, 25, 0)...)
	bridge.AddProbe()
	op = NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, dts, dts, 7)
	op.SetOutputChannels([]int{4}, []int{4})
	op.LendOutput(nil)
	if err := op.AddInput(channelTestPages(kind.key, 1, 40, 2)[0]); err != nil {
		t.Fatal(err)
	}
	if first, err = op.Output(); err != nil || first == nil {
		t.Fatalf("first page: %v %v", first, err)
	}
	var lent [2]string
	for c := range lent {
		d, ok := first.Col(c).(*block.DictionaryBlock)
		if !ok {
			t.Fatalf("column %d of the join's output is %T, want a dictionary block", c, first.Col(c))
		}
		lent[c] = fmt.Sprint(d.Indices)
	}
	if _, err := op.Output(); err != nil {
		t.Fatal(err)
	}
	for c := range lent {
		d := first.Col(c).(*block.DictionaryBlock)
		if after := fmt.Sprint(d.Indices); after == lent[c] {
			t.Errorf("column %d: a lent index vector still reads %s after the next gather", c, after)
		}
		if d.Dict.Str(0) == "" {
			t.Errorf("column %d: the dictionary changed; only index vectors are lent", c)
		}
	}
}

// probeCostJoin is the shape of TestJoinProbeAllocationCeiling and
// BenchmarkHashJoinProbeParallel: a four-column probe side (bigint key, two
// doubles, a varchar) joined to a three-column build of 4096 distinct keys
// (bigint key, varchar, double), of which the consumer reads one probe double
// and the build varchar.
func probeCostJoin(tb testing.TB) (*JoinBridge, []types.Type, []types.Type, []*block.Page) {
	const keys, pageRows, npages = 4096, 4096, 24
	bk, bs, bd := make([]int64, keys), make([]string, keys), make([]float64, keys)
	for i := range bk {
		bk[i], bs[i], bd[i] = int64(i), fmt.Sprintf("brand-%d", i%25), float64(i)
	}
	buildTs := []types.Type{types.Bigint, types.Varchar, types.Double}
	bridge := buildBridge(tb, []int{0}, block.NewPage(block.NewLongBlock(bk, nil), block.NewVarcharBlock(bs, nil), block.NewDoubleBlock(bd, nil)))
	probeTs := []types.Type{types.Bigint, types.Double, types.Double, types.Varchar}
	var pages []*block.Page
	for pg := 0; pg < npages; pg++ {
		k, a, b, s := make([]int64, pageRows), make([]float64, pageRows), make([]float64, pageRows), make([]string, pageRows)
		for r := range k {
			i := pg*pageRows + r
			k[r], a[r], b[r], s[r] = int64(i*7%keys), float64(i%50), float64(i), "m"
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(k, nil), block.NewDoubleBlock(a, nil), block.NewDoubleBlock(b, nil), block.NewVarcharBlock(s, nil)))
	}
	return bridge, probeTs, buildTs, pages
}

// probeCostDriver is one probe driver of probeCostJoin feeding a partial
// aggregation (group by the build varchar, sum the probe double), wired as
// the pipeline compiler wires them: two channels listed, the output lent.
func probeCostDriver(bridge *JoinBridge, probeTs, buildTs []types.Type) (*LookupJoinOperator, *HashAggregationOperator) {
	bridge.AddProbe()
	join := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, probeTs, buildTs, 4096)
	join.SetOutputChannels([]int{1}, []int{1})
	agg := NewHashAggregation(NopContext(), []int{1}, []types.Type{types.Varchar},
		[]AggSpec{{Func: plan.AggSum, ArgCol: 0, Out: types.Double}}, false, 4096, 0)
	join.LendOutput(agg)
	return join, agg
}

func driveProbe(tb testing.TB, join *LookupJoinOperator, agg *HashAggregationOperator, pages []*block.Page) (rows int) {
	for _, p := range pages {
		if err := join.AddInput(p); err != nil {
			tb.Error(err)
			return rows
		}
		for !join.NeedsInput() {
			out, err := join.Output()
			if err == nil && out != nil {
				err = agg.AddInput(out)
			}
			if err != nil {
				tb.Error(err)
				return rows
			}
		}
		rows += p.RowCount()
	}
	return rows
}

// TestJoinProbeAllocationCeiling: once a probe driver has seen a few pages —
// its selection and output vectors sized, the aggregation's 25 groups made — a
// further page costs the output page's headers and nothing per row: about 0.07
// bytes per probe row. At the parent commit, which gathered all seven
// channels of every page into fresh arrays, the same driver allocated 75.6
// bytes per probe row. The ceiling is well over the measurement and far under
// one gathered column (8 bytes a row).
func TestJoinProbeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const ceiling = 1.0 // bytes per probe row
	bridge, probeTs, buildTs, pages := probeCostJoin(t)
	bridge.NoMoreProbes()
	join, agg := probeCostDriver(bridge, probeTs, buildTs)
	driveProbe(t, join, agg, pages[:4])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := driveProbe(t, join, agg, pages[4:])
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); got > ceiling {
		t.Errorf("a steady-state probe driver allocates %.2f bytes per probe row over %d pages, want <= %.2f", got, len(pages)-4, ceiling)
	} else {
		t.Logf("%.3f bytes per probe row over %d pages", got, len(pages)-4)
	}
}

// TestJoinProbeConcurrentWithLateCancel: four probe drivers read one built
// table at once — nothing but the table snapshot is taken under the bridge
// lock — while the task fails and cancels the bridge under them. A cancel
// leaves a built table alone, so every driver still joins every row. Run
// under -race.
func TestJoinProbeConcurrentWithLateCancel(t *testing.T) {
	bridge, probeTs, buildTs, pages := probeCostJoin(t)
	const drivers = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, drivers)
	for d := 0; d < drivers; d++ {
		join, agg := probeCostDriver(bridge, probeTs, buildTs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := driveProbe(t, join, agg, pages[:1])
			started <- struct{}{}
			rows += driveProbe(t, join, agg, pages[1:6])
			if rows != 6*pages[0].RowCount() {
				t.Errorf("a probe driver joined %d rows", rows)
			}
			join.Finish()
		}()
	}
	bridge.NoMoreProbes()
	for d := 0; d < drivers; d++ {
		<-started // every driver is past its first page: the cancel is late
	}
	bridge.Cancel()
	wg.Wait()
}

// BenchmarkHashJoinProbeParallel times four probe drivers over one bridge, 24
// pages of 4096 rows each: they hold the bridge lock only to copy the table
// snapshot, so they scale with the cores there are.
func BenchmarkHashJoinProbeParallel(b *testing.B) {
	bridge, probeTs, buildTs, pages := probeCostJoin(b)
	bridge.NoMoreProbes()
	const drivers = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			join, agg := probeCostDriver(bridge, probeTs, buildTs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				driveProbe(b, join, agg, pages)
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N*drivers*len(pages)*pages[0].RowCount())/b.Elapsed().Seconds(), "rows/s")
}
