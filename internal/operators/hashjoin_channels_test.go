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

// channelKeyKinds are the key columns the wall joins on. Each returns the key
// block of page pg (rows rows, side offset off) and its type.
var channelKeyKinds = []struct {
	name string
	t    types.Type
	key  func(pg, rows, off int) block.Block
}{
	{"flat+nulls", types.Bigint, func(pg, rows, off int) block.Block {
		vals, nulls := make([]int64, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = int64(i%11), i%9 == 0
		}
		return block.NewLongBlock(vals, nulls)
	}},
	{"dictionary", types.Bigint, func(pg, rows, off int) block.Block {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64((pg*rows + r + off) % 7)
		}
		return block.DictEncode(block.NewLongBlock(vals, nil), 1)
	}},
	{"rle", types.Bigint, func(pg, rows, off int) block.Block {
		return block.NewRLEBlock(types.BigintValue(int64((pg+off)%3)), rows)
	}},
	{"double -0.0/NaN", types.Double, func(pg, rows, off int) block.Block {
		cycle := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, 2, 3}
		vals, nulls := make([]float64, rows), make([]bool, rows)
		for r := range vals {
			i := pg*rows + r + off
			vals[r], nulls[r] = cycle[i%len(cycle)], i%10 == 0
		}
		return block.NewDoubleBlock(vals, nulls)
	}},
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

// drainCounts drives op like drain, but renders every output page before it
// asks for the next one: all a consumer of lent pages is entitled to.
func drainCounts(t *testing.T, op Operator, inputs ...*block.Page) map[string]int {
	t.Helper()
	out := map[string]int{}
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
				out[rowText(p.Row(r))]++
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

// TestJoinOutputChannelsDifferential is the wall for the channel list: every
// join type, over flat, dictionary, RLE, NULL, -0.0 and NaN keys, emitting
// every channel, everything but the keys, one build column, the probe side
// alone, and joining an empty build — lent and owned, from memory and through
// a build spilled after every page (the drain's private operator) — must emit
// exactly the listed columns of the per-row reference's rows. Pages of seven
// rows make every probe page span several Outputs, so a lending join refills
// its vectors — a dictionary column's index vector among them — while the
// probe page is still being emitted. The build's last column is one shared
// dictionary over all its pages: from memory it is gathered as indices (but
// for LEFT, which null-extends), from a spilled build it comes back a
// dictionary a page and is gathered flat.
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
	for _, kind := range channelKeyKinds {
		ts := channelTestTs(kind.t)
		probePages := channelTestPages(kind.key, 3, 40, 2)
		for _, tc := range allJoinTypes {
			for _, c := range cases {
				var buildPages []*block.Page
				if !c.emptyBuild {
					buildPages = channelTestPages(kind.key, 3, 25, 0)
				}
				probeOut, buildOut := c.probe, c.build
				if tc.jt == plan.SemiJoin || tc.jt == plan.AntiJoin {
					buildOut = nil
				}
				want := map[string]int{}
				refJoinRows(tc.jt, buildPages, probePages, []int{0}, []int{0}, nil, ts, ts, func(row []types.Value) {
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
					for _, lend := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/spilled=%v/lend=%v", kind.name, tc.name, c.name, spilled, lend)
						bridge := NewJoinBridge()
						if spilled {
							bridge.EnableSpill(spillTestMem(), t.TempDir(), []int{0}, ts[:1])
						}
						bridge.AddBuilder()
						hb := NewHashBuild(NopContext(), bridge, []int{0}, ts[:1])
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
						op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, nil, ts, ts, 7)
						op.SetOutputChannels(probeOut, buildOut)
						if lend {
							op.LendOutput(nil)
						}
						assertSameCounts(t, name, drainCounts(t, op, probePages...), want)
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

// TestJoinRowPathHonoursChannels: a residual sends INNER, LEFT, SEMI and
// ANTI down the row path with RIGHT and FULL; it emits the listed channels
// too, and the residual still reads columns that are not among them.
func TestJoinRowPathHonoursChannels(t *testing.T) {
	kind := channelKeyKinds[0]
	ts := channelTestTs(kind.t)
	buildPages, probePages := channelTestPages(kind.key, 3, 25, 0), channelTestPages(kind.key, 3, 40, 2)
	// probe bigint payload < build bigint payload: neither column is emitted.
	residual := &expr.Compare{Op: expr.CmpLt, L: &expr.ColumnRef{Index: 2, T: types.Bigint}, R: &expr.ColumnRef{Index: len(ts) + 2, T: types.Bigint}}
	for _, tc := range allJoinTypes {
		probeOut, buildOut := []int{1}, []int{3}
		if tc.jt == plan.SemiJoin || tc.jt == plan.AntiJoin {
			buildOut = nil
		}
		want := map[string]int{}
		refJoinRows(tc.jt, buildPages, probePages, []int{0}, []int{0}, residual, ts, ts, func(row []types.Value) {
			out := []types.Value{row[1]}
			if buildOut != nil {
				out = append(out, row[len(ts)+3])
			}
			want[rowText(out)]++
		})
		bridge := buildBridge(t, []int{0}, buildPages...)
		bridge.AddProbe()
		bridge.NoMoreProbes()
		op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, residual, ts, ts, 7)
		op.SetOutputChannels(probeOut, buildOut)
		assertSameCounts(t, tc.name, drainCounts(t, op, probePages...), want)
	}
}

// TestJoinLentVectorsArePoisoned runs where the borrowed-page poison is
// linked on (scripts/check.sh): a page a lending join handed out reads
// differently once the join has gathered the next one, so a consumer that
// kept it fails the differential walls instead of passing by luck.
func TestJoinLentVectorsArePoisoned(t *testing.T) {
	if !expr.PoisonsBorrowed() {
		t.Skip("the borrowed-page poison is linked on only by scripts/check.sh")
	}
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
