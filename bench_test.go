package presto_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablation studies for the design decisions of
// §IV/§V. Each benchmark prints its report once; run with:
//
//	go test -bench=. -benchmem
//
// Scale via environment-free flags is avoided deliberately: the harness is
// sized for a laptop; cmd/prestobench exposes knobs for larger runs.

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/hive"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

var benchOpt = experiments.Options{Workers: 4, Scale: 0.25}

// BenchmarkTable1 regenerates Table I (deployments per use case).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (TPC-DS-style subset under three
// storage configurations).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (runtime distribution per use case).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (utilization/concurrency trace).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(experiments.Options{Workers: benchOpt.Workers, Scale: benchOpt.Scale, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkLazyLoading regenerates the §V-D lazy materialization numbers.
func BenchmarkLazyLoading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLazy(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkExprCompiledVsInterpreted is the §V-B codegen ablation.
func BenchmarkExprCompiledVsInterpreted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCodegen(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkCompressedExecution is the §V-E dictionary/RLE ablation.
func BenchmarkCompressedExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCompressed(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkSchedulerMLFQ is the §IV-F1 MLFQ-vs-FIFO ablation.
func BenchmarkSchedulerMLFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMLFQ(experiments.Options{Workers: benchOpt.Workers, Scale: benchOpt.Scale, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkColocatedJoin is the §IV-C3 shuffle-elision ablation.
func BenchmarkColocatedJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunColocated(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkPhasedScheduling is the §IV-D1 stage-policy ablation.
func BenchmarkPhasedScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPhased(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkAdaptiveWriters is the §IV-E3 writer-scaling ablation.
func BenchmarkAdaptiveWriters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunWriters(experiments.Options{Workers: benchOpt.Workers, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkSpilling is the §IV-F2 spill ablation.
func BenchmarkSpilling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSpill(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkBackpressure is the §IV-E2 slow-client ablation.
func BenchmarkBackpressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBackpressure(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Report())
		}
	}
}

// BenchmarkPointLookup measures the Developer/Advertiser-style selective
// query end to end (engine overhead floor).
func BenchmarkPointLookup(b *testing.B) {
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true})
	defer c.Close()
	if _, err := c.Query("CREATE TABLE kvt (k BIGINT, v VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO kvt SELECT * FROM (VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'))"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT v FROM kvt WHERE k = 3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanAggregate measures a full-table aggregation end to end.
func BenchmarkScanAggregate(b *testing.B) {
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true})
	defer c.Close()
	c.Register(loadBenchTPCH())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT l_returnflag, count(*), sum(l_extendedprice) FROM tpch.lineitem GROUP BY l_returnflag"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoin measures a fact-dimension broadcast join end to end.
func BenchmarkJoin(b *testing.B) {
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true})
	defer c.Close()
	c.Register(loadBenchTPCH())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT p_brand, count(*) FROM tpch.lineitem JOIN tpch.part ON l_partkey = p_partkey GROUP BY p_brand"); err != nil {
			b.Fatal(err)
		}
	}
}

// loadBenchTPCH builds a small shared TPC-H catalog for the micro benches.
func loadBenchTPCH() presto.Connector {
	return workload.LoadTPCHMemory("tpch", 0.25)
}

// newScanBenchCluster builds a cluster over an eager-read hive lake with a
// simulated remote-storage delay, so the scan path is I/O-dominated and the
// page cache's benefit is visible. Shared by BenchmarkScanCold/Warm.
func newScanBenchCluster(b *testing.B) *presto.Cluster {
	b.Helper()
	// Serving caches off: these benchmarks repeat one statement and measure
	// scan execution; a result-cache serve would measure nothing.
	c := presto.NewCluster(presto.ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true})
	conn, err := workload.LoadTPCHHiveConfig("tpch", 0.1, hive.Config{
		Dir:              b.TempDir(),
		LazyReads:        false, // lazy blocks close over open readers and are uncacheable
		StripeRows:       4096,
		ReadDelayPerByte: 50,
	})
	if err != nil {
		c.Close()
		b.Fatal(err)
	}
	c.Register(conn)
	return c
}

const scanBenchQuery = "SELECT count(*), sum(l_quantity), sum(l_extendedprice) FROM tpch.lineitem"

// BenchmarkScanCold measures the scan with the page cache dropped before
// every iteration: each run pays the full decode + simulated-storage cost.
func BenchmarkScanCold(b *testing.B) {
	c := newScanBenchCluster(b)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.ClearPageCaches()
		b.StartTimer()
		if _, err := c.Query(scanBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWarm primes the page cache once, then measures cache-served
// scans. Compare against BenchmarkScanCold for the warm-read speedup.
func BenchmarkScanWarm(b *testing.B) {
	c := newScanBenchCluster(b)
	defer c.Close()
	if _, err := c.Query(scanBenchQuery); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(scanBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.PageCacheStats(); st.Hits == 0 {
		b.Fatal("warm benchmark served no pages from the cache")
	}
}

// ---------------------------------------------------------------------------
// Kernel micro-benchmarks (§V-B/§V-E). Hash aggregation and hash join have
// one implementation, so their benchmarks are absolute (run with -benchmem:
// bytes per op is the table's cost); the filter benchmark still runs the
// columnar selection kernel against the interpreted filter as vec/legacy
// sub-benchmarks.
// ---------------------------------------------------------------------------

// benchKeyPages builds pages of (key BIGINT, val BIGINT) rows with nGroups
// distinct keys.
func benchKeyPages(nRows, nGroups, pageRows int) []*block.Page {
	var pages []*block.Page
	for start := 0; start < nRows; start += pageRows {
		n := pageRows
		if nRows-start < n {
			n = nRows - start
		}
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			r := start + i
			keys[i] = int64(r*2654435761) % int64(nGroups)
			vals[i] = int64(r)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(keys, nil), block.NewLongBlock(vals, nil)))
	}
	return pages
}

func drainOperator(b *testing.B, op operators.Operator) int {
	rows := 0
	for {
		p, err := op.Output()
		if err != nil {
			b.Fatal(err)
		}
		if p == nil {
			if op.IsFinished() {
				return rows
			}
			continue
		}
		rows += p.RowCount()
	}
}

// BenchmarkHashAggBigintKey measures single-BIGINT-key grouped aggregation:
// the batch-hash + open-addressing table fast path over fixed cells.
func BenchmarkHashAggBigintKey(b *testing.B) {
	const nRows, nGroups = 1 << 17, 1 << 13
	pages := benchKeyPages(nRows, nGroups, 8192)
	specs := []operators.AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	b.SetBytes(int64(nRows * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := operators.NewHashAggregation(operators.NopContext(), []int{0},
			[]types.Type{types.Bigint}, specs, false, 0)
		for _, p := range pages {
			if err := op.AddInput(p); err != nil {
				b.Fatal(err)
			}
		}
		op.Finish()
		if got := drainOperator(b, op); got != nGroups {
			b.Fatalf("groups: got %d, want %d", got, nGroups)
		}
	}
}

// BenchmarkHashAggVarcharKey measures the byte-arena fallback layout on a
// VARCHAR group key, where keys need canonical byte encodings.
func BenchmarkHashAggVarcharKey(b *testing.B) {
	const nRows, nGroups = 1 << 17, 1 << 13
	var pages []*block.Page
	for start := 0; start < nRows; start += 8192 {
		keys := make([]string, 8192)
		vals := make([]int64, 8192)
		for i := range keys {
			r := start + i
			keys[i] = fmt.Sprintf("group-%06d", (r*2654435761)%nGroups)
			vals[i] = int64(r)
		}
		pages = append(pages, block.NewPage(block.NewVarcharBlock(keys, nil), block.NewLongBlock(vals, nil)))
	}
	specs := []operators.AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	b.SetBytes(int64(nRows * 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := operators.NewHashAggregation(operators.NopContext(), []int{0},
			[]types.Type{types.Varchar}, specs, false, 0)
		for _, p := range pages {
			if err := op.AddInput(p); err != nil {
				b.Fatal(err)
			}
		}
		op.Finish()
		if got := drainOperator(b, op); got != nGroups {
			b.Fatalf("groups: got %d, want %d", got, nGroups)
		}
	}
}

// BenchmarkHashJoinBuildProbe measures a BIGINT-key hash join build + probe:
// batch hashing, open-addressing lookups and the flat build row list.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	const nBuild, nProbe = 1 << 14, 1 << 17
	buildPages := benchKeyPages(nBuild, nBuild, 8192)
	probePages := benchKeyPages(nProbe, nBuild, 8192)
	b.SetBytes(int64((nBuild + nProbe) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := operators.NopContext()
		bridge := operators.NewJoinBridge()
		bridge.AddBuilder()
		hb := operators.NewHashBuild(ctx, bridge, []int{0}, []types.Type{types.Bigint})
		for _, p := range buildPages {
			if err := hb.AddInput(p); err != nil {
				b.Fatal(err)
			}
		}
		bridge.NoMoreBuilders()
		hb.Finish()
		bridge.AddProbe()
		join := operators.NewLookupJoin(ctx, bridge, plan.InnerJoin, []int{0}, nil,
			[]types.Type{types.Bigint, presto.Bigint},
			[]types.Type{types.Bigint, presto.Bigint}, 0)
		rows := 0
		for _, p := range probePages {
			if err := join.AddInput(p); err != nil {
				b.Fatal(err)
			}
			for {
				out, err := join.Output()
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
				rows += out.RowCount()
			}
		}
		join.Finish()
		rows += drainOperator(b, join)
		if rows != nProbe {
			b.Fatalf("join rows: got %d, want %d", rows, nProbe)
		}
	}
}

// BenchmarkFilterSelectivity measures a flat-column comparison filter at 1%,
// 50%, and 99% selectivity: the columnar selection kernel vs the
// interpreted filter.
func BenchmarkFilterSelectivity(b *testing.B) {
	const nRows = 8192
	vals := make([]int64, nRows)
	ids := make([]int64, nRows)
	for i := range vals {
		vals[i] = int64(i * 2654435761 % 100)
		ids[i] = int64(i)
	}
	page := block.NewPage(block.NewLongBlock(vals, nil), block.NewLongBlock(ids, nil))
	proj := []expr.Expr{&expr.ColumnRef{Index: 1, T: types.Bigint}}
	for _, sel := range []struct {
		name  string
		bound int64
	}{{"sel1", 1}, {"sel50", 50}, {"sel99", 99}} {
		pred := &expr.Compare{Op: expr.CmpLt,
			L: &expr.ColumnRef{Index: 0, T: types.Bigint},
			R: expr.NewConst(types.BigintValue(sel.bound))}
		for _, mode := range []string{"vec", "legacy"} {
			b.Run(sel.name+"/"+mode, func(b *testing.B) {
				pp := expr.NewPageProcessor(pred, proj)
				if mode == "legacy" {
					pp.DisableVectorizedFilter()
				}
				b.SetBytes(nRows * 8)
				for i := 0; i < b.N; i++ {
					if _, err := pp.Process(page); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Encoded-block kernels and morsel scheduling (§V-C, §IV-F): dictionary and
// RLE inputs on the decode-free fast paths, and morsel-driven vs static split
// scheduling on a skewed table. scripts/bench.sh records them in BENCH_6.json.
// ---------------------------------------------------------------------------

// benchDictPages builds pages whose varchar key column is dictionary-encoded
// over nGroups shared entries, with a flat bigint value column.
func benchDictPages(nRows, nGroups, pageRows int) []*block.Page {
	dict := make([]string, nGroups)
	for i := range dict {
		dict[i] = fmt.Sprintf("group-%06d", i)
	}
	dictBlk := block.NewVarcharBlock(dict, nil)
	var pages []*block.Page
	for start := 0; start < nRows; start += pageRows {
		n := pageRows
		if nRows-start < n {
			n = nRows - start
		}
		idx := make([]int32, n)
		vals := make([]int64, n)
		for i := range idx {
			r := start + i
			idx[i] = int32((r * 2654435761) % nGroups)
			vals[i] = int64(r)
		}
		pages = append(pages, block.NewPage(block.NewDictionaryBlock(dictBlk, idx), block.NewLongBlock(vals, nil)))
	}
	return pages
}

// BenchmarkHashAggDictVarcharKey measures grouped aggregation on
// dictionary-encoded VARCHAR keys: the table is asked once per combination of
// dictionary entries a page references, one key (1024 entries) and two (32 x
// 32 entries, the two halves of the one key's index, so both runs make the
// same 1024 groups).
func BenchmarkHashAggDictVarcharKey(b *testing.B) {
	const nRows, nGroups = 1 << 17, 1 << 10
	specs := []operators.AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	run := func(b *testing.B, pages []*block.Page, keys []int) {
		keyTs := make([]types.Type, len(keys))
		for i := range keyTs {
			keyTs[i] = types.Varchar
		}
		b.SetBytes(int64(nRows * (8 + 4*len(keys))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := operators.NewHashAggregation(operators.NopContext(), keys, keyTs, specs, false, 0)
			for _, p := range pages {
				if err := op.AddInput(p); err != nil {
					b.Fatal(err)
				}
			}
			op.Finish()
			if got := drainOperator(b, op); got != nGroups {
				b.Fatalf("groups: got %d, want %d", got, nGroups)
			}
		}
	}
	b.Run("keys=1", func(b *testing.B) { run(b, benchDictPages(nRows, nGroups, 8192), []int{0}) })
	b.Run("keys=2", func(b *testing.B) {
		// Split each 10-bit group number into two 5-bit dictionary indices.
		halves := make([]string, 32)
		for i := range halves {
			halves[i] = fmt.Sprintf("half-%02d", i)
		}
		hi, lo := block.NewVarcharBlock(halves, nil), block.NewVarcharBlock(halves, nil)
		var pages []*block.Page
		for _, p := range benchDictPages(nRows, nGroups, 8192) {
			idx := p.Col(0).(*block.DictionaryBlock).Indices
			his, los := make([]int32, len(idx)), make([]int32, len(idx))
			for r, g := range idx {
				his[r], los[r] = g>>5, g&31
			}
			pages = append(pages, block.NewPage(block.NewDictionaryBlock(hi, his), p.Col(1), block.NewDictionaryBlock(lo, los)))
		}
		run(b, pages, []int{0, 2})
	})
}

// BenchmarkHashAggRLEKey measures grouped aggregation where the key column
// arrives as RLE runs: the vectorized path applies each run's rows to one
// group slot in a single step.
func BenchmarkHashAggRLEKey(b *testing.B) {
	const pageRows, nPages, nGroups = 8192, 16, 16
	var pages []*block.Page
	for p := 0; p < nPages; p++ {
		vals := make([]int64, pageRows)
		for i := range vals {
			vals[i] = int64(p*pageRows + i)
		}
		pages = append(pages, block.NewPage(
			block.NewRLEBlock(types.VarcharValue(fmt.Sprintf("run-%02d", p%nGroups)), pageRows),
			block.NewLongBlock(vals, nil)))
	}
	specs := []operators.AggSpec{{Func: plan.AggSum, ArgCol: 1, Out: types.Bigint}}
	b.SetBytes(int64(nPages * pageRows * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := operators.NewHashAggregation(operators.NopContext(), []int{0},
			[]types.Type{types.Varchar}, specs, false, 0)
		for _, p := range pages {
			if err := op.AddInput(p); err != nil {
				b.Fatal(err)
			}
		}
		op.Finish()
		if got := drainOperator(b, op); got != nGroups {
			b.Fatalf("groups: got %d, want %d", got, nGroups)
		}
	}
}

// BenchmarkHashJoinDictKey measures a VARCHAR-key hash join whose probe side
// is dictionary-encoded and whose build side is flat — the layout-mismatch
// shape. Probe dictionary ids are hashed once per entry.
func BenchmarkHashJoinDictKey(b *testing.B) {
	const nBuild, nProbe = 1 << 10, 1 << 17
	buildKeys := make([]string, nBuild)
	buildVals := make([]int64, nBuild)
	for i := range buildKeys {
		buildKeys[i] = fmt.Sprintf("group-%06d", i)
		buildVals[i] = int64(i)
	}
	var buildPages []*block.Page
	for start := 0; start < nBuild; start += 4096 {
		end := start + 4096
		if end > nBuild {
			end = nBuild
		}
		buildPages = append(buildPages, block.NewPage(
			block.NewVarcharBlock(buildKeys[start:end], nil),
			block.NewLongBlock(buildVals[start:end], nil)))
	}
	probePages := benchDictPages(nProbe, nBuild, 8192)
	b.SetBytes(int64((nBuild + nProbe) * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := operators.NopContext()
		bridge := operators.NewJoinBridge()
		bridge.AddBuilder()
		hb := operators.NewHashBuild(ctx, bridge, []int{0}, []types.Type{types.Varchar})
		for _, p := range buildPages {
			if err := hb.AddInput(p); err != nil {
				b.Fatal(err)
			}
		}
		bridge.NoMoreBuilders()
		hb.Finish()
		bridge.AddProbe()
		join := operators.NewLookupJoin(ctx, bridge, plan.InnerJoin, []int{0}, nil,
			[]types.Type{types.Varchar, types.Bigint},
			[]types.Type{types.Varchar, types.Bigint}, 0)
		rows := 0
		for _, p := range probePages {
			if err := join.AddInput(p); err != nil {
				b.Fatal(err)
			}
			for {
				out, err := join.Output()
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
				rows += out.RowCount()
			}
		}
		join.Finish()
		rows += drainOperator(b, join)
		if rows != nProbe {
			b.Fatalf("join rows: got %d, want %d", rows, nProbe)
		}
	}
}

// newSkewBenchCluster loads a table whose split sizes are pathologically
// skewed — one split holds ~97% of the rows, the other three are tiny — the
// shape where static split-per-driver assignment leaves most drivers idle and
// the morsel queue keeps them fed (§IV-F).
func newSkewBenchCluster(b *testing.B) *presto.Cluster {
	b.Helper()
	const giantRows, tinyRows = 1 << 19, 2048
	conn := memconn.New("skew")
	cols := []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	// memconn chunks pages contiguously into four splits, so four pages give
	// one page per split: the first split holds one 512k-row page (sliced
	// into ~64k-row morsels at scan time), the other three hold 2k rows each.
	pages := benchKeyPages(giantRows, 64, giantRows)
	for i := 0; i < 3; i++ {
		pages = append(pages, benchKeyPages(tinyRows, 64, tinyRows)...)
	}
	conn.LoadTable("facts", cols, pages)
	c := presto.NewCluster(presto.ClusterConfig{Workers: 1, ThreadsPerWorker: 8, TargetSplitConcurrency: 8,
		DisablePlanCache: true, DisableResultCache: true})
	c.Register(conn)
	return c
}

// BenchmarkMorselSkewScan runs a grouped aggregation over the skewed table
// end to end, morsel-driven vs static split assignment. The morsel run should
// approach the all-drivers-busy runtime; the static run is bounded by the one
// driver that owns the giant split.
func BenchmarkMorselSkewScan(b *testing.B) {
	c := newSkewBenchCluster(b)
	defer c.Close()
	const q = "SELECT k, count(*), sum(v) FROM skew.facts GROUP BY k"
	for _, mode := range []struct {
		name string
		s    presto.Session
	}{{"morsel", presto.Session{}}, {"static", presto.Session{Switches: exec.DisableMorsels}}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := c.ExecuteSession(q, mode.s)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := res.All()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 64 {
					b.Fatalf("groups: got %d, want 64", len(rows))
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Vectorized projection engine (§V-B, §V-E): typed columnar kernels with
// selection fusion and CSE.
// ---------------------------------------------------------------------------

func runProjBench(b *testing.B, page *block.Page, filter expr.Expr, proj []expr.Expr) {
	pp := expr.NewPageProcessor(filter, proj)
	b.SetBytes(int64(page.RowCount()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.Process(page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjArithBigint: nested bigint arithmetic over a flat null-free
// column — the pure-kernel case the loop-per-operator design targets.
func BenchmarkProjArithBigint(b *testing.B) {
	const nRows = 8192
	vals := make([]int64, nRows)
	for i := range vals {
		vals[i] = int64(i*2654435761%1000 + 1)
	}
	page := block.NewPage(block.NewLongBlock(vals, nil))
	c0 := &expr.ColumnRef{Index: 0, T: types.Bigint}
	proj := []expr.Expr{&expr.Arith{Op: expr.OpAdd,
		L: &expr.Arith{Op: expr.OpMul, L: c0, R: expr.NewConst(types.BigintValue(3)), T: types.Bigint},
		R: &expr.Arith{Op: expr.OpSub, L: c0, R: expr.NewConst(types.BigintValue(7)), T: types.Bigint},
		T: types.Bigint}}
	runProjBench(b, page, nil, proj)
}

// BenchmarkProjArithDouble: the q1-style double product over flat columns.
func BenchmarkProjArithDouble(b *testing.B) {
	const nRows = 8192
	price := make([]float64, nRows)
	disc := make([]float64, nRows)
	for i := range price {
		price[i] = float64(i%900) + 1.5
		disc[i] = float64(i%10) / 100
	}
	page := block.NewPage(block.NewDoubleBlock(price, nil), block.NewDoubleBlock(disc, nil))
	p0 := &expr.ColumnRef{Index: 0, T: types.Double}
	d1 := &expr.ColumnRef{Index: 1, T: types.Double}
	proj := []expr.Expr{&expr.Arith{Op: expr.OpMul, L: p0,
		R: &expr.Arith{Op: expr.OpSub, L: expr.NewConst(types.DoubleValue(1)), R: d1, T: types.Double},
		T: types.Double}}
	runProjBench(b, page, nil, proj)
}

// BenchmarkProjVarcharConcat: string building dominated by allocation; the
// honest case where the columnar win is modest — over flat inputs. With both
// inputs under dictionaries (100 x 37 entries on 8192 rows) the strings are
// built once per combination, on the first page, and a page costs its
// composed index vector.
func BenchmarkProjVarcharConcat(b *testing.B) {
	const nRows = 8192
	ls := make([]string, nRows)
	rs := make([]string, nRows)
	for i := range ls {
		ls[i] = fmt.Sprintf("left-%04d", i%100)
		rs[i] = fmt.Sprintf("right-%04d", i%37)
	}
	flat := block.NewPage(block.NewVarcharBlock(ls, nil), block.NewVarcharBlock(rs, nil))
	proj := []expr.Expr{&expr.Arith{Op: expr.OpConcat,
		L: &expr.ColumnRef{Index: 0, T: types.Varchar},
		R: &expr.ColumnRef{Index: 1, T: types.Varchar},
		T: types.Varchar}}
	b.Run("flat", func(b *testing.B) { runProjBench(b, flat, nil, proj) })
	b.Run("dictionaries", func(b *testing.B) {
		runProjBench(b, block.NewPage(block.DictEncode(flat.Col(0), 0.5), block.DictEncode(flat.Col(1), 0.5)), nil, proj)
	})
}

// q1BenchPage builds a lineitem-shaped page: quantity, extendedprice,
// discount, tax, returnflag (dictionary), shipdate stand-in.
func q1BenchPage(nRows int) *block.Page {
	qty := make([]float64, nRows)
	price := make([]float64, nRows)
	disc := make([]float64, nRows)
	tax := make([]float64, nRows)
	flagIdx := make([]int32, nRows)
	ship := make([]int64, nRows)
	for i := 0; i < nRows; i++ {
		qty[i] = float64(i%50) + 1
		price[i] = float64(i%9000) + 900.5
		disc[i] = float64(i%11) / 100
		tax[i] = float64(i%9) / 100
		flagIdx[i] = int32(i % 3)
		ship[i] = int64(i % 2526)
	}
	flags := block.NewVarcharBlock([]string{"A", "N", "R"}, nil)
	return block.NewPage(
		block.NewDoubleBlock(qty, nil),
		block.NewDoubleBlock(price, nil),
		block.NewDoubleBlock(disc, nil),
		block.NewDoubleBlock(tax, nil),
		block.NewDictionaryBlock(flags, flagIdx),
		block.NewLongBlock(ship, nil),
	)
}

// BenchmarkProjTPCHQ1Proc: the q1 page-processor stage — shipdate filter plus
// the projection list whose shared extendedprice*(1-discount) product is the
// canonical CSE target.
func BenchmarkProjTPCHQ1Proc(b *testing.B) {
	page := q1BenchPage(8192)
	dcol := func(i int) *expr.ColumnRef { return &expr.ColumnRef{Index: i, T: types.Double} }
	base := &expr.Arith{Op: expr.OpMul, L: dcol(1),
		R: &expr.Arith{Op: expr.OpSub, L: expr.NewConst(types.DoubleValue(1)), R: dcol(2), T: types.Double},
		T: types.Double}
	filter := &expr.Compare{Op: expr.CmpLe, L: &expr.ColumnRef{Index: 5, T: types.Bigint},
		R: expr.NewConst(types.BigintValue(2400))}
	proj := []expr.Expr{
		&expr.ColumnRef{Index: 4, T: types.Varchar},
		dcol(0),
		base,
		&expr.Arith{Op: expr.OpMul, L: base,
			R: &expr.Arith{Op: expr.OpAdd, L: expr.NewConst(types.DoubleValue(1)), R: dcol(3), T: types.Double},
			T: types.Double},
	}
	runProjBench(b, page, filter, proj)
}

// BenchmarkProjTPCHQ6Proc: the q6 page-processor stage — conjunctive filter
// with the revenue product projected over the survivors (selection fusion).
func BenchmarkProjTPCHQ6Proc(b *testing.B) {
	page := q1BenchPage(8192)
	dcol := func(i int) *expr.ColumnRef { return &expr.ColumnRef{Index: i, T: types.Double} }
	filter := &expr.And{
		L: &expr.Between{E: dcol(2), Lo: expr.NewConst(types.DoubleValue(0.05)), Hi: expr.NewConst(types.DoubleValue(0.07))},
		R: &expr.Compare{Op: expr.CmpLt, L: dcol(0), R: expr.NewConst(types.DoubleValue(24))},
	}
	proj := []expr.Expr{&expr.Arith{Op: expr.OpMul, L: dcol(1), R: dcol(2), T: types.Double}}
	runProjBench(b, page, filter, proj)
}
