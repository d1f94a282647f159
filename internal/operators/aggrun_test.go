package operators

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// runAggs are the aggregates a run folds, over runAggPage's columns: sum,
// avg, count, min and max of a bigint and of a double, count_merge of a
// count column, and count(*).
var runAggs = []AggSpec{
	{Func: plan.AggSum, ArgCol: 0, Out: types.Bigint},
	{Func: plan.AggSum, ArgCol: 1, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: 0, Out: types.Double},
	{Func: plan.AggAvg, ArgCol: 1, Out: types.Double},
	{Func: plan.AggCount, ArgCol: 0, Out: types.Bigint},
	{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
	{Func: plan.AggCountMerge, ArgCol: 2, Out: types.Bigint},
	{Func: plan.AggMin, ArgCol: 0, Out: types.Bigint},
	{Func: plan.AggMax, ArgCol: 0, Out: types.Bigint},
	{Func: plan.AggMin, ArgCol: 1, Out: types.Double},
	{Func: plan.AggMax, ArgCol: 1, Out: types.Double},
	{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
}

// runAggPage is n rows of a bigint (0), a double (1) and a count (2) column,
// every n/nullEvery-th value of the first two NULL (none when nullEvery is 0,
// all when it is 1), the doubles with NaN and ±Inf among them when special.
func runAggPage(r *rand.Rand, n, nullEvery int, special bool) *block.Page {
	longs, doubles, counts := make([]int64, n), make([]float64, n), make([]int64, n)
	var ln, dn []bool
	if nullEvery > 0 {
		ln, dn = make([]bool, n), make([]bool, n)
	}
	for i := range longs {
		longs[i], doubles[i], counts[i] = r.Int63n(2001)-1000, (r.Float64()-0.5)*1e6, r.Int63n(50)
		if special && r.Intn(30) == 0 {
			doubles[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
		if nullEvery > 0 && i%nullEvery == 0 {
			ln[i], dn[i] = true, true
		}
	}
	return block.NewPage(&block.LongBlock{T: types.Bigint, Vals: longs, Nulls: ln}, block.NewDoubleBlock(doubles, dn), block.NewLongBlock(counts, nil))
}

// withKey appends a group-key column holding 7 in every row.
func withKey(p *block.Page, key func(n int) block.Block) *block.Page {
	cols := make([]block.Block, 0, p.ColCount()+1)
	for c := 0; c < p.ColCount(); c++ {
		cols = append(cols, p.Col(c))
	}
	return block.NewPage(append(cols, key(p.RowCount()))...)
}

// renderAggRows renders the aggregate columns of every output row, from
// column first on, doubles by their bits.
func renderAggRows(pages []*block.Page, first int) string {
	var sb strings.Builder
	for _, p := range pages {
		for r := 0; r < p.RowCount(); r++ {
			for c := first; c < p.ColCount(); c++ {
				b := p.Col(c)
				switch {
				case b.IsNull(r):
					sb.WriteString("∅")
				case b.Type() == types.Double:
					fmt.Fprintf(&sb, "%016x", math.Float64bits(b.Double(r)))
				default:
					fmt.Fprint(&sb, b.Long(r))
				}
				sb.WriteByte(' ')
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// TestAggregateRunMatchesGrouped: a no-key aggregation folds each page as
// its one group's run, and a key that is one RLE run or one dictionary entry
// over the page makes a run too; the same pages under a flat key with the
// same value in every row look every row up and fold it through the
// group-id kernels. Both give the same row, bit for bit, for sum, avg,
// count, count_merge, min and max, over NaN and ±Inf (first on a page too),
// all-NULL pages, pages with and without NULLs, and an empty page. With no
// input at all, the no-key aggregation still gives its one row.
func TestAggregateRunMatchesGrouped(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	nanFirst := runAggPage(r, 300, 0, true)
	nanFirst.Col(1).(*block.DoubleBlock).Vals[0] = math.NaN()
	pages := []*block.Page{
		runAggPage(r, 1000, 0, false),
		runAggPage(r, 700, 3, true),
		runAggPage(r, 400, 1, true), // all NULL
		nanFirst,
		runAggPage(r, 0, 0, false),
		runAggPage(r, 1, 0, true),
		runAggPage(r, 4096, 7, true),
	}
	ctx := NopContext()
	global := renderAggRows(drain(t, NewHashAggregation(ctx, nil, nil, runAggs, false, 0, 0), pages...), 0)

	keys := map[string]func(n int) block.Block{
		"flat": func(n int) block.Block {
			k := make([]int64, n)
			for i := range k {
				k[i] = 7
			}
			return block.NewLongBlock(k, nil)
		},
		"rle": func(n int) block.Block { return block.NewRLEBlock(types.BigintValue(7), n) },
		"dictionary": func(n int) block.Block {
			return block.NewDictionaryBlock(block.NewLongBlock([]int64{5, 7}, nil), make([]int32, n))
		},
	}
	for name, key := range keys {
		var keyed []*block.Page
		for _, p := range pages {
			keyed = append(keyed, withKey(p, key))
		}
		op := NewHashAggregation(ctx, []int{3}, []types.Type{types.Bigint}, runAggs, false, 0, 0)
		if got := renderAggRows(drain(t, op, keyed...), 1); got != global {
			t.Errorf("%s key:\ngrouped %s\nrun     %s", name, got, global)
		}
	}

	empty := renderAggRows(drain(t, NewHashAggregation(ctx, nil, nil, runAggs, false, 0, 0)), 0)
	if want := "∅ ∅ ∅ ∅ 0 0 0 ∅ ∅ ∅ ∅ 0 \n"; empty != want {
		t.Errorf("no input: %q, want %q", empty, want)
	}
}

// BenchmarkAggregateRun prices the aggregation's fold per input row: one
// group (no key: every page is a run, folded in locals), and 4 and 2 000
// groups behind a bigint key, looked up row by row and folded through the
// group-id kernels. The aggregates are h01's and q28's: sum, avg, count, min
// and max over a double.
func BenchmarkAggregateRun(b *testing.B) {
	specs := []AggSpec{
		{Func: plan.AggSum, ArgCol: 1, Out: types.Double},
		{Func: plan.AggAvg, ArgCol: 1, Out: types.Double},
		{Func: plan.AggCount, ArgCol: 1, Out: types.Bigint},
		{Func: plan.AggMin, ArgCol: 1, Out: types.Double},
		{Func: plan.AggMax, ArgCol: 1, Out: types.Double},
		{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint},
	}
	const rows = 4096
	for _, groups := range []int{1, 4, 2000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(groups)))
			keys, vals := make([]int64, rows), make([]float64, rows)
			for i := range keys {
				keys[i], vals[i] = r.Int63n(int64(groups)), r.Float64()*1e5
			}
			p := block.NewPage(block.NewLongBlock(keys, nil), block.NewDoubleBlock(vals, nil))
			var keyCols []int
			var keyTs []types.Type
			if groups > 1 {
				keyCols, keyTs = []int{0}, []types.Type{types.Bigint}
			}
			op := NewHashAggregation(NopContext(), keyCols, keyTs, specs, false, 0, 0)
			defer op.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.AddInput(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
