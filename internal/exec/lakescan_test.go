package exec

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/operators"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/types"
)

// readerMorsels hands a lazy orcish reader's stripe pages to a scan whole, as
// the morsel queue does a stripe no larger than a morsel.
type readerMorsels struct {
	r    *orcish.Reader
	done bool
}

func (m *readerMorsels) NextMorsel() (*block.Page, error) {
	p, err := m.r.NextPage()
	m.done = p == nil && err == nil
	return p, err
}
func (m *readerMorsels) Drained() bool { return m.done }
func (m *readerMorsels) Starved() bool { return false }

// h06Lake writes a lake file of the h06 shape's four columns (l_quantity,
// l_extendedprice, l_discount DOUBLE, l_shipdate DATE), every section flat:
// 32 bytes a row decoded.
func h06Lake(tb testing.TB, stripes int) (path string, rows int) {
	tb.Helper()
	r := rand.New(rand.NewSource(6))
	var pages []*block.Page
	for range stripes {
		n := orcish.DefaultStripeRows
		q, p, d, s := make([]float64, n), make([]float64, n), make([]float64, n), make([]int64, n)
		for i := range n {
			q[i], p[i], d[i] = 1+49*r.Float64(), 900+1e5*r.Float64(), 0.1*r.Float64()
			s[i] = 8000 + r.Int63n(1<<16)
		}
		pages = append(pages, block.NewPage(block.NewDoubleBlock(q, nil), block.NewDoubleBlock(p, nil),
			block.NewDoubleBlock(d, nil), block.NewDateBlock(s, nil)))
		rows += n
	}
	path = filepath.Join(tb.TempDir(), "h06.orcish")
	cols := []orcish.ColumnMeta{{Name: "l_quantity", T: types.Double}, {Name: "l_extendedprice", T: types.Double},
		{Name: "l_discount", T: types.Double}, {Name: "l_shipdate", T: types.Date}}
	if err := orcish.WriteFile(path, cols, pages, 0); err != nil {
		tb.Fatal(err)
	}
	return path, rows
}

// h06LakeDriver builds one driver of the h06 shape — a lazy lake scan, the
// filter with the revenue projected, a partial sum — over the file at path,
// its chain lent as a task lends it.
func h06LakeDriver(tb testing.TB, task *Task, path string) *Driver {
	tb.Helper()
	r, err := orcish.OpenReader(path, []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"}, nil, true)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	ops, err := task.compiled[0].mkOps(&driverCtx{task: task})
	if err != nil {
		tb.Fatal(err)
	}
	all := append([]operators.Operator{operators.NewMorselScan(operators.NopContext(), &readerMorsels{r: r})}, ops...)
	lendOutputs(all)
	return NewDriver(all)
}

// h06Task compiles the h06 shape over the lake file's four columns.
func h06Task(tb testing.TB) *Task {
	d, dt := types.Double, types.Date
	scan := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "t"},
		Columns: []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
		Out:     plan.Schema{{Name: "l_quantity", T: d}, {Name: "l_extendedprice", T: d}, {Name: "l_discount", T: d}, {Name: "l_shipdate", T: dt}}}
	date := func(v int64) expr.Expr { return lit(types.Value{T: dt, I: v}) }
	pred := &expr.And{
		L: &expr.And{
			L: &expr.Compare{Op: expr.CmpGe, L: col(3, dt), R: date(20000)},
			R: &expr.Compare{Op: expr.CmpLt, L: col(3, dt), R: date(60000)},
		},
		R: &expr.And{
			L: &expr.Between{E: col(2, d), Lo: lit(types.DoubleValue(0.02)), Hi: lit(types.DoubleValue(0.09))},
			R: &expr.Compare{Op: expr.CmpLt, L: col(0, d), R: lit(types.DoubleValue(40))},
		},
	}
	revenue := project(&plan.Filter{Input: scan, Predicate: pred}, arith(expr.OpMul, col(1, d), col(2, d), d))
	root := &plan.Aggregation{Input: revenue, Aggregates: []plan.Aggregate{{Func: plan.AggSum, Arg: col(0, d), Out: d}},
		Step: plan.AggPartial, Out: plan.Schema{{Name: "_p0", T: d}}}
	return compileTestFragment(tb, root)
}

// runLakeDriver runs d to its end, as an executor thread would.
func runLakeDriver(tb testing.TB, d *Driver) {
	tb.Helper()
	for !d.Finished() {
		if _, err := d.Process(time.Second); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestLazyLakeScanAllocationCeiling: a driver of the h06 shape over a lazy lake
// file decodes the four columns it touches into its scan's scratch, which the
// scan takes back at its next page and the driver gives to the pool when it
// finishes. So a second driver over the file, from its first page, allocates
// only headers: the stripe's lazy columns, each section's page and block, the
// processor's output page — 0.14 bytes a row read, where the columns decoded
// onto the heap cost 32 (every value of four 8-byte columns). The ceiling is
// 2 bytes a row.
func TestLazyLakeScanAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	path, rows := h06Lake(t, 16)
	task := h06Task(t)
	alloctest.HoldCollections(t)
	runLakeDriver(t, h06LakeDriver(t, task, path))

	d := h06LakeDriver(t, task, path)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runLakeDriver(t, d)
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	if perRow > 2 {
		t.Errorf("a second h06 driver over a lazy lake file allocates %.2f bytes per row read over %d rows, want <= 2", perRow, rows)
	} else {
		t.Logf("a second h06 driver over a lazy lake file: %.3f bytes per row read over %d rows", perRow, rows)
	}
}
