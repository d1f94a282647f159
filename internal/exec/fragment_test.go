package exec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// templateShape is a partial aggregation over a filtered, projected join of
// t with itself, whose literals are lifted into slots 1-4 (slotted) or plain
// constants of vals: a join residual b > $1, a filter a = $2 OR s IN ($3,
// 's3'), and a projection b + $4.
func templateShape(vals []types.Value, slotted bool) plan.Node {
	k := func(i int) expr.Expr {
		if slotted {
			return expr.NewSlotConst(vals[i], i+1)
		}
		return expr.NewConst(vals[i])
	}
	big, dbl, str := types.Bigint, types.Double, types.Varchar
	j := joinOf(plan.InnerJoin, scanT(), scanT(), 0, 0, &expr.Compare{Op: expr.CmpGt, L: col(4, dbl), R: k(0)})
	f := &plan.Filter{Input: j, Predicate: &expr.Or{
		L: &expr.Compare{Op: expr.CmpEq, L: col(0, big), R: k(1)},
		R: &expr.In{E: col(2, str), List: []expr.Expr{k(2), lit(types.VarcharValue("s3"))}},
	}}
	return sumBy(project(f, col(2, str), arith(expr.OpAdd, col(1, dbl), k(3), dbl)), 0, 1)
}

// templateValues is literal set i of templateShape.
func templateValues(i int) []types.Value {
	return []types.Value{types.DoubleValue(float64(i%7) * 3), types.BigintValue(int64(i % 23)),
		types.VarcharValue(fmt.Sprintf("s%d", i%3)), types.DoubleValue(float64(i))}
}

// TestCompiledFragmentSharedByTasks: one compiled fragment — its operator
// factories, its join's key layout, its processors' programs — serves tasks
// on several goroutines at once, each with its own literals, and each task
// returns the rows a fragment compiled with its literals as constants
// returns. Under -race a factory or a program that kept a task's state would
// race.
func TestCompiledFragmentSharedByTasks(t *testing.T) {
	const sets = 8
	want := make([][]string, sets)
	for i := range want {
		want[i], _ = runJoinFragment(t, templateShape(templateValues(i), false))
	}
	if slices.Equal(want[0], want[1]) {
		t.Fatal("two literal sets give the same rows: the test tells nothing")
	}
	root := templateShape(templateValues(0), true)
	cf, err := Compile(&plan.Fragment{Root: root, OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle},
		OutputConsumer: -1}, TaskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.params) != 4 {
		t.Fatalf("the fragment compiled %d parameters, want 4", len(cf.params))
	}
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, _ := runCompiledJoin(t, root, cf, templateValues(i))
				if !slices.Equal(got, want[i]) {
					t.Errorf("set %d round %d:\ngot  %v\nwant %v", i, round, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFragmentCacheKeysAndErrors: a worker compiles a fragment once per key —
// its digest and the settings compilation reads, which the switches are not —
// and keeps a fragment that does not compile as its error.
func TestFragmentCacheKeysAndErrors(t *testing.T) {
	var c fragmentCache
	loads := 0
	frag := func(d byte, root plan.Node) TaskFragment {
		return TaskFragment{Digest: Digest{d}, Load: func() (*plan.Fragment, error) {
			loads++
			return &plan.Fragment{Root: root, OutputPartitioning: plan.Partitioning{Kind: plan.PartitionSingle}, OutputConsumer: -1}, nil
		}}
	}
	good, bad := frag(1, scanT()), frag(2, &plan.Union{})
	cfg := TaskConfig{}.withDefaults()
	for range 3 {
		if _, err := c.get(good, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := c.get(bad, cfg); err == nil {
			t.Fatal("a fragment the compiler does not take compiled")
		}
	}
	interpreted := cfg
	interpreted.Interpreted = true
	if _, err := c.get(good, interpreted); err != nil {
		t.Fatal(err)
	}
	switched := cfg
	switched.Switches = DisableDynamicFilters | DisableSpill
	if _, err := c.get(good, switched); err != nil {
		t.Fatal(err)
	}
	if st := c.stats(); loads != 3 || st.Hits != 5 || st.Misses != 3 {
		t.Errorf("%d loads, %+v; want 3 loads, 5 hits and 3 misses", loads, st)
	}
	c.drop()
	if _, err := c.get(good, cfg); err != nil || loads != 4 {
		t.Errorf("after a drop: %d loads (%v), want a fourth", loads, err)
	}
}
