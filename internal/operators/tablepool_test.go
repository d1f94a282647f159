package operators

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/types"
)

// Hash tables lease their arrays from the table pool and give them back when
// their operator drops them (DESIGN.md "Scratch", the table lifetime).

// accountedBuild builds rows rows of keys distinct keys into a bridge whose
// reservation is taken against a fresh query, and returns the bridge, the
// query and what its pages take.
func accountedBuild(t *testing.T, rows, keys int) (*JoinBridge, *memory.QueryContext, int64) {
	t.Helper()
	pool := memory.NewNodePool(1<<30, 0)
	q := memory.NewQueryContext("tables", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	ctx := &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}
	bridge := NewJoinBridge()
	bridge.AddBuilder()
	hb := NewHashBuild(ctx, bridge, []int{0}, []types.Type{types.Bigint})
	var pageBytes int64
	for _, p := range buildKeyPages(rows, keys) {
		pageBytes += p.SizeBytes()
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	return bridge, q, pageBytes
}

// probeRows drives a probe operator over pages to its end, as a driver does,
// and returns the rows it emitted; it may run on any goroutine.
func probeRows(op *LookupJoinOperator, pages []*block.Page) (int, error) {
	rows := 0
	pull := func() error {
		for {
			p, err := op.Output()
			if err != nil || p == nil {
				return err
			}
			rows += p.RowCount()
		}
	}
	for _, p := range pages {
		for !op.NeedsInput() {
			if err := pull(); err != nil {
				return rows, err
			}
		}
		if err := op.AddInput(p); err != nil {
			return rows, err
		}
	}
	op.Finish()
	for !op.IsFinished() {
		if op.IsBlocked() {
			return rows, errors.New("an inner join's probe blocked after its input")
		}
		if err := pull(); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// TestJoinReservationFollowsItsIndex: a built join's index is reserved while
// a probe may read it, and once the last probe has ended it goes back to the
// pool and its bytes leave the query's reservation: what stays reserved is
// the build pages and the positions RIGHT/FULL's emission reads. Before, only
// a revocation lowered a built bridge's bytes, so its index stayed reserved
// until the task ended.
func TestJoinReservationFollowsItsIndex(t *testing.T) {
	const rows, keys = 20_000, 5_000 // four rows a key: links as well as slots
	bridge, q, pageBytes := accountedBuild(t, rows, keys)
	index := walkBridge(bridge)
	if bridge.next == nil || index == 0 {
		t.Fatal("a build with repeated keys has no links")
	}
	ts := []types.Type{types.Bigint, types.Bigint}
	bridge.AddProbe()
	bridge.AddProbe()
	bridge.NoMoreProbes()
	probe := twoColPage([]int64{1, 2, 3}, []int64{0, 0, 0})
	for i := 0; i < 2; i++ {
		if got, want := q.UserBytes(), pageBytes+index; got != want {
			t.Fatalf("with %d of 2 probes ended %d bytes are reserved, want the pages and the index, %d", i, got, want)
		}
		op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
		if n, err := probeRows(op, []*block.Page{probe}); err != nil || n != 3*rows/keys {
			t.Fatalf("probe %d: %d rows (%v), want %d", i, n, err, 3*rows/keys)
		}
	}
	if bridge.ktab != nil || bridge.next != nil {
		t.Error("the index outlived the last probe")
	}
	if got, want := q.UserBytes(), pageBytes+walkBridge(bridge); got != want || want >= pageBytes+index {
		t.Errorf("after the last probe %d bytes are reserved, want the build pages and positions' %d", got, want)
	}
}

// TestSecondJoinBuildReusesItsIndex: a join index goes back to the pool when
// its last probe ends, and the next build of its size leases it: a second
// 200 000-row unique-key build allocates under a byte a row, where every
// build allocated 19.5 bytes a row for its index (TestJoinBuildBytesPerRow).
func TestSecondJoinBuildReusesItsIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arrays at random")
	}
	const rows = 200_000
	pages := buildKeyPages(rows, rows)
	first := buildBridge(t, []int{0}, pages...)
	alloctest.HoldCollections(t) // from the give-back to the lease
	first.AddProbe()
	first.NoMoreProbes()
	ts := []types.Type{types.Bigint, types.Bigint}
	op := NewLookupJoin(NopContext(), first, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
	if _, err := probeRows(op, []*block.Page{twoColPage([]int64{1}, []int64{0})}); err != nil {
		t.Fatal(err)
	}
	if first.ktab != nil {
		t.Error("the first index outlived its probe")
	}
	var second *JoinBridge
	got := float64(allocated(func() { second = buildBridge(t, []int{0}, pages...) })) / rows
	if second.ktab.Len() != rows {
		t.Fatalf("the second build indexed %d rows, want %d", second.ktab.Len(), rows)
	}
	t.Logf("a second build allocated %.2f bytes a row", got)
	if got >= 1 {
		t.Errorf("a second build of %d rows allocated %.2f bytes a row, want under 1: it did not lease the first one's index", rows, got)
	}
}

// TestSecondGroupTableReusesItsArrays: an aggregation gives its table and
// state back to the pool once its groups are emitted, and the next one
// presized for as many groups leases them: a second 100 000-group
// aggregation allocates under a byte a group for its table, its state and the
// filling (its first driver's scratch released, as a finishing driver does).
func TestSecondGroupTableReusesItsArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arrays at random")
	}
	const groups = 100_000
	var pages []*block.Page
	fixedKeyPages(t, groups, func(p *block.Page) error { pages = append(pages, p); return nil })
	newAgg := func() *HashAggregationOperator {
		return NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, false, 0, groups)
	}
	fill := func(op *HashAggregationOperator) {
		for _, p := range pages {
			if err := op.AddInput(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := newAgg()
	fill(first)
	alloctest.HoldCollections(t)
	first.Finish()
	for !first.IsFinished() {
		if _, err := first.Output(); err != nil {
			t.Fatalf("first output: %v", err)
		}
	}
	if first.table != nil {
		t.Fatal("the first aggregation kept its table once its groups were emitted")
	}
	first.Close()
	first.Scratch().Release()
	var second *HashAggregationOperator
	got := float64(allocated(func() {
		second = newAgg()
		fill(second)
	})) / groups
	if second.table.Len() != groups {
		t.Fatalf("the second aggregation holds %d groups, want %d", second.table.Len(), groups)
	}
	t.Logf("a second aggregation allocated %.2f bytes a group", got)
	if got >= 1 {
		t.Errorf("a second aggregation of %d groups allocated %.2f bytes a group, want under 1: it did not lease the first one's arrays", groups, got)
	}
	second.Close()
}

// TestJoinIndexGoesBackAfterTheLastProbe: four probe operators of one bridge
// run on goroutines and end in random order. The index goes back once, after
// the last of them — every probe reads it whole and the reservation drops by
// it exactly once — and never once the bridge is cancelled, whose probe
// drivers may still be running: there two probes end before the
// cancellation and two after. Run under -race.
func TestJoinIndexGoesBackAfterTheLastProbe(t *testing.T) {
	const rows, keys, probes = 16_384, 4_096, 4
	ts := []types.Type{types.Bigint, types.Bigint}
	probePages := buildKeyPages(2*keys, 2*keys) // half the keys match, four rows each
	for trial := 0; trial < 8; trial++ {
		cancel := trial%2 == 1
		rng := rand.New(rand.NewSource(int64(trial)))
		bridge, q, pageBytes := accountedBuild(t, rows, keys)
		index := walkBridge(bridge)
		ops := make([]*LookupJoinOperator, probes)
		for i := range ops {
			bridge.AddProbe()
			ops[i] = NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
		}
		bridge.NoMoreProbes()
		order := rng.Perm(probes) // the order the probes start in
		jitter := rng.Intn(2)
		var wg sync.WaitGroup
		ended := make(chan struct{}, probes)
		late := make(chan struct{}) // closed when the second half may end
		if !cancel {
			close(late)
		}
		for i, op := range ops {
			wg.Add(1)
			go func(op *LookupJoinOperator, at int) {
				defer wg.Done()
				if at >= probes/2 {
					<-late
				}
				time.Sleep(time.Duration(jitter+at) * time.Millisecond)
				n, err := probeRows(op, probePages)
				if err != nil || n != rows {
					t.Errorf("a probe emitted %d rows (%v), want %d", n, err, rows)
				}
				ended <- struct{}{}
			}(op, order[i])
		}
		if cancel {
			<-ended
			<-ended // the first half has ended
			bridge.Cancel()
			close(late)
		}
		wg.Wait()
		bridge.mu.Lock()
		kept, want := bridge.ktab != nil, pageBytes+walkBridge(bridge)
		bridge.mu.Unlock()
		if cancel != (want == pageBytes+index) {
			t.Errorf("trial %d (cancelled %v): the bridge holds %d bytes of its %d-byte index", trial, cancel, want-pageBytes, index)
		}
		if kept != cancel || q.UserBytes() != want {
			t.Errorf("trial %d (cancelled %v): index kept %v, %d bytes reserved, want %v and %d", trial, cancel, kept, q.UserBytes(), cancel, want)
		}
	}
}

// TestOuterJoinEmitsAfterTheIndexGoesBack: RIGHT and FULL joins emit their
// unmatched build rows once every probe has ended — after the index went back
// to the pool, which the poison overwrites — from the positions and matched
// flags alone, and return the reference rows.
func TestOuterJoinEmitsAfterTheIndexGoesBack(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	ts := []types.Type{types.Bigint, types.Bigint}
	build := keyedPages(9000, 3000, 1)
	probe := keyedPages(600, 6000, 2)
	for _, jt := range []plan.JoinType{plan.RightJoin, plan.FullJoin} {
		bridge := buildBridge(t, []int{0}, build...)
		ops := make([]*LookupJoinOperator, 2)
		inputs := make([][]*block.Page, 2)
		for i := range ops {
			bridge.AddProbe()
			ops[i] = NewLookupJoin(NopContext(), bridge, jt, []int{0}, nil, ts, ts, 0)
		}
		bridge.NoMoreProbes()
		for i, p := range probe {
			inputs[i%2] = append(inputs[i%2], p)
		}
		got := map[string]int{}
		for _, row := range drainPeers(t, ops, inputs) {
			got[rowText(row)]++
		}
		if bridge.ktab != nil {
			t.Errorf("%v: the index outlived the probes", jt)
		}
		assertSameCounts(t, jt.String(), got, refJoin(t, jt, build, probe, []int{0}, []int{0}, nil, ts, ts))
	}
}

// keyedPages is rows (key BIGINT, payload BIGINT) rows in pages of 1000,
// keys drawn from seed below keys, one in fifty NULL, and payloads numbering
// the rows.
func keyedPages(rows, keys int, seed int64) []*block.Page {
	rng := rand.New(rand.NewSource(seed))
	var pages []*block.Page
	for from := 0; from < rows; from += 1000 {
		n := min(1000, rows-from)
		k, nulls, v := make([]int64, n), make([]bool, n), make([]int64, n)
		for i := range k {
			k[i], nulls[i], v[i] = int64(rng.Intn(keys)), rng.Intn(50) == 0, seed<<32+int64(from+i)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(k, nulls), block.NewLongBlock(v, nil)))
	}
	return pages
}

// TestReleasedTablesArePoisoned: with the poison on, the arrays a group
// table, a join index and a DISTINCT closed before it emitted gave back read
// values no input holds, so a reader that kept one fails instead of passing
// by luck.
func TestReleasedTablesArePoisoned(t *testing.T) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
	const n = 10_000

	agg := NewHashAggregation(NopContext(), []int{0}, []types.Type{types.Bigint}, threeAggs, false, 0, n)
	fixedKeyPages(t, n, agg.AddInput)
	cells, count := agg.table.cells, agg.accs[0].count
	agg.Finish()
	for !agg.IsFinished() {
		if _, err := agg.Output(); err != nil {
			t.Fatal(err)
		}
	}
	if cells[0] != math.MaxUint64 || count[0] != math.MinInt64 {
		t.Errorf("a released group table reads cell %d, count %d; want the poison", cells[0], count[0])
	}
	agg.Close()

	bridge := buildBridge(t, []int{0}, buildKeyPages(n, n/4)...)
	slots, next := bridge.ktab.slots, bridge.next
	bridge.AddProbe()
	bridge.NoMoreProbes()
	ts := []types.Type{types.Bigint, types.Bigint}
	op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, ts, ts, 0)
	if _, err := probeRows(op, []*block.Page{twoColPage([]int64{1}, []int64{0})}); err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		if s != math.MinInt32 {
			t.Fatalf("a released join index reads slot %d = %d, want the poison", i, s)
		}
	}
	if next[0] != math.MinInt32 {
		t.Errorf("a released join index reads link %d, want the poison", next[0])
	}

	distinct := NewHashAggregation(NopContext(), []int{0, 1}, []types.Type{types.Bigint, types.Bigint}, nil, false, 0, 0)
	fixedKeyPages(t, n, func(p *block.Page) error { return distinct.AddInput(block.NewPage(p.Col(0), p.Col(1))) })
	dcells := distinct.table.cells
	if cap(dcells) < n {
		t.Fatalf("a DISTINCT set of %d rows holds %d cells", n, cap(dcells))
	}
	distinct.Close()
	if dcells[0] != math.MaxUint64 {
		t.Errorf("a closed DISTINCT set reads cell %d, want the poison", dcells[0])
	}
}
