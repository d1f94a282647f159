package serving

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestPlanCacheInvalidation: an entry holds the schema versions its tables
// were resolved at; the first lookup after one of them moves drops it and
// counts an invalidation, and a plan made at the new versions is served.
func TestPlanCacheInvalidation(t *testing.T) {
	pc := NewPlanCache(PlanCacheConfig{MaxEntries: 8})
	tm, _ := PlanKey("select * from t1, t2", "m", "df=false")
	now := []int64{1, 1} // the schema versions of m.t1 and m.t2
	valid := func(e *PlanEntry) bool { return slices.Equal(e.Schemas, now) }
	get := func() bool {
		_, ok := pc.Lookup(&tm, valid)
		return ok
	}
	put := func() {
		pc.Put(tm.Key, &PlanEntry{Tables: [][2]string{{"m", "t1"}, {"m", "t2"}}, Schemas: slices.Clone(now)})
	}
	put()
	if !get() {
		t.Fatal("fresh entry missing")
	}
	now[1]++ // DDL on m.t2
	if get() {
		t.Fatal("a plan made at the old schema of m.t2 was served")
	}
	if st := pc.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("the stale entry was not dropped at its lookup: %+v", st)
	}
	put()
	if !get() {
		t.Fatal("a plan made at the new schema was not served")
	}
	if st := pc.Stats(); st.Hits != 2 || st.Misses != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// memAccountant tracks reservations like a node pool would.
type memAccountant struct {
	mu    sync.Mutex
	held  int64
	limit int64
}

func (a *memAccountant) Reserve(n int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.held+n > a.limit {
		return errors.New("over limit")
	}
	a.held += n
	return nil
}

func (a *memAccountant) Release(n int64) {
	a.mu.Lock()
	a.held -= n
	a.mu.Unlock()
}

func (a *memAccountant) bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.held
}

func testPage(n int, base int64) *block.Page {
	b := block.NewPageBuilder([]types.Type{types.Bigint})
	for i := 0; i < n; i++ {
		b.AppendRow([]types.Value{types.BigintValue(base + int64(i))})
	}
	return b.Build()
}

func TestResultCacheRoundTripAndAccounting(t *testing.T) {
	acct := &memAccountant{}
	rc := NewResultCache(ResultCacheConfig{MaxBytes: 1 << 20, Accountant: acct})
	pages := []*block.Page{testPage(10, 0), testPage(5, 10)}
	reads := []TableRead{{Catalog: "m", Table: "t", Scans: []*plan.Domain{nil}}}
	if !rc.Put("k1", []string{"x"}, pages, 15, reads, []int64{1}) {
		t.Fatal("put rejected")
	}
	if acct.bytes() == 0 {
		t.Fatal("no bytes charged to the accountant")
	}
	e, ok := rc.Get("k1", unmoved)
	if !ok || e.Rows != 15 || len(e.Pages) != 2 || e.Columns[0] != "x" {
		t.Fatalf("get = %+v ok=%v", e, ok)
	}
	// m.t moved: the lookup drops the entry and releases its bytes.
	if _, ok := rc.Get("k1", stale); ok {
		t.Fatal("an entry whose table moved was served")
	}
	if _, ok := rc.Get("k1", unmoved); ok {
		t.Fatal("an entry whose table moved was kept")
	}
	if acct.bytes() != 0 {
		t.Fatalf("accountant holds %d bytes after the entry was dropped", acct.bytes())
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultCacheRejectsWhenUnreservable(t *testing.T) {
	acct := &memAccountant{limit: 8}
	rc := NewResultCache(ResultCacheConfig{MaxBytes: 1 << 20, Accountant: acct})
	if rc.Put("k", []string{"x"}, []*block.Page{testPage(100, 0)}, 100, nil, nil) {
		t.Fatal("put should fail when the pool cannot reserve")
	}
	if acct.bytes() != 0 {
		t.Fatalf("failed put leaked %d bytes", acct.bytes())
	}
	if st := rc.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultCacheCorruptionDegradesToMiss(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteResultCacheCorrupt, Kind: faultinject.KindError, Rate: 1, MaxFaults: 1,
	})
	rc := NewResultCache(ResultCacheConfig{Inject: inj})
	rc.Put("k", []string{"x"}, []*block.Page{testPage(4, 0)}, 4, nil, nil)
	if _, ok := rc.Get("k", unmoved); ok {
		t.Fatal("corrupted hit must degrade to a miss")
	}
	if _, ok := rc.Get("k", unmoved); ok {
		t.Fatal("corrupted entry must be dropped, not served later")
	}
	st := rc.Stats()
	if st.Corruptions != 1 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCaptureCommitAndOverflow(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{MaxBytes: 1 << 20, MaxEntryBytes: 64})
	cp := rc.NewCapture("k", nil)
	cp.Observe(testPage(2, 0))
	if !cp.Commit([]string{"x"}, nil) {
		t.Fatal("small capture should commit")
	}
	if e, ok := rc.Get("k", unmoved); !ok || e.Rows != 2 {
		t.Fatalf("committed entry: %+v ok=%v", e, ok)
	}
	// Over the entry bound: the capture goes dead and never commits.
	cp = rc.NewCapture("big", nil)
	cp.Observe(testPage(100, 0))
	if cp.Commit([]string{"x"}, nil) {
		t.Fatal("oversized capture must not commit")
	}
	// Abandoned captures never commit either.
	cp = rc.NewCapture("ab", nil)
	cp.Observe(testPage(1, 0))
	cp.Abandon()
	if cp.Commit([]string{"x"}, nil) {
		t.Fatal("abandoned capture must not commit")
	}
}

// unmoved is the Freshness of tables nobody writes, stale that of tables
// changed since the stamp.
func unmoved(_ []TableRead, stamp []int64) ([]int64, bool) { return stamp, true }
func stale([]TableRead, []int64) ([]int64, bool)           { return nil, false }

// TestResultCacheFreshness: a lookup serves an entry its Freshness holds,
// re-stamped at the versions that returns, and drops one it rejects.
func TestResultCacheFreshness(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{})
	reads := []TableRead{{Catalog: "m", Table: "a"}, {Catalog: "m", Table: "b"}}
	rc.Put("k", []string{"x"}, []*block.Page{testPage(3, 0)}, 3, reads, []int64{4, 9})

	var seen []int64
	moved := func(r []TableRead, stamp []int64) ([]int64, bool) {
		seen = stamp
		return []int64{4, 12}, true
	}
	if _, ok := rc.Get("k", moved); !ok {
		t.Fatal("an entry its freshness holds was not served")
	}
	if !slices.Equal(seen, []int64{4, 9}) {
		t.Fatalf("freshness saw stamp %v, want [4 9]", seen)
	}
	if _, ok := rc.Get("k", moved); !ok || !slices.Equal(seen, []int64{4, 12}) {
		t.Fatalf("the entry was not re-stamped: the next lookup saw %v", seen)
	}
	// The second lookup found the entry at the versions it holds at.
	if st := rc.Stats(); st.Hits != 2 || st.Restamps != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v", st)
	}

	if _, ok := rc.Get("k", stale); ok {
		t.Fatal("an entry its freshness rejects was served")
	}
	if _, ok := rc.Get("k", unmoved); ok {
		t.Fatal("a rejected entry was kept")
	}
	if st := rc.Stats(); st.Invalidations != 1 || st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
