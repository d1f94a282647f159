package serving

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/faultinject"
	"repro/internal/types"
)

// fakeClock is an adjustable time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestNormalizeSQL(t *testing.T) {
	cases := [][2]string{
		{"SELECT  1", "select 1"},
		{"select\n\t x  FROM t", "select x from t"},
		{"SELECT 'A  B'", "select 'A  B'"},
		{"SELECT 'it''s  X' FROM T", "select 'it''s  X' from t"},
		{"  SELECT 1  ", "select 1"},
	}
	for _, c := range cases {
		if got := NormalizeSQL(c[0]); got != c[1] {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c[0], got, c[1])
		}
	}
	if NormalizeSQL("WHERE s = 'A'") == NormalizeSQL("WHERE s = 'a'") {
		t.Error("string literals must not case-fold")
	}
	if NormalizeSQL("SELECT  X") != NormalizeSQL("select x") {
		t.Error("whitespace and keyword case must normalize away")
	}
}

func TestLRUCoreEvictionAndTTL(t *testing.T) {
	clk := newFakeClock()
	var evicted []string
	lru := newLRUCore(2, 0, time.Minute, clk.now, func(key string, _ interface{}, _ int64) {
		evicted = append(evicted, key)
	})
	lru.put("a", 1, 1)
	lru.put("b", 2, 1)
	if _, ok, _ := lru.get("a"); !ok {
		t.Fatal("a missing")
	}
	lru.put("c", 3, 1) // evicts b (a was touched)
	if _, ok, _ := lru.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v", evicted)
	}
	clk.advance(2 * time.Minute)
	if _, ok, expired := lru.get("a"); ok || !expired {
		t.Fatalf("a should expire: ok=%v expired=%v", ok, expired)
	}
	if lru.len() != 1 {
		t.Fatalf("len = %d, want 1 (only c, a expired lazily)", lru.len())
	}
}

func TestLRUCoreByteBound(t *testing.T) {
	lru := newLRUCore(0, 10, 0, nil, nil)
	if lru.put("big", 0, 11) {
		t.Fatal("oversized value admitted")
	}
	lru.put("a", 0, 6)
	lru.put("b", 0, 6) // evicts a
	if _, ok, _ := lru.get("a"); ok {
		t.Fatal("a should have been evicted for bytes")
	}
	if lru.bytes != 6 {
		t.Fatalf("bytes = %d, want 6", lru.bytes)
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	clk := newFakeClock()
	pc := NewPlanCache(PlanCacheConfig{MaxEntries: 8, TTL: time.Minute, Clock: clk.now})
	e := &PlanEntry{Tables: [][2]string{{"m", "t1"}, {"m", "t2"}}}
	key := PlanKey("select * from t1, t2", "m", "df=false")
	pc.Put(key, e)
	if _, ok := pc.Get(key); !ok {
		t.Fatal("fresh entry missing")
	}
	if n := pc.InvalidateTable("m", "t2"); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if _, ok := pc.Get(key); ok {
		t.Fatal("entry should be gone after table invalidation")
	}
	// Re-insert, expire by TTL.
	pc.Put(key, e)
	clk.advance(2 * time.Minute)
	if _, ok := pc.Get(key); ok {
		t.Fatal("entry should have expired")
	}
	st := pc.Stats()
	if st.Hits != 1 || st.Expirations != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Invalidation must also clean the reverse index (no dangling keys).
	if n := pc.InvalidateTable("m", "t1"); n != 0 {
		t.Fatalf("stale reverse index: invalidated %d", n)
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
	tables := [][2]string{{"m", "t"}}
	if !rc.Put("k1", []string{"x"}, pages, 15, tables) {
		t.Fatal("put rejected")
	}
	if acct.bytes() == 0 {
		t.Fatal("no bytes charged to the accountant")
	}
	e, ok := rc.Get("k1")
	if !ok || e.Rows != 15 || len(e.Pages) != 2 || e.Columns[0] != "x" {
		t.Fatalf("get = %+v ok=%v", e, ok)
	}
	rc.InvalidateTable("m", "t")
	if _, ok := rc.Get("k1"); ok {
		t.Fatal("entry survived invalidation")
	}
	if acct.bytes() != 0 {
		t.Fatalf("accountant holds %d bytes after invalidation", acct.bytes())
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultCacheRejectsWhenUnreservable(t *testing.T) {
	acct := &memAccountant{limit: 8}
	rc := NewResultCache(ResultCacheConfig{MaxBytes: 1 << 20, Accountant: acct})
	if rc.Put("k", []string{"x"}, []*block.Page{testPage(100, 0)}, 100, nil) {
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
	rc.Put("k", []string{"x"}, []*block.Page{testPage(4, 0)}, 4, nil)
	if _, ok := rc.Get("k"); ok {
		t.Fatal("corrupted hit must degrade to a miss")
	}
	if _, ok := rc.Get("k"); ok {
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
	if !cp.Commit([]string{"x"}) {
		t.Fatal("small capture should commit")
	}
	if e, ok := rc.Get("k"); !ok || e.Rows != 2 {
		t.Fatalf("committed entry: %+v ok=%v", e, ok)
	}
	// Over the entry bound: the capture goes dead and never commits.
	cp = rc.NewCapture("big", nil)
	cp.Observe(testPage(100, 0))
	if cp.Commit([]string{"x"}) {
		t.Fatal("oversized capture must not commit")
	}
	// Abandoned captures never commit either.
	cp = rc.NewCapture("ab", nil)
	cp.Observe(testPage(1, 0))
	cp.Abandon()
	if cp.Commit([]string{"x"}) {
		t.Fatal("abandoned capture must not commit")
	}
}
