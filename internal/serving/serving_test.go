package serving

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/faultinject"
	"repro/internal/types"
)

// fakeClock is an adjustable time source for TTL/window tests.
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

// sliceSource is a deterministic PageSource over fixed pages.
type sliceSource struct {
	pages  []*block.Page
	pos    int
	bytes  int64
	closed bool
	err    error // returned after the pages run out
}

func (s *sliceSource) NextPage() (*block.Page, error) {
	if s.pos >= len(s.pages) {
		return nil, s.err
	}
	p := s.pages[s.pos]
	s.pos++
	s.bytes += p.SizeBytes()
	return p, nil
}

func (s *sliceSource) BytesRead() int64 { return s.bytes }
func (s *sliceSource) Close()           { s.closed = true }

func drain(t *testing.T, src connector.PageSource) []int64 {
	t.Helper()
	var out []int64
	for {
		p, err := src.NextPage()
		if err != nil {
			t.Fatalf("NextPage: %v", err)
		}
		if p == nil {
			return out
		}
		for i := 0; i < p.RowCount(); i++ {
			out = append(out, p.Row(i)[0].I)
		}
	}
}

func scanPages() []*block.Page {
	return []*block.Page{testPage(4, 0), testPage(4, 4), testPage(4, 8)}
}

func hubOpener(opens *int) func() (connector.PageSource, error) {
	return func() (connector.PageSource, error) {
		*opens++
		return &sliceSource{pages: scanPages()}, nil
	}
}

func wantRows(t *testing.T, got []int64) {
	t.Helper()
	if len(got) != 12 {
		t.Fatalf("rows = %v, want 0..11", got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestScanHubSharesOneOpen(t *testing.T) {
	clk := newFakeClock()
	hub := NewScanHub(ScanHubConfig{Window: time.Second, Clock: clk.now})
	opens := 0
	open := hubOpener(&opens)
	a, err := hub.Open("k", open)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Open("k", open)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, drain(t, a))
	wantRows(t, drain(t, b))
	a.Close()
	b.Close()
	if opens != 1 {
		t.Fatalf("opens = %d, want 1 (second consumer joins)", opens)
	}
	// The completed log lingers inside the window: a third consumer joins it
	// and replays the whole scan without touching the connector.
	cl, err := hub.Open("k", open)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, drain(t, cl))
	cl.Close()
	if opens != 1 {
		t.Fatalf("opens = %d, want 1 (late joiner replays lingering log)", opens)
	}
	st := hub.Stats()
	if st.Scans != 1 || st.Joined != 2 || st.ActiveEntries != 1 || st.LogBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Past the window the lingering log is reclaimed.
	clk.advance(2 * time.Second)
	hub.Clear()
	if st := hub.Stats(); st.ActiveEntries != 0 || st.LogBytes != 0 {
		t.Fatalf("stats after clear = %+v", st)
	}
}

func TestScanHubWindowExpires(t *testing.T) {
	clk := newFakeClock()
	hub := NewScanHub(ScanHubConfig{Window: 100 * time.Millisecond, Clock: clk.now})
	opens := 0
	open := hubOpener(&opens)
	a, _ := hub.Open("k", open)
	clk.advance(200 * time.Millisecond)
	b, _ := hub.Open("k", open) // past the window: fresh scan
	wantRows(t, drain(t, a))
	wantRows(t, drain(t, b))
	a.Close()
	b.Close()
	if opens != 2 {
		t.Fatalf("opens = %d, want 2 (window expired)", opens)
	}
	if st := hub.Stats(); st.Joined != 0 || st.Scans != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanHubTruncationReopensAndSkips(t *testing.T) {
	clk := newFakeClock()
	// Log bound below one page: the first page truncates the log, consumer A
	// keeps the live source, and B re-opens + skips rows it already got.
	hub := NewScanHub(ScanHubConfig{Window: time.Second, MaxEntryBytes: 1, Clock: clk.now})
	opens := 0
	open := hubOpener(&opens)
	a, _ := hub.Open("k", open)
	b, _ := hub.Open("k", open)
	// B consumes one page first so its post-truncation skip is non-zero.
	p, err := b.NextPage()
	if err != nil || p == nil || p.Row(0)[0].I != 0 {
		t.Fatalf("b first page: %v %v", p, err)
	}
	got := []int64{}
	for i := 0; i < p.RowCount(); i++ {
		got = append(got, p.Row(i)[0].I)
	}
	wantRows(t, append(got, drain(t, b)...))
	wantRows(t, drain(t, a))
	a.Close()
	b.Close()
	st := hub.Stats()
	if st.Truncated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if opens != 2 {
		t.Fatalf("opens = %d, want 2 (laggard reopened)", opens)
	}
}

func TestScanHubAccountantPressureTruncates(t *testing.T) {
	clk := newFakeClock()
	acct := &memAccountant{limit: 1} // nothing fits: first logged page fails
	hub := NewScanHub(ScanHubConfig{Window: time.Second, Accountant: acct, Clock: clk.now})
	opens := 0
	open := hubOpener(&opens)
	a, _ := hub.Open("k", open)
	b, _ := hub.Open("k", open)
	wantRows(t, drain(t, a))
	wantRows(t, drain(t, b))
	a.Close()
	b.Close()
	if st := hub.Stats(); st.Truncated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if acct.bytes() != 0 {
		t.Fatalf("accountant holds %d bytes", acct.bytes())
	}
}

func TestScanHubErrorPropagatesToAll(t *testing.T) {
	clk := newFakeClock()
	hub := NewScanHub(ScanHubConfig{Window: time.Second, Clock: clk.now})
	boom := errors.New("storage failed")
	open := func() (connector.PageSource, error) {
		return &sliceSource{pages: scanPages()[:1], err: boom}, nil
	}
	a, _ := hub.Open("k", open)
	b, _ := hub.Open("k", open)
	for _, src := range []connector.PageSource{a, b} {
		var err error
		for {
			var p *block.Page
			p, err = src.NextPage()
			if p == nil {
				break
			}
		}
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
		src.Close()
	}
}

func TestScanHubConcurrentConsumers(t *testing.T) {
	clk := newFakeClock()
	hub := NewScanHub(ScanHubConfig{Window: time.Second, Clock: clk.now})
	pages := make([]*block.Page, 32)
	for i := range pages {
		pages[i] = testPage(8, int64(i*8))
	}
	open := func() (connector.PageSource, error) {
		return &sliceSource{pages: pages}, nil
	}
	const consumers = 8
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := hub.Open("k", open)
			if err != nil {
				errs[i] = err
				return
			}
			defer src.Close()
			var rows int64
			for {
				p, err := src.NextPage()
				if err != nil {
					errs[i] = err
					return
				}
				if p == nil {
					break
				}
				rows += int64(p.RowCount())
			}
			if rows != 256 {
				errs[i] = fmt.Errorf("rows = %d, want 256", rows)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
	}
	hub.Clear()
	if st := hub.Stats(); st.ActiveEntries != 0 || st.LogBytes != 0 {
		t.Fatalf("stats after clear = %+v", st)
	}
}

func TestSkipSourceSlicesBoundaryPage(t *testing.T) {
	s := &skipSource{src: &sliceSource{pages: scanPages()}, skip: 6}
	var got []int64
	for {
		p, err := s.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		for i := 0; i < p.RowCount(); i++ {
			got = append(got, p.Row(i)[0].I)
		}
	}
	if len(got) != 6 || got[0] != 6 || got[5] != 11 {
		t.Fatalf("rows = %v, want 6..11", got)
	}
}

func TestScanHubNilAndDisabled(t *testing.T) {
	if hub := NewScanHub(ScanHubConfig{Window: -1}); hub != nil {
		t.Fatal("negative window must disable the hub")
	}
	var hub *ScanHub
	opens := 0
	src, err := hub.Open("k", hubOpener(&opens))
	if err != nil || opens != 1 {
		t.Fatalf("nil hub must pass through: err=%v opens=%d", err, opens)
	}
	wantRows(t, drain(t, src))
	if st := hub.Stats(); st != (ScanHubStats{}) {
		t.Fatalf("nil hub stats = %+v", st)
	}
}
