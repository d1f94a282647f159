package memory

import (
	"errors"
	"sync"
	"testing"
)

func TestNodePoolReserveRelease(t *testing.T) {
	p := NewNodePool(1000, 100)
	if err := p.Reserve("q1", User, 600, false); err != nil {
		t.Fatal(err)
	}
	if p.GeneralUsed() != 600 {
		t.Errorf("used: %d", p.GeneralUsed())
	}
	if err := p.Reserve("q2", User, 600, false); err == nil {
		t.Error("exhausted pool should reject")
	}
	p.Release("q1", User, 600)
	if p.GeneralUsed() != 0 {
		t.Errorf("after release: %d", p.GeneralUsed())
	}
	if err := p.Reserve("q2", User, 600, false); err != nil {
		t.Errorf("freed pool should accept: %v", err)
	}
}

func TestNodePoolReleaseQuery(t *testing.T) {
	p := NewNodePool(1000, 100)
	p.Reserve("q1", User, 300, false)
	p.Reserve("q1", System, 200, false)
	u, s := p.QueryBytes("q1")
	if u != 300 || s != 200 {
		t.Errorf("query bytes: %d %d", u, s)
	}
	p.ReleaseQuery("q1")
	if p.GeneralUsed() != 0 {
		t.Error("ReleaseQuery should free everything")
	}
}

func TestReservedPoolPromotion(t *testing.T) {
	p := NewNodePool(1000, 500)
	p.Reserve("big", User, 900, false)
	if !p.PromoteToReserved("big") {
		t.Fatal("promotion failed")
	}
	if p.ReservedOwner() != "big" {
		t.Error("owner not recorded")
	}
	// General pool is free again for others.
	if p.GeneralUsed() != 0 {
		t.Errorf("general after promotion: %d", p.GeneralUsed())
	}
	if err := p.Reserve("other", User, 800, false); err != nil {
		t.Errorf("general pool should accept after promotion: %v", err)
	}
	// Only one query can own the reserved pool.
	if p.PromoteToReserved("other") {
		t.Error("second promotion should fail")
	}
}

func TestArbiterSinglePromotion(t *testing.T) {
	pools := map[int]*NodePool{0: NewNodePool(100, 100), 1: NewNodePool(100, 100)}
	a := NewArbiter(pools)
	if !a.TryPromote("q1") {
		t.Fatal("first promotion should succeed")
	}
	if a.TryPromote("q2") {
		t.Error("second query must not take the reserved pool")
	}
	if !a.TryPromote("q1") {
		t.Error("re-promoting the owner is fine")
	}
	a.Clear("q1")
	for _, p := range pools {
		p.ReleaseQuery("q1")
	}
	if !a.TryPromote("q2") {
		t.Error("cleared pool should promote the next query")
	}
}

func TestQueryContextLimits(t *testing.T) {
	pools := map[int]*NodePool{0: NewNodePool(1<<30, 0)}
	q := NewQueryContext("q", QueryLimits{PerNodeUser: 100, GlobalUser: 150}, pools)
	if err := q.Reserve(0, User, 90); err != nil {
		t.Fatal(err)
	}
	err := q.Reserve(0, User, 20)
	if !errors.Is(err, ErrExceededLimit) {
		t.Errorf("per-node limit: %v", err)
	}
	q.Release(0, User, 90)
	if q.UserBytes() != 0 {
		t.Errorf("user bytes after release: %d", q.UserBytes())
	}
}

func TestQueryContextGlobalLimit(t *testing.T) {
	pools := map[int]*NodePool{0: NewNodePool(1<<30, 0), 1: NewNodePool(1<<30, 0)}
	q := NewQueryContext("q", QueryLimits{PerNodeUser: 100, GlobalUser: 150}, pools)
	q.Reserve(0, User, 90)
	err := q.Reserve(1, User, 90)
	if !errors.Is(err, ErrExceededLimit) {
		t.Errorf("global limit: %v", err)
	}
}

func TestQueryContextPeak(t *testing.T) {
	q := NewQueryContext("q", QueryLimits{}, map[int]*NodePool{})
	q.Reserve(0, User, 100)
	q.Reserve(0, System, 50)
	q.Release(0, User, 100)
	if q.PeakBytes() != 150 {
		t.Errorf("peak: %d", q.PeakBytes())
	}
}

func TestLocalContextDeltaAccounting(t *testing.T) {
	q := NewQueryContext("q", QueryLimits{}, map[int]*NodePool{})
	l := NewLocalContext(q, 0, User)
	l.SetBytes(100)
	l.SetBytes(250)
	if q.UserBytes() != 250 {
		t.Errorf("grow: %d", q.UserBytes())
	}
	l.SetBytes(50)
	if q.UserBytes() != 50 {
		t.Errorf("shrink: %d", q.UserBytes())
	}
	l.Close()
	if q.UserBytes() != 0 {
		t.Errorf("close: %d", q.UserBytes())
	}
}

// fakeRevocable simulates a spillable operator: on revocation it releases
// its reservation back to the pool (as a real operator does via its memory
// context).
type fakeRevocable struct {
	mu    sync.Mutex
	pool  *NodePool
	query string
	bytes int64
	nanos int64
	freed int64
}

func (f *fakeRevocable) RevocableBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}
func (f *fakeRevocable) ExecutionNanos() int64 { return f.nanos }
func (f *fakeRevocable) Revoke() (int64, error) {
	f.mu.Lock()
	n := f.bytes
	f.freed += n
	f.bytes = 0
	f.mu.Unlock()
	if f.pool != nil && n > 0 {
		f.pool.Release(f.query, User, n)
	}
	return n, nil
}

func TestPoolRevocationOrder(t *testing.T) {
	p := NewNodePool(1000, 0)
	young := &fakeRevocable{pool: p, query: "q1", bytes: 400, nanos: 10}
	old := &fakeRevocable{pool: p, query: "q2", bytes: 400, nanos: 1000}
	p.RegisterRevocable("q1", young)
	p.RegisterRevocable("q2", old)
	p.Reserve("q1", User, 400, true)
	p.Reserve("q2", User, 400, true)
	// The pool holds 800/1000; a 300-byte reservation triggers revocation
	// of the youngest (ascending execution time, §IV-F2) first.
	if err := p.Reserve("q3", User, 300, true); err != nil {
		t.Fatalf("revocation should make room: %v", err)
	}
	if young.freed == 0 {
		t.Error("youngest operator should have spilled first")
	}
	if old.freed != 0 {
		t.Error("older operator should not spill when the youngest freed enough")
	}
}

func TestQueryContextPromoteHookRetries(t *testing.T) {
	pool := NewNodePool(100, 1000)
	pools := map[int]*NodePool{0: pool}
	promoted := false
	q := NewQueryContext("q", QueryLimits{}, pools)
	q.PromoteHook = func(node int) bool {
		promoted = true
		return pool.PromoteToReserved("q")
	}
	// First fill the general pool.
	if err := q.Reserve(0, User, 100); err != nil {
		t.Fatal(err)
	}
	// The next reservation exceeds the general pool; the hook promotes the
	// query and the retry lands in the reserved pool.
	if err := q.Reserve(0, User, 500); err != nil {
		t.Fatalf("promotion retry should succeed: %v", err)
	}
	if !promoted {
		t.Error("hook not invoked")
	}
}

// TestTryReserveNeverMakesRoom: TryReserve takes what fits under the query's
// limits and in the pool as they stand, and refuses the rest without asking a
// spillable operator to spill, evicting a cache or promoting the query.
func TestTryReserveNeverMakesRoom(t *testing.T) {
	pool := NewNodePool(1000, 1000)
	other := &fakeRevocable{pool: pool, query: "other", bytes: 600}
	cache := &fakeRevocable{pool: pool, query: "@cache", bytes: 200}
	pool.RegisterRevocable("other", other)
	pool.RegisterCacheRevocable(cache)
	if err := pool.Reserve("other", User, 600, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.Reserve("@cache", System, 200, true); err != nil {
		t.Fatal(err)
	}
	q := NewQueryContext("q", QueryLimits{PerNodeUser: 150, SpillEnabled: true}, map[int]*NodePool{0: pool})
	q.PromoteHook = func(int) bool { t.Error("TryReserve promoted the query"); return false }
	l := NewLocalContext(q, 0, User)
	if !l.TryGrow(100) || l.Held() != 100 || q.UserBytes() != 100 {
		t.Fatalf("100 bytes that fit: held %d, query %d", l.Held(), q.UserBytes())
	}
	if l.TryGrow(100) {
		t.Error("TryGrow passed the per-node limit")
	}
	q.Limits.PerNodeUser = 0
	if l.TryGrow(150) {
		t.Error("TryGrow took 150 bytes from a pool with 100 free")
	}
	if other.freed != 0 || cache.freed != 0 {
		t.Errorf("TryGrow made room: spilled %d, evicted %d", other.freed, cache.freed)
	}
	if l.Held() != 100 || q.UserBytes() != 100 || pool.GeneralUsed() != 900 {
		t.Errorf("refusals left held %d, query %d, pool %d; want 100, 100, 900", l.Held(), q.UserBytes(), pool.GeneralUsed())
	}
	l.Close()
	if pool.GeneralUsed() != 800 {
		t.Errorf("pool holds %d after Close, want 800", pool.GeneralUsed())
	}
}

// TestLedgerCountsLeasedCapacity: Lease adds an array's capacity times its
// element size to the context's count and reserves nothing, and Return takes
// them off again; a nil context leases without counting.
func TestLedgerCountsLeasedCapacity(t *testing.T) {
	q := NewQueryContext("q", QueryLimits{}, map[int]*NodePool{0: NewNodePool(1<<20, 0)})
	l := NewLocalContext(q, 0, User)
	a := Lease[int64](l, 10, 100)
	if len(a) != 10 || cap(a) != 100 || l.Leased() != 800 || l.Held() != 0 {
		t.Fatalf("leased %d of capacity %d: count %d, held %d; want 10, 100, 800, 0", len(a), cap(a), l.Leased(), l.Held())
	}
	b := Lease[uint32](l, 0, 1000)
	if cap(b) != 1000 || l.Leased() != 4800 || l.Held() != 0 {
		t.Fatalf("leased capacity %d: count %d, held %d; want 1000, 4800, 0", cap(b), l.Leased(), l.Held())
	}
	Return(l, a)
	Return(l, b)
	if l.Leased() != 0 {
		t.Errorf("every array returned, the count reads %d", l.Leased())
	}
	var none *LocalContext
	if v := Lease[byte](none, 5, 5); len(v) != 5 {
		t.Errorf("a nil context leased %d bytes, want 5", len(v))
	}
	Return(none, Lease[byte](none, 5, 5))
}
