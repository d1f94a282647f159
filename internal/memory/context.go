package memory

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/block"
)

// QueryLimits configures a query's memory ceilings (paper §IV-F2): distinct
// per-node and global user limits allow a bounded level of usage skew.
type QueryLimits struct {
	PerNodeUser int64
	GlobalUser  int64
	GlobalTotal int64
	// SpillEnabled allows revocation instead of failure on pool exhaustion.
	SpillEnabled bool
}

// QueryContext tracks one query's memory across all nodes and enforces its
// limits.
type QueryContext struct {
	QueryID string
	Limits  QueryLimits

	// PromoteHook, when set, is invoked after a node pool rejects a
	// reservation; returning true (the cluster promoted a query to the
	// reserved pool, §IV-F2) retries the reservation once.
	PromoteHook func(node int) bool

	mu        sync.Mutex
	nodeUser  map[int]int64 // per node id
	userTotal atomic.Int64
	sysTotal  atomic.Int64
	peakTotal atomic.Int64

	pools map[int]*NodePool
}

// NewQueryContext creates memory tracking for a query across node pools.
func NewQueryContext(queryID string, limits QueryLimits, pools map[int]*NodePool) *QueryContext {
	return &QueryContext{
		QueryID:  queryID,
		Limits:   limits,
		nodeUser: make(map[int]int64),
		pools:    pools,
	}
}

// Reserve reserves n bytes of the given kind on node, enforcing the query's
// per-node and global limits before touching the pool.
func (q *QueryContext) Reserve(node int, kind Kind, n int64) error {
	if n <= 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		err := q.charge(node, kind, n)
		if err == nil {
			break
		}
		// Revocable memory does not have to count against the user limit:
		// with spilling enabled, ask operators to spill and retry (§IV-F2).
		if kind == User && q.Limits.SpillEnabled && attempt < 3 {
			if pool, ok := q.pools[node]; ok && pool.TryRevoke(n) {
				continue
			}
		}
		return err
	}
	if pool, ok := q.pools[node]; ok {
		err := pool.Reserve(q.QueryID, kind, n, q.Limits.SpillEnabled)
		if err != nil && q.PromoteHook != nil && q.PromoteHook(node) {
			err = pool.Reserve(q.QueryID, kind, n, q.Limits.SpillEnabled)
		}
		if err != nil {
			q.unwind(node, kind, n)
			return err
		}
	}
	return nil
}

// TryReserve reserves n bytes of the given kind on node if they fit under the
// query's limits and in the node's pool as things stand, and reports whether
// it did. Unlike Reserve it never makes room: no operator is asked to spill
// and no query is promoted.
func (q *QueryContext) TryReserve(node int, kind Kind, n int64) bool {
	if n <= 0 {
		return true
	}
	if q.charge(node, kind, n) != nil {
		return false
	}
	if pool, ok := q.pools[node]; ok && !pool.TryReserve(q.QueryID, kind, n) {
		q.unwind(node, kind, n)
		return false
	}
	return true
}

// charge counts n bytes of the given kind on node against the query's limits,
// or changes nothing and says which limit they would pass.
func (q *QueryContext) charge(node int, kind Kind, n int64) error {
	if kind == User {
		q.mu.Lock()
		newNode := q.nodeUser[node] + n
		overNode := q.Limits.PerNodeUser > 0 && newNode > q.Limits.PerNodeUser
		overGlobal := q.Limits.GlobalUser > 0 && q.userTotal.Load()+n > q.Limits.GlobalUser
		if !overNode && !overGlobal {
			q.nodeUser[node] = newNode
		}
		q.mu.Unlock()
		if overNode {
			return fmt.Errorf("%w: per-node user limit %d exceeded on node %d (wanted %d)",
				ErrExceededLimit, q.Limits.PerNodeUser, node, newNode)
		}
		if overGlobal {
			return fmt.Errorf("%w: global user limit %d exceeded (wanted %d)",
				ErrExceededLimit, q.Limits.GlobalUser, q.userTotal.Load()+n)
		}
		q.userTotal.Add(n)
	} else {
		if q.Limits.GlobalTotal > 0 && q.userTotal.Load()+q.sysTotal.Load()+n > q.Limits.GlobalTotal {
			return fmt.Errorf("%w: global total limit %d exceeded", ErrExceededLimit, q.Limits.GlobalTotal)
		}
		q.sysTotal.Add(n)
	}
	q.updatePeak()
	return nil
}

func (q *QueryContext) unwind(node int, kind Kind, n int64) {
	if kind == User {
		q.mu.Lock()
		q.nodeUser[node] -= n
		q.mu.Unlock()
		q.userTotal.Add(-n)
	} else {
		q.sysTotal.Add(-n)
	}
}

// Release returns n bytes of the given kind on node.
func (q *QueryContext) Release(node int, kind Kind, n int64) {
	if n <= 0 {
		return
	}
	q.unwind(node, kind, n)
	if pool, ok := q.pools[node]; ok {
		pool.Release(q.QueryID, kind, n)
	}
}

// Close releases all remaining reservations.
func (q *QueryContext) Close() {
	for _, pool := range q.pools {
		pool.ReleaseQuery(q.QueryID)
	}
	q.mu.Lock()
	q.nodeUser = map[int]int64{}
	q.mu.Unlock()
	q.userTotal.Store(0)
	q.sysTotal.Store(0)
}

func (q *QueryContext) updatePeak() {
	total := q.userTotal.Load() + q.sysTotal.Load()
	for {
		peak := q.peakTotal.Load()
		if total <= peak || q.peakTotal.CompareAndSwap(peak, total) {
			return
		}
	}
}

// PeakBytes returns the query's peak total reservation.
func (q *QueryContext) PeakBytes() int64 { return q.peakTotal.Load() }

// UserBytes returns the query's current global user reservation.
func (q *QueryContext) UserBytes() int64 { return q.userTotal.Load() }

// TotalBytes returns user+system reservation.
func (q *QueryContext) TotalBytes() int64 { return q.userTotal.Load() + q.sysTotal.Load() }

// LocalContext is an operator-scoped tracker that simplifies delta
// accounting against a query context. `held` is atomic because revocation
// (spill) may reset an operator's reservation from another query's thread
// while the owning driver samples or adjusts it. It is also the operator's
// ledger: its table arrays are leased (Lease) and returned (Return)
// through it, and the operator reserves what it counts (Leased) — outside its
// own lock, since the pool may take that lock under its own.
type LocalContext struct {
	Q      *QueryContext
	Node   int
	Kind   Kind
	held   atomic.Int64
	leased atomic.Int64
}

// NewLocalContext creates an operator-local tracker.
func NewLocalContext(q *QueryContext, node int, kind Kind) *LocalContext {
	return &LocalContext{Q: q, Node: node, Kind: kind}
}

// SetBytes adjusts the reservation to the new absolute value.
func (l *LocalContext) SetBytes(n int64) error {
	delta := n - l.held.Load()
	if delta > 0 {
		if err := l.Q.Reserve(l.Node, l.Kind, delta); err != nil {
			return err
		}
	} else if delta < 0 {
		l.Q.Release(l.Node, l.Kind, -delta)
	}
	l.held.Store(n)
	return nil
}

// TryGrow raises the reservation by n bytes if QueryContext.TryReserve finds
// room for them, and reports whether it did.
func (l *LocalContext) TryGrow(n int64) bool {
	if !l.Q.TryReserve(l.Node, l.Kind, n) {
		return false
	}
	l.held.Add(n)
	return true
}

// Held returns the current reservation.
func (l *LocalContext) Held() int64 { return l.held.Load() }

// Leased returns the capacity, in bytes, of the table arrays leased through l
// and not returned.
func (l *LocalContext) Leased() int64 { return l.leased.Load() }

// Close releases everything held.
func (l *LocalContext) Close() {
	if held := l.held.Swap(0); held > 0 {
		l.Q.Release(l.Node, l.Kind, held)
	}
}

// Lease is block.LeaseTable(n, c), its bytes added to l's count. It reserves
// nothing, so it is safe under an operator's lock. A nil l leases without
// counting, as a nil *block.Arena lends without keeping.
func Lease[T block.TableElem](l *LocalContext, n, c int) []T {
	v := block.LeaseTable[T](n, c)
	if l != nil {
		l.leased.Add(arrayBytes(v))
	}
	return v
}

// Return is block.ReturnTable(v), its bytes taken off l's count.
func Return[T block.TableElem](l *LocalContext, v []T) {
	if l != nil {
		l.leased.Add(-arrayBytes(v))
	}
	block.ReturnTable(v)
}

// arrayBytes is what v's backing array takes.
func arrayBytes[T any](v []T) int64 {
	return int64(cap(v)) * int64(unsafe.Sizeof(*new(T)))
}

// Arbiter coordinates the cluster-wide reserved-pool promotion: when a
// node's general pool fills up, the query using the most memory on that node
// is promoted to the reserved pool on all nodes (§IV-F2).
type Arbiter struct {
	mu       sync.Mutex
	pools    map[int]*NodePool
	promoted string
}

// NewArbiter creates an arbiter over the node pools. The map is copied: the
// arbiter's view changes only through AddPool, so callers may mutate their own
// map freely (elastic scale-out).
func NewArbiter(pools map[int]*NodePool) *Arbiter {
	own := make(map[int]*NodePool, len(pools))
	for id, p := range pools {
		own[id] = p
	}
	return &Arbiter{pools: own}
}

// AddPool registers a node pool that joined after construction (a worker
// added mid-flight). Promotion decisions from then on cover the new node.
func (a *Arbiter) AddPool(id int, p *NodePool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pools[id] = p
}

// TryPromote promotes query to the reserved pool on every node if the pool
// is free. Returns whether the promotion happened (or was already held).
func (a *Arbiter) TryPromote(query string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.promoted != "" && a.promoted != query {
		return false
	}
	for _, p := range a.pools {
		if !p.PromoteToReserved(query) {
			return false
		}
	}
	a.promoted = query
	return true
}

// Promoted returns the currently promoted query ("" if none).
func (a *Arbiter) Promoted() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promoted
}

// Clear releases the reserved pool after the promoted query finishes.
func (a *Arbiter) Clear(query string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.promoted == query {
		a.promoted = ""
	}
}
