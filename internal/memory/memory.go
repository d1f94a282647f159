// Package memory implements the engine's integrated memory management
// (paper §IV-F2): every non-trivial allocation is classified as user or
// system memory and reserved against per-node pools; queries have per-node
// and global user-memory limits; when a node's general pool is exhausted one
// query cluster-wide is promoted to the reserved pool; and operators holding
// revocable memory can be asked to spill.
package memory

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrExceededLimit is wrapped by errors returned when a query exceeds its
// memory limits.
var ErrExceededLimit = errors.New("query exceeded memory limit")

// Kind classifies an allocation (paper §IV-F2): user memory is what users
// can reason about from query shape (aggregation hash tables, join builds);
// system memory is a byproduct of implementation decisions (shuffle buffers).
type Kind int

// Allocation kinds.
const (
	User Kind = iota
	System
)

// Revocable is implemented by operators that can release memory on demand by
// spilling state to disk.
type Revocable interface {
	// RevocableBytes returns how much memory a revoke would free.
	RevocableBytes() int64
	// Revoke spills and returns the bytes actually freed.
	Revoke() (int64, error)
	// ExecutionTime orders revocation candidates (ascending, §IV-F2).
	ExecutionNanos() int64
}

// NodePool is one worker node's memory: a general pool plus a reserved pool
// used to unblock the cluster when the general pool is exhausted.
type NodePool struct {
	mu sync.Mutex

	generalLimit  int64
	reservedLimit int64

	generalUsed  int64
	reservedUsed int64

	// per-query usage on this node
	queries map[string]*queryNodeUsage

	// reservedOwner is the query currently promoted on this node.
	reservedOwner string

	revocables map[string][]Revocable

	// blocked allocations waiting for memory, woken on release.
	cond *sync.Cond
}

type queryNodeUsage struct {
	user   int64
	system int64
}

// NewNodePool creates a node pool with the given general and reserved
// capacities in bytes.
func NewNodePool(generalLimit, reservedLimit int64) *NodePool {
	p := &NodePool{
		generalLimit:  generalLimit,
		reservedLimit: reservedLimit,
		queries:       make(map[string]*queryNodeUsage),
		revocables:    make(map[string][]Revocable),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// GeneralUsed returns bytes reserved in the general pool.
func (p *NodePool) GeneralUsed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.generalUsed
}

// GeneralLimit returns the general pool's capacity in bytes.
func (p *NodePool) GeneralLimit() int64 { return p.generalLimit }

// ReservedUsed returns bytes reserved in the reserved pool.
func (p *NodePool) ReservedUsed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reservedUsed
}

// ReservedLimit returns the reserved pool's capacity in bytes.
func (p *NodePool) ReservedLimit() int64 { return p.reservedLimit }

// QueryBytes returns (user, system) bytes held by a query on this node.
func (p *NodePool) QueryBytes(query string) (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u, ok := p.queries[query]; ok {
		return u.user, u.system
	}
	return 0, 0
}

// RegisterRevocable records an operator whose memory can be revoked.
func (p *NodePool) RegisterRevocable(query string, r Revocable) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.revocables[query] = append(p.revocables[query], r)
}

// tryReserveLocked attempts to reserve n bytes for query, preferring the
// general pool and falling back to the reserved pool if this query owns it.
func (p *NodePool) tryReserveLocked(query string, n int64) bool {
	if p.reservedOwner == query {
		if p.reservedUsed+n <= p.reservedLimit {
			p.reservedUsed += n
			return true
		}
		return false
	}
	if p.generalUsed+n <= p.generalLimit {
		p.generalUsed += n
		return true
	}
	return false
}

// Reserve blocks until n bytes can be reserved for query, spilling revocable
// memory if necessary. spillEnabled gates revocation (Facebook's production
// deployments run with spilling disabled, §IV-F2).
func (p *NodePool) Reserve(query string, kind Kind, n int64, spillEnabled bool) error {
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.tryReserveLocked(query, n) {
		if spillEnabled && p.revokeLocked(n) {
			continue
		}
		return fmt.Errorf("%w: node general pool exhausted reserving %d bytes for %s", ErrExceededLimit, n, query)
	}
	p.chargeLocked(query, kind, n)
	return nil
}

// TryReserve reserves n bytes for query if they fit as the pool stands,
// without revoking anything.
func (p *NodePool) TryReserve(query string, kind Kind, n int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.tryReserveLocked(query, n) {
		return false
	}
	p.chargeLocked(query, kind, n)
	return true
}

// chargeLocked counts n reserved bytes of the given kind to query.
func (p *NodePool) chargeLocked(query string, kind Kind, n int64) {
	u := p.queries[query]
	if u == nil {
		u = &queryNodeUsage{}
		p.queries[query] = u
	}
	if kind == User {
		u.user += n
	} else {
		u.system += n
	}
}

// revokeLocked asks revocable operators (ascending execution time) to spill
// until need bytes are available; returns whether anything was freed.
func (p *NodePool) revokeLocked(need int64) bool {
	type cand struct {
		query string
		r     Revocable
	}
	var cands []cand
	for q, rs := range p.revocables {
		for _, r := range rs {
			if r.RevocableBytes() > 0 {
				cands = append(cands, cand{q, r})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].r.ExecutionNanos() < cands[j].r.ExecutionNanos()
	})
	var freed int64
	for _, cd := range cands {
		// Release the lock during the spill itself: the operator will call
		// Release, which re-acquires it.
		p.mu.Unlock()
		n, err := cd.r.Revoke()
		p.mu.Lock()
		if err == nil {
			freed += n
		}
		if freed >= need {
			break
		}
	}
	return freed > 0
}

// TryRevoke asks revocable consumers to free at least need bytes, returning
// whether anything was freed. Used both on pool exhaustion and when a query
// hits its own user limit with spilling enabled (§IV-F2).
func (p *NodePool) TryRevoke(need int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.revokeLocked(need)
}

// Release returns n bytes from query's reservation.
func (p *NodePool) Release(query string, kind Kind, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.queries[query]
	if u == nil {
		return
	}
	if kind == User {
		u.user -= n
		if u.user < 0 {
			u.user = 0
		}
	} else {
		u.system -= n
		if u.system < 0 {
			u.system = 0
		}
	}
	if p.reservedOwner == query {
		p.reservedUsed -= n
		if p.reservedUsed < 0 {
			p.reservedUsed = 0
		}
	} else {
		p.generalUsed -= n
		if p.generalUsed < 0 {
			p.generalUsed = 0
		}
	}
	p.cond.Broadcast()
}

// ReleaseQuery drops all accounting for a finished query, including a
// reserved-pool promotion it may hold (even when it never reserved bytes).
func (p *NodePool) ReleaseQuery(query string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u, ok := p.queries[query]; ok {
		total := u.user + u.system
		if p.reservedOwner == query {
			p.reservedUsed -= total
			if p.reservedUsed < 0 {
				p.reservedUsed = 0
			}
		} else {
			p.generalUsed -= total
			if p.generalUsed < 0 {
				p.generalUsed = 0
			}
		}
		delete(p.queries, query)
	}
	if p.reservedOwner == query {
		p.reservedOwner = ""
	}
	delete(p.revocables, query)
	p.cond.Broadcast()
}

// PromoteToReserved moves a query's existing reservation on this node into
// the reserved pool (called by the cluster arbiter; only one query may be
// promoted cluster-wide, §IV-F2). Returns false if another query owns the
// reserved pool.
func (p *NodePool) PromoteToReserved(query string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reservedOwner != "" && p.reservedOwner != query {
		return false
	}
	if p.reservedOwner == query {
		return true
	}
	u := p.queries[query]
	var total int64
	if u != nil {
		total = u.user + u.system
	}
	p.reservedOwner = query
	p.generalUsed -= total
	if p.generalUsed < 0 {
		p.generalUsed = 0
	}
	p.reservedUsed += total
	p.cond.Broadcast()
	return true
}

// ReservedOwner returns the query promoted on this node ("" if none).
func (p *NodePool) ReservedOwner() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reservedOwner
}
