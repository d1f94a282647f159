package serving

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/wire"
)

// PlanEntry is one cached planning outcome: the optimized logical plan and
// its fragmentation, plus everything needed to validate the entry and to key
// the result cache without re-walking the plan.
type PlanEntry struct {
	Logical     plan.Node
	Distributed *plan.DistributedPlan
	// Template marks a plan stored under its Template.Key: its lifted
	// literals are slot-tagged, and a hit runs it with the statement's own,
	// which its tasks read as parameters and its scans' constraints are bound
	// to. A plan that consumed a literal's value is stored under the
	// Template.LiteralKey instead, and serves only the same literals; Values
	// are the literals it was planned with.
	Template bool
	Values   []types.Value
	// Tables lists the (catalog, table) pairs the plan reads; Schemas and
	// Rows are aligned with it. Schemas are the versions read when the
	// analyzer resolved each table, before the metadata the plan was made
	// from, so a DDL statement that ran while the plan was being made fails
	// its first lookup. The plan stays valid while each table's schema version
	// is the same and its row count within RowDrift of Rows (statistics chose
	// the join order).
	Tables  [][2]string
	Schemas []int64
	Rows    []int64
	// Pushdown records, for each scan with a constraint (in plan.Walk
	// order), the columns its connector enforced. A hit re-runs the
	// pushdown on the bound constraint and replans if the answer differs.
	Pushdown [][]string
	// forms are the distributed plan's fragments in wire form (Forms).
	formsOnce sync.Once
	forms     []wire.Form
	// Coercions are the types the fragments hold each lifted literal at: a
	// hit whose literal does not coerce to one is planned afresh.
	Coercions []plan.SlotType
	// ResultBase fingerprints the template key + output schema — the part of
	// the result-cache key that the statement's literals do not change.
	ResultBase uint64
	// ResultOK marks plans whose final results may be cached: read-only and
	// deterministic (every connector versions its tables, so staleness is
	// always detectable).
	ResultOK bool
}

// Forms returns the distributed plan's fragments in wire form, by fragment
// id, which encode makes on the first call — the entry's first hit: a plan
// that never runs again is never encoded. Every statement the entry runs
// after that sends them, and a worker keys its compiled form of a fragment by
// the digest. nil: the fragments did not encode, and each task compiles its
// own.
func (e *PlanEntry) Forms(encode func(*plan.DistributedPlan) []wire.Form) []wire.Form {
	e.formsOnce.Do(func() { e.forms = encode(e.Distributed) })
	return e.forms
}

// SameValues reports whether a and b are the same literals, type and value.
func SameValues(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// RowDrift is how far, as a factor either way, a table's row count may move
// from the count a cached plan was made with before the plan is made again:
// the join order and distribution statistics chose may no longer fit.
const RowDrift = 4

// RowsWithin reports whether a table of now rows is within RowDrift of one
// planned at then rows (a negative count is unknown, and matches only
// unknown).
func RowsWithin(then, now int64) bool {
	if then < 0 || now < 0 {
		return (then < 0) == (now < 0)
	}
	return max(now, 1) <= RowDrift*max(then, 1) && max(then, 1) <= RowDrift*max(now, 1)
}

// PlanCacheConfig sizes a PlanCache.
type PlanCacheConfig struct {
	// MaxEntries bounds cached plans (default 512).
	MaxEntries int
}

// PlanCacheStats are the cache's counters. Invalidations counts entries a
// lookup dropped because their tables changed under them.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Entries       int
}

// PlanCache is the parse→plan cache, an LRU of plans. A hit hands back the
// previously optimized plan so a statement with the same template skips the
// parser, analyzer and optimizer entirely; Lookup has the caller validate
// the entry against its tables before trusting it.
type PlanCache struct {
	mu    sync.Mutex
	lru   *cache.LRU[string, *PlanEntry]
	stats PlanCacheStats
}

// NewPlanCache creates a plan cache.
func NewPlanCache(cfg PlanCacheConfig) *PlanCache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 512
	}
	return &PlanCache{lru: cache.NewLRU[string, *PlanEntry](cfg.MaxEntries, 0, nil)}
}

// Lookup returns the entry for a statement's template: the template plan, or
// failing that a plan stored under the statement's literal key. An entry
// valid rejects (its tables changed under it) is dropped and counted as an
// invalidation; valid runs outside the cache's lock. Lookup counts one hit
// or miss.
func (c *PlanCache) Lookup(t *Template, valid func(*PlanEntry) bool) (*PlanEntry, bool) {
	c.mu.Lock()
	key := t.Key
	e, ok := c.lru.Get(key)
	if !ok && len(t.Values) > 0 {
		key = t.LiteralKey()
		e, ok = c.lru.Get(key)
	}
	c.mu.Unlock()
	stale := ok && !valid(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if stale {
		if cur, held := c.lru.Peek(key); held && cur == e {
			c.lru.Remove(key)
			c.stats.Invalidations++
		}
		e, ok = nil, false
	}
	c.count(ok)
	return e, ok
}

func (c *PlanCache) count(hit bool) {
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
}

// Put stores an entry under key. Nothing removes it when a table it reads
// changes: its first lookup after the change drops it.
func (c *PlanCache) Put(key string, e *PlanEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, e, 1)
}

// Clear empties the cache.
func (c *PlanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Clear()
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}
