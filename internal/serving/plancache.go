package serving

import (
	"strings"
	"sync"
	"time"

	"repro/internal/plan"
)

// PlanEntry is one cached planning outcome: the optimized logical plan and
// its fragmentation, plus everything needed to validate the entry and to key
// the result cache without re-walking the plan.
type PlanEntry struct {
	Logical     plan.Node
	Distributed *plan.DistributedPlan
	// Tables lists the (catalog, table) pairs the plan reads, aligned with
	// Versions: the connector versions observed at planning time. A mismatch
	// at hit time means the data changed under the plan — replan (statistics
	// and pushdown pruning may both differ).
	Tables   [][2]string
	Versions []int64
	// ResultBase fingerprints the plan text + output schema — the
	// version-independent part of the result-cache key.
	ResultBase uint64
	// ResultOK marks plans whose final results may be cached: read-only,
	// deterministic, and every referenced table comes from a versioned
	// connector (so staleness is detectable).
	ResultOK bool
}

// PlanCacheConfig sizes a PlanCache.
type PlanCacheConfig struct {
	// MaxEntries bounds cached plans (default 512).
	MaxEntries int
	// TTL expires entries even without invalidation (default 5m; negative
	// disables expiry).
	TTL time.Duration
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// PlanCacheStats are the cache's counters.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Expirations   int64
	Invalidations int64
	Entries       int
}

// PlanCache is the expirable-LRU parse→plan cache. A hit hands back the
// previously optimized plan so a repeat statement skips the parser, analyzer
// and optimizer entirely; the coordinator still validates the tables'
// versions against the entry before trusting it.
type PlanCache struct {
	mu      sync.Mutex
	lru     *lruCore
	byTable map[string]map[string]struct{} // "catalog.table" → keys reading it
	stats   PlanCacheStats
}

// NewPlanCache creates a plan cache.
func NewPlanCache(cfg PlanCacheConfig) *PlanCache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 512
	}
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = 5 * time.Minute
	} else if ttl < 0 {
		ttl = 0
	}
	c := &PlanCache{byTable: map[string]map[string]struct{}{}}
	c.lru = newLRUCore(cfg.MaxEntries, 0, ttl, cfg.Clock, func(key string, val interface{}, _ int64) {
		c.unindex(key, val.(*PlanEntry))
	})
	return c
}

// PlanKey builds the cache key: normalized SQL, the catalog that resolves
// unqualified names, and the session flags that change planning output.
func PlanKey(sql, catalog, flags string) string {
	return NormalizeSQL(sql) + "\x00" + catalog + "\x00" + flags
}

// Get returns a cached entry. Version/generation validation is the caller's
// job (it owns the catalog manager); call Remove on a stale hit.
func (c *PlanCache) Get(key string) (*PlanEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok, expired := c.lru.get(key)
	if !ok {
		c.stats.Misses++
		if expired {
			c.stats.Expirations++
		}
		return nil, false
	}
	c.stats.Hits++
	return v.(*PlanEntry), true
}

// Put stores an entry, indexing it by every table it reads for invalidation.
func (c *PlanCache) Put(key string, e *PlanEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lru.put(key, e, 1) {
		return
	}
	for _, t := range e.Tables {
		tk := t[0] + "." + t[1]
		if c.byTable[tk] == nil {
			c.byTable[tk] = map[string]struct{}{}
		}
		c.byTable[tk][key] = struct{}{}
	}
}

// Remove drops a single entry (stale hit).
func (c *PlanCache) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.remove(key)
}

// InvalidateTable drops every plan that reads the table; returns the number
// dropped. Called from the coordinator's write hook (DDL and write plans).
func (c *PlanCache) InvalidateTable(catalog, table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	tk := catalog + "." + table
	keys := c.byTable[tk]
	n := 0
	for key := range keys {
		if c.lru.remove(key) {
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Clear empties the cache.
func (c *PlanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.clear()
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.len()
	return s
}

// unindex removes an evicted entry's reverse-index references. Called from
// the LRU eviction callback with c.mu already held.
func (c *PlanCache) unindex(key string, e *PlanEntry) {
	for _, t := range e.Tables {
		tk := t[0] + "." + t[1]
		if m := c.byTable[tk]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(c.byTable, tk)
			}
		}
	}
}

// NormalizeSQL canonicalizes a statement for cache keying: whitespace runs
// collapse to one space and letters fold to lower case — except inside
// single-quoted string literals, which pass through byte-for-byte (including
// the ” escape). "SELECT  X" and "select x" share an entry; "WHERE s = 'A'"
// and "WHERE s = 'a'" do not.
func NormalizeSQL(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(s) && s[i+1] == '\'' {
					b.WriteByte('\'')
					i++
					continue
				}
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
		case '\'':
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			inStr = true
			b.WriteByte(c)
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}
