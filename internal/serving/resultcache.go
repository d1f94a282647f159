package serving

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/types"
)

// ResultPoolOwner is the pseudo-query the result cache reserves node memory
// under (system memory, non-spillable).
const ResultPoolOwner = "@resultcache"

// ResultBase fingerprints the identity of a query's result but for its
// lifted literals: the statement's template key (its tokens, catalog and
// planning flags) plus the output column names. Combined with the literals by
// ResultKey. (The plan's EXPLAIN text would not do: it names columns and
// hides slots, so two plans can print alike and compute different rows.)
func ResultBase(templateKey string, columns []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(templateKey))
	h.Write([]byte{0})
	h.Write([]byte(strings.Join(columns, "\x00")))
	return h.Sum64()
}

// ResultKey combines a plan fingerprint and the literals bound into it (none
// for a plan that is not a template). The data it was read from is not in the
// key: each entry carries the versions it holds at (ResultCache.Get).
func ResultKey(base uint64, values []types.Value) string {
	return string(appendValues(strconv.AppendUint(nil, base, 16), values))
}

// TableRead is what a cached result read of one table: the constraint of
// each scan of it, bound to the statement's literals (an unconstrained scan
// has an All domain). Rows that no scan's domain admits cannot have changed
// the result.
type TableRead struct {
	Catalog, Table string
	Scans          []*plan.Domain
}

// Freshness decides whether a cached result still holds: given what it read
// and the table versions it is stamped at (aligned with reads), it returns
// the versions it holds at — stamp itself when no table moved — or false.
type Freshness func(reads []TableRead, stamp []int64) ([]int64, bool)

// ResultEntry is one cached final result set.
type ResultEntry struct {
	Columns []string
	Pages   []*block.Page
	Rows    int64
	size    int64
	sum     uint64
	reads   []TableRead
	// versions is the stamp, aligned with reads; a re-stamp replaces the
	// slice (under the cache's lock), never writes into it.
	versions []int64
}

// ResultCacheConfig sizes a ResultCache.
type ResultCacheConfig struct {
	// MaxBytes bounds total cached result bytes (default 16 MiB).
	MaxBytes int64
	// MaxEntryBytes bounds one result set (default MaxBytes/8): the cache
	// targets the many-small-repeated-queries workload, not bulk exports.
	MaxEntryBytes int64
	// Accountant, when non-nil, mirrors admitted/evicted bytes into the node
	// memory pool under ResultPoolOwner.
	Accountant Accountant
	// Inject enables the SiteResultCacheCorrupt fault seam: a fault makes the
	// next hit's checksum verification fail, degrading it to a miss.
	Inject *faultinject.Injector
}

// ResultCacheStats are the cache's counters.
type ResultCacheStats struct {
	Hits   int64
	Misses int64
	// Invalidations counts entries a lookup dropped because a table they read
	// changed; Restamps counts hits on entries whose tables moved only by
	// appends none of their scans read.
	Invalidations int64
	Restamps      int64
	Corruptions   int64
	Rejected      int64 // results too large (or unreservable) to admit
	// Skipped counts read statements the cache was on for and cannot hold:
	// their plan calls a nondeterministic function. Such a statement executes
	// every time, and is neither a hit nor a miss.
	Skipped int64
	Entries int
	Bytes   int64
}

// ResultCache is the versioned result cache: small final result sets served
// without admission, planning, or execution. Every hit re-checks that the
// entry still holds (its Freshness) and re-verifies its structural checksum
// (checksumPages: counts, sizes and each page's first and last row), so a
// stale or corrupt entry degrades to a miss.
type ResultCache struct {
	mu    sync.Mutex
	cfg   ResultCacheConfig
	lru   *cache.LRU[string, *ResultEntry]
	stats ResultCacheStats
}

// NewResultCache creates a result cache.
func NewResultCache(cfg ResultCacheConfig) *ResultCache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 16 << 20
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = cfg.MaxBytes / 8
	}
	c := &ResultCache{cfg: cfg}
	c.lru = cache.NewLRU(0, cfg.MaxBytes, func(_ string, _ *ResultEntry, size int64) {
		if cfg.Accountant != nil {
			cfg.Accountant.Release(size)
		}
	})
	return c
}

// Get returns the entry under key when fresh says it still holds, re-stamped
// at the versions fresh returns, and verified. An entry fresh rejects is
// dropped and counted as an invalidation; fresh runs outside the cache's
// lock. A checksum mismatch (real corruption or an injected
// SiteResultCacheCorrupt fault) drops the entry too. Either way Get misses,
// and the query executes and may admit a good copy.
func (c *ResultCache) Get(key string, fresh Freshness) (*ResultEntry, bool) {
	c.mu.Lock()
	e, ok := c.lru.Get(key)
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	stamp := e.versions
	c.mu.Unlock()
	now, ok := fresh(e.reads, stamp)
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, in := c.lru.Peek(key)
	held := in && cur == e // not replaced or dropped meanwhile
	if !ok {
		if held {
			c.lru.Remove(key)
			c.stats.Invalidations++
		}
		c.stats.Misses++
		return nil, false
	}
	sum := checksumPages(e.Pages)
	if c.cfg.Inject.Err(faultinject.SiteResultCacheCorrupt) != nil {
		sum = ^sum
	}
	if sum != e.sum {
		if held {
			c.lru.Remove(key)
		}
		c.stats.Corruptions++
		c.stats.Misses++
		return nil, false
	}
	if !slices.Equal(now, stamp) {
		c.stats.Restamps++
		if &e.versions[0] == &stamp[0] { // unless another lookup re-stamped it meanwhile
			e.versions = now
		}
	}
	c.stats.Hits++
	return e, true
}

// Skip counts one statement the cache cannot hold (ResultCacheStats.Skipped).
func (c *ResultCache) Skip() {
	c.mu.Lock()
	c.stats.Skipped++
	c.mu.Unlock()
}

// Put admits a result set read at versions (aligned with reads), charging its
// bytes to the accountant. Oversized or unreservable results are rejected,
// never partially admitted.
func (c *ResultCache) Put(key string, columns []string, pages []*block.Page, rows int64, reads []TableRead, versions []int64) bool {
	size := pagesSize(pages)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.cfg.MaxEntryBytes {
		c.stats.Rejected++
		return false
	}
	if c.cfg.Accountant != nil {
		if err := c.cfg.Accountant.Reserve(size); err != nil {
			c.stats.Rejected++
			return false
		}
	}
	e := &ResultEntry{
		Columns:  columns,
		Pages:    pages,
		Rows:     rows,
		size:     size,
		sum:      checksumPages(pages),
		reads:    reads,
		versions: versions,
	}
	if !c.lru.Put(key, e, size) {
		if c.cfg.Accountant != nil {
			c.cfg.Accountant.Release(size)
		}
		c.stats.Rejected++
		return false
	}
	return true
}

// Clear empties the cache, releasing accounted bytes.
func (c *ResultCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Clear()
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.lru.Bytes()
	return s
}

// MaxEntryBytes reports the per-result admission bound (captures stop
// buffering past it).
func (c *ResultCache) MaxEntryBytes() int64 { return c.cfg.MaxEntryBytes }

func pagesSize(pages []*block.Page) int64 {
	var n int64
	for _, p := range pages {
		n += p.SizeBytes()
	}
	return n
}

// Capture accumulates a streaming result's pages as the client drains them,
// admitting the complete set into the cache only on a clean end of stream.
// A result that fails, is cancelled, or outgrows the entry bound is
// abandoned — the cache never holds partial results.
type Capture struct {
	c     *ResultCache
	key   string
	reads []TableRead

	mu    sync.Mutex
	pages []*block.Page
	size  int64
	rows  int64
	dead  bool
}

// NewCapture starts a capture destined for key, of a result that reads reads.
func (c *ResultCache) NewCapture(key string, reads []TableRead) *Capture {
	return &Capture{c: c, key: key, reads: reads}
}

// Observe records one streamed page. Called from the result's page path, so
// it only appends and counts; pages are immutable and shared, not copied.
func (cp *Capture) Observe(p *block.Page) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.dead {
		return
	}
	cp.size += p.SizeBytes()
	if cp.size > cp.c.MaxEntryBytes() {
		cp.dead = true
		cp.pages = nil
		return
	}
	cp.pages = append(cp.pages, p)
	cp.rows += int64(p.RowCount())
}

// Commit admits the captured result after a clean drain, stamped at the
// table versions it holds at.
func (cp *Capture) Commit(columns []string, versions []int64) bool {
	cp.mu.Lock()
	dead, pages, rows := cp.dead, cp.pages, cp.rows
	cp.dead = true
	cp.pages = nil
	cp.mu.Unlock()
	if dead {
		return false
	}
	return cp.c.Put(cp.key, columns, pages, rows, cp.reads, versions)
}

// Abandon discards the capture (failed or cancelled result).
func (cp *Capture) Abandon() {
	cp.mu.Lock()
	cp.dead = true
	cp.pages = nil
	cp.mu.Unlock()
}
