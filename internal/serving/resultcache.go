package serving

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/faultinject"
)

// ResultPoolOwner is the pseudo-query the result cache reserves node memory
// under (system memory, non-spillable).
const ResultPoolOwner = "@resultcache"

// ResultBase fingerprints the version-independent identity of a query's
// result: the formatted optimized plan (which covers tables, constraints,
// projections, join shapes, limits — everything execution derives from) plus
// the output column names. Combined with the table versions by ResultKey.
func ResultBase(planText string, columns []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(planText))
	h.Write([]byte{0})
	h.Write([]byte(strings.Join(columns, "\x00")))
	return h.Sum64()
}

// ResultKey combines a plan fingerprint with the referenced tables' connector
// versions, so any write
// moves repeat queries to a fresh key and the stale entry ages out.
func ResultKey(base uint64, tables [][2]string, versions []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%016x", base)
	for i, t := range tables {
		fmt.Fprintf(&b, "|%s.%s@%d", t[0], t[1], versions[i])
	}
	return b.String()
}

// ResultEntry is one cached final result set.
type ResultEntry struct {
	Columns []string
	Pages   []*block.Page
	Rows    int64
	size    int64
	sum     uint64
	tables  [][2]string
}

// ResultCacheConfig sizes a ResultCache.
type ResultCacheConfig struct {
	// MaxBytes bounds total cached result bytes (default 16 MiB).
	MaxBytes int64
	// MaxEntryBytes bounds one result set (default MaxBytes/8): the cache
	// targets the many-small-repeated-queries workload, not bulk exports.
	MaxEntryBytes int64
	// TTL expires entries even without invalidation (default 5m; negative
	// disables expiry).
	TTL time.Duration
	// Accountant, when non-nil, mirrors admitted/evicted bytes into the node
	// memory pool under ResultPoolOwner.
	Accountant Accountant
	// Inject enables the SiteResultCacheCorrupt fault seam: a fault makes the
	// next hit's checksum verification fail, degrading it to a miss.
	Inject *faultinject.Injector
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// ResultCacheStats are the cache's counters.
type ResultCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Corruptions   int64
	Rejected      int64 // results too large (or unreservable) to admit
	Entries       int
	Bytes         int64
}

// ResultCache is the versioned result cache: small final result sets served
// without admission, planning, or execution. Every hit re-verifies the
// entry's structural checksum (checksumPages: counts, sizes and each page's
// first and last row) so corruption degrades to a miss.
type ResultCache struct {
	mu      sync.Mutex
	cfg     ResultCacheConfig
	lru     *lruCore
	byTable map[string]map[string]struct{}
	stats   ResultCacheStats
}

// NewResultCache creates a result cache.
func NewResultCache(cfg ResultCacheConfig) *ResultCache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 16 << 20
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = cfg.MaxBytes / 8
	}
	if cfg.TTL == 0 {
		cfg.TTL = 5 * time.Minute
	} else if cfg.TTL < 0 {
		cfg.TTL = 0
	}
	c := &ResultCache{cfg: cfg, byTable: map[string]map[string]struct{}{}}
	c.lru = newLRUCore(0, cfg.MaxBytes, cfg.TTL, cfg.Clock, func(key string, val interface{}, size int64) {
		c.unindex(key, val.(*ResultEntry))
		if cfg.Accountant != nil {
			cfg.Accountant.Release(size)
		}
	})
	return c
}

// Get returns a verified entry, or misses. A checksum mismatch (real
// corruption or an injected SiteResultCacheCorrupt fault) drops the entry
// and reports a miss — the query re-executes and may re-admit a good copy.
func (c *ResultCache) Get(key string) (*ResultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok, _ := c.lru.get(key)
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := v.(*ResultEntry)
	sum := checksumPages(e.Pages)
	if c.cfg.Inject.Err(faultinject.SiteResultCacheCorrupt) != nil {
		sum = ^sum
	}
	if sum != e.sum {
		c.lru.remove(key)
		c.stats.Corruptions++
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return e, true
}

// Put admits a result set, charging its bytes to the accountant. Oversized
// or unreservable results are rejected, never partially admitted.
func (c *ResultCache) Put(key string, columns []string, pages []*block.Page, rows int64, tables [][2]string) bool {
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
		Columns: columns,
		Pages:   pages,
		Rows:    rows,
		size:    size,
		sum:     checksumPages(pages),
		tables:  tables,
	}
	if !c.lru.put(key, e, size) {
		if c.cfg.Accountant != nil {
			c.cfg.Accountant.Release(size)
		}
		c.stats.Rejected++
		return false
	}
	for _, t := range tables {
		tk := t[0] + "." + t[1]
		if c.byTable[tk] == nil {
			c.byTable[tk] = map[string]struct{}{}
		}
		c.byTable[tk][key] = struct{}{}
	}
	return true
}

// InvalidateTable drops every result derived from the table; returns the
// number dropped. Version-keyed misses already keep repeat queries fresh —
// this hook additionally frees the dead entries' memory immediately and
// covers any connector without version counters.
func (c *ResultCache) InvalidateTable(catalog, table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byTable[catalog+"."+table]
	n := 0
	for key := range keys {
		if c.lru.remove(key) {
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Clear empties the cache, releasing accounted bytes.
func (c *ResultCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.clear()
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.len()
	s.Bytes = c.lru.bytes
	return s
}

func (c *ResultCache) unindex(key string, e *ResultEntry) {
	for _, t := range e.tables {
		tk := t[0] + "." + t[1]
		if m := c.byTable[tk]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(c.byTable, tk)
			}
		}
	}
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
	c      *ResultCache
	key    string
	tables [][2]string

	mu    sync.Mutex
	pages []*block.Page
	size  int64
	rows  int64
	dead  bool
}

// NewCapture starts a capture destined for key.
func (c *ResultCache) NewCapture(key string, tables [][2]string) *Capture {
	return &Capture{c: c, key: key, tables: tables}
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

// Commit admits the captured result after a clean drain.
func (cp *Capture) Commit(columns []string) bool {
	cp.mu.Lock()
	dead, pages, rows := cp.dead, cp.pages, cp.rows
	cp.dead = true
	cp.pages = nil
	cp.mu.Unlock()
	if dead {
		return false
	}
	return cp.c.Put(cp.key, columns, pages, rows, cp.tables)
}

// Abandon discards the capture (failed or cancelled result).
func (cp *Capture) Abandon() {
	cp.mu.Lock()
	cp.dead = true
	cp.pages = nil
	cp.mu.Unlock()
}
