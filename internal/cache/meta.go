package cache

import (
	"sync"
	"time"
)

// Clock supplies nanosecond timestamps. Injectable so TTL expiry is testable
// without wall-clock sleeps.
type Clock func() int64

// maxMetaEntries bounds the map: metadata entries are tiny, but an unbounded
// cache of mtime-versioned keys would grow forever on a churning warehouse.
const maxMetaEntries = 4096

// MetaCache memoizes metadata lookups (split enumeration, table metadata,
// decoded file footers) with a TTL bound on staleness plus explicit
// invalidation by table on write. Every entry names, when it is stored, the
// table it describes; a write drops exactly that table's entries, visiting
// no other. TTL covers out-of-band changes the engine cannot observe (files
// rewritten under the hive directory); explicit invalidation covers writes
// the engine itself performs (INSERT, CREATE, DROP), which take effect
// immediately.
type MetaCache struct {
	ttl   time.Duration
	clock Clock

	mu      sync.Mutex
	entries map[string]metaEntry
	byTable map[string]map[string]struct{} // table → keys describing it

	hits          int64
	misses        int64
	invalidations int64
}

type metaEntry struct {
	value    interface{}
	storedAt int64
	table    string
}

// MetaStats snapshots the metadata-cache counters.
type MetaStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Entries       int
}

// NewMetaCache creates a metadata cache. A nil clock uses wall time.
func NewMetaCache(ttl time.Duration, clock Clock) *MetaCache {
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	return &MetaCache{ttl: ttl, clock: clock, entries: make(map[string]metaEntry),
		byTable: make(map[string]map[string]struct{})}
}

// Get returns the live value for key, expiring it if older than the TTL.
func (m *MetaCache) Get(key string) (interface{}, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		return nil, false
	}
	if m.ttl > 0 && m.clock()-e.storedAt > int64(m.ttl) {
		m.deleteLocked(key, e)
		m.misses++
		return nil, false
	}
	m.hits++
	return e.value, true
}

// Put stores value under key, stamped with the current clock, as a
// description of table: Invalidate(table) drops it.
func (m *MetaCache) Put(table, key string, value interface{}) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		m.deleteLocked(key, old)
	} else if len(m.entries) >= maxMetaEntries {
		m.pruneLocked()
	}
	m.entries[key] = metaEntry{value: value, storedAt: m.clock(), table: table}
	keys := m.byTable[table]
	if keys == nil {
		keys = make(map[string]struct{})
		m.byTable[table] = keys
	}
	keys[key] = struct{}{}
}

// deleteLocked removes one entry and its place in the table index.
func (m *MetaCache) deleteLocked(key string, e metaEntry) {
	delete(m.entries, key)
	keys := m.byTable[e.table]
	delete(keys, key)
	if len(keys) == 0 {
		delete(m.byTable, e.table)
	}
}

// pruneLocked drops expired entries; if everything is live it drops
// arbitrary entries until the map is half empty (metadata re-derives
// cheaply, so approximate eviction is fine).
func (m *MetaCache) pruneLocked() {
	now := m.clock()
	for k, e := range m.entries {
		if m.ttl > 0 && now-e.storedAt > int64(m.ttl) {
			m.deleteLocked(k, e)
		}
	}
	for k, e := range m.entries {
		if len(m.entries) <= maxMetaEntries/2 {
			break
		}
		m.deleteLocked(k, e)
	}
}

// Invalidate removes every entry stored for table, returning how many were
// dropped. Writers call this so their own writes are visible immediately
// rather than after a TTL expiry.
func (m *MetaCache) Invalidate(table string) int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := m.byTable[table]
	for k := range keys {
		delete(m.entries, k)
	}
	delete(m.byTable, table)
	m.invalidations += int64(len(keys))
	return len(keys)
}

// Stats snapshots the counters.
func (m *MetaCache) Stats() MetaStats {
	if m == nil {
		return MetaStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetaStats{Hits: m.hits, Misses: m.misses, Invalidations: m.invalidations, Entries: len(m.entries)}
}
