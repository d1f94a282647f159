package cache

import (
	"sync"
	"time"
)

// Clock supplies nanosecond timestamps. Injectable so TTL expiry is testable
// without wall-clock sleeps.
type Clock func() int64

// maxMetaEntries bounds the map: metadata entries are tiny, but an unbounded
// cache of version-keyed entries would grow forever on a churning warehouse.
const maxMetaEntries = 4096

// MetaCache memoizes metadata lookups (decoded file footers) with a TTL bound
// on staleness. Nothing invalidates an
// entry: its key names the version of what it describes — a table's schema
// or data version (connector.Connector), a file's mtime and size — so a
// change, made through the engine or outside it, is a miss, and the entries
// of versions no longer read age out.
type MetaCache struct {
	ttl   time.Duration
	clock Clock

	mu      sync.Mutex
	entries map[string]metaEntry

	hits   int64
	misses int64
}

type metaEntry struct {
	value    interface{}
	storedAt int64
}

// MetaStats snapshots the metadata-cache counters.
type MetaStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// NewMetaCache creates a metadata cache. A nil clock uses wall time.
func NewMetaCache(ttl time.Duration, clock Clock) *MetaCache {
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	return &MetaCache{ttl: ttl, clock: clock, entries: make(map[string]metaEntry)}
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
		delete(m.entries, key)
		m.misses++
		return nil, false
	}
	m.hits++
	return e.value, true
}

// Put stores value under key, stamped with the current clock.
func (m *MetaCache) Put(key string, value interface{}) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; !ok && len(m.entries) >= maxMetaEntries {
		m.pruneLocked()
	}
	m.entries[key] = metaEntry{value: value, storedAt: m.clock()}
}

// pruneLocked drops expired entries; if everything is live it drops
// arbitrary entries until the map is half empty (metadata re-derives
// cheaply, so approximate eviction is fine).
func (m *MetaCache) pruneLocked() {
	now := m.clock()
	for k, e := range m.entries {
		if m.ttl > 0 && now-e.storedAt > int64(m.ttl) {
			delete(m.entries, k)
		}
	}
	for k := range m.entries {
		if len(m.entries) <= maxMetaEntries/2 {
			break
		}
		delete(m.entries, k)
	}
}

// Stats snapshots the counters.
func (m *MetaCache) Stats() MetaStats {
	if m == nil {
		return MetaStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetaStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}
