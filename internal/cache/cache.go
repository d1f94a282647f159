// Package cache holds the engine's one cache type, LRU: a count- and
// byte-bounded least-recently-used map that its owner locks. The plan and
// result caches (internal/serving), hive's file-footer cache (paper §II use
// case C, §IV-G; Wang et al. 2022, "Metadata Caching in Presto") and a
// worker's compiled fragments (internal/exec) are each one LRU under their
// owner's lock, with their owner's counters. The coordinator keeps no
// metadata cache: a scan's splits come from its connector.
//
// There is one freshness rule: an entry's key or stamp names the version of
// what it holds, as its source reports it, so a change is a miss and nothing
// invalidates an entry on write, or expires it on a clock.
//
// Workers keep no data cache: every split is read from its connector.
package cache

// Stats is the counter set of the worker page cache the engine no longer
// keeps.
//
// Deprecated: nothing fills it; exec.(*Worker).CacheStats returns zero.
// It stays only because the benchmark module names it.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// MetaStats snapshots the counters of a metadata cache (hive's footers).
type MetaStats struct {
	Hits    int64
	Misses  int64
	Entries int
}
