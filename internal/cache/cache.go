// Package cache implements the engine's metadata cache (paper §II use case
// C, §IV-G; Wang et al. 2022, "Metadata Caching in Presto"): MetaCache
// (meta.go), a TTL map used by the coordinator to memoize split enumeration
// and table metadata, and by the hive connector for decoded file footers.
// There is one freshness rule: an entry's key names the version of what it
// describes, as its source reports it, so a change is a miss and nothing
// invalidates an entry on write.
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
