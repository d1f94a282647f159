// Package serving implements the high-QPS serving tier: the layers that make
// many small *repeated* queries cheap, as opposed to making one big query
// fast (paper §II use case A — "heavy traffic from millions of users").
//
// Two layers, composed front to back:
//
//   - PlanCache (plancache.go): an expirable LRU over parse→analyze→optimize
//     output, keyed by normalized SQL + the catalog default + the query's
//     planning switches (exec.Switches.Planning: dynamic filters).
//     Its size (512 plans) and expiry (5m) are this package's defaults. A
//     hit skips the parser, analyzer and optimizer entirely; validity is
//     checked against the referenced tables' connector versions, so a
//     write forces a replan.
//
//   - ResultCache (resultcache.go): a byte-bounded LRU over small final
//     result sets, keyed by a fingerprint of the optimized plan text plus the
//     connector version keys. Entries are charged to the node memory pool as
//     system memory under ResultPoolOwner, verified by structural checksum on
//     every hit (corruption degrades to a miss), and invalidated by the same
//     write hooks that invalidate the metadata/split caches. Its budget
//     (16 MiB, an eighth of it per entry) and expiry (5m) are this package's
//     defaults.
//
// The coordinator owns a Tier (plan + result caches). Each layer has a switch
// (exec.DisablePlanCache / DisableResultCache) that a cluster sets for all
// its queries and a session — or its X-Presto-Disable-* header — for one, so
// A/B ablations run side by side in one cluster.
package serving

// Tier bundles the coordinator-side serving caches. Either field may be nil
// (that layer disabled).
type Tier struct {
	Plans   *PlanCache
	Results *ResultCache
}

// InvalidateTable drops every cached plan and result that reads the table.
// Wired into the coordinator's write-invalidation hook, next to the
// metadata/split cache invalidation.
func (t *Tier) InvalidateTable(catalog, table string) {
	if t == nil {
		return
	}
	if t.Plans != nil {
		t.Plans.InvalidateTable(catalog, table)
	}
	if t.Results != nil {
		t.Results.InvalidateTable(catalog, table)
	}
}

// Clear empties both caches (cold-start for benchmarks and A/B runs).
func (t *Tier) Clear() {
	if t == nil {
		return
	}
	if t.Plans != nil {
		t.Plans.Clear()
	}
	if t.Results != nil {
		t.Results.Clear()
	}
}

// TierStats snapshots both caches.
type TierStats struct {
	Plan   PlanCacheStats
	Result ResultCacheStats
}

// Stats snapshots both caches (zero value when the tier or a layer is nil).
func (t *Tier) Stats() TierStats {
	var s TierStats
	if t == nil {
		return s
	}
	if t.Plans != nil {
		s.Plan = t.Plans.Stats()
	}
	if t.Results != nil {
		s.Result = t.Results.Stats()
	}
	return s
}
