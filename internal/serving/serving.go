// Package serving implements the high-QPS serving tier: the layers that make
// many small *repeated* queries cheap, as opposed to making one big query
// fast (paper §II use case A — "heavy traffic from millions of users").
//
// Two layers, composed front to back:
//
//   - PlanCache (plancache.go): an LRU over parse→analyze→optimize
//     output. Its key (plankey.go) is the statement's template: its tokens
//     with the literals of value positions lifted into typed slots, plus the
//     catalog default and the query's planning switches
//     (exec.Switches.Planning: dynamic filters). A hit on a template skips
//     the parser, analyzer and optimizer; the coordinator binds the
//     statement's literals into a copy of the plan. Its size (512 plans) is
//     this package's default. A plan stays valid while each
//     table it reads keeps the schema version it was resolved at and stays
//     within RowDrift of the row count it was planned at: a data write does
//     not replan.
//
//   - ResultCache (resultcache.go): a byte-bounded LRU over small final
//     result sets, keyed by the template key and the lifted literals. An
//     entry carries the data version of each table it read and the bound
//     domain of each scan; it holds while those versions are the same, or
//     moved only by appends that no scan's domain admits
//     (connector.AppendLog), and is then re-stamped at the new versions.
//     Entries are charged to the node memory pool as
//     system memory under ResultPoolOwner and verified by structural checksum
//     on every hit (corruption degrades to a miss). Its budget (16 MiB, an
//     eighth of it per entry) is this package's default.
//
// Both are a cache.LRU under the cache's own lock, and follow one freshness
// rule, hive's footer cache's too (internal/cache): every connector versions
// its tables (connector.Connector.TableVersion, SchemaVersion), each entry
// holds the versions it read, and a lookup checks them. A change — through
// the engine or outside it, data or DDL — fails that check and the lookup
// drops the entry; nothing invalidates entries on write, and nothing expires
// them on a clock: an entry leaves when its lookup finds it stale or the
// bound evicts it.
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
