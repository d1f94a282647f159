package exec

import "strings"

// Switches is a query's set of per-query switches. Each member turns a
// shipped default off, or (MaterializedExchange) a non-default mode on, so
// the zero value is the shipped defaults. The coordinator unions a cluster's
// set with a session's once, when it admits a statement; that union plans
// the statement and reaches every task of it inside TaskConfig.
type Switches uint16

// The members, in the order of SwitchHeaders.
const (
	DisableCache          Switches = 1 << iota // bypass the page and split caches
	DisableVectorKernels                       // run filters on the interpreter, not the selection kernels
	DisableMorsels                             // static split-per-driver scans instead of the morsel queue
	DisableDynamicFilters                      // plan no dynamic join filters
	DisableHBO                                 // plan without recorded cardinalities and record none
	DisablePlanCache                           // plan from scratch and store no plan
	DisableResultCache                         // neither serve nor capture a cached result
	DisableSharedScans                         // keep leaf scans out of the workers' shared-scan hubs
	DisableSpill                               // fail with the exceeded-limit error instead of spilling (§IV-F2)
	// MaterializedExchange routes shuffles through disk-backed sealed
	// segments, so the scheduler can re-place only the tasks a dead worker
	// lost (§IV-D). It plans no dynamic filters: a re-placed build task would
	// publish a second time into a filter hub sized for the first.
	MaterializedExchange
)

// SwitchHeaders is the switches' one name table: the HTTP header that sets
// member 1<<i is SwitchHeaders[i], and String uses the same words.
var SwitchHeaders = [...]string{
	"X-Presto-Disable-Cache",
	"X-Presto-Disable-Vector-Kernels",
	"X-Presto-Disable-Morsels",
	"X-Presto-Disable-Dynamic-Filters",
	"X-Presto-Disable-HBO",
	"X-Presto-Disable-Plan-Cache",
	"X-Presto-Disable-Result-Cache",
	"X-Presto-Disable-Shared-Scans",
	"X-Presto-Disable-Spill",
	"X-Presto-Materialized-Exchange",
}

// Has reports whether s holds any member of m.
func (s Switches) Has(m Switches) bool { return s&m != 0 }

// Planning is the part of s that changes what the optimizer produces: what a
// cached plan is keyed on.
func (s Switches) Planning() Switches {
	return s & (DisableDynamicFilters | DisableHBO | MaterializedExchange)
}

// String names the members by their headers without the prefix, lower-case
// and comma-separated ("disable-spill,materialized-exchange"); the zero set
// is "defaults".
func (s Switches) String() string {
	if s == 0 {
		return "defaults"
	}
	var names []string
	for i, h := range SwitchHeaders {
		if s.Has(1 << i) {
			names = append(names, strings.ToLower(strings.TrimPrefix(h, "X-Presto-")))
		}
	}
	return strings.Join(names, ",")
}
