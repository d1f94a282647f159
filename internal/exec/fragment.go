package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/dynfilter"
	"repro/internal/memory"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// A fragment is compiled once per worker and instantiated once per task. The
// compiled form (CompiledFragment) is what every task of the fragment shares
// and nothing writes after compilation: the pipelines, their operator
// factories, each filter/project site's expr.Program and each join's key
// layout. A task (newTask) adds what is its own: the statement's literals as
// parameters, its join bridges, each pipeline's stats, morsel queue, exchange
// client and driver counters, and its scans' constraints bound to its
// literals. A template's statements differ only in their literals, so the
// tasks of all of them share one compiled fragment; a worker keeps the
// compiled fragments it ran last in an LRU (fragmentCache) keyed by the
// fragment's wire-form digest and the settings compilation reads.

// Digest identifies a fragment by its wire form: the SHA-256 of the bytes
// wire.MarshalFragment writes for it. The zero Digest names no fragment: its
// task compiles for itself.
type Digest [32]byte

// FragmentKey is what a worker keys a compiled fragment by: the fragment's
// digest and every setting compilation reads. The switches are read by the
// task, not by compilation, so they are not part of it.
type FragmentKey struct {
	Digest      Digest
	PageSize    int
	Interpreted bool
}

// CompiledFragment is a fragment compiled for any number of tasks, of any
// number of statements: see the comment at the top of this file. What it
// shares, and why no task writes it:
//   - pipes: each pipeline's source description, stats names and operator
//     factories. A factory reads what it captured at compilation and takes
//     everything per task or per driver from its driverCtx.
//   - each FilterProject and join residual's expr.Program: kernels, CSE
//     slots and constant-folding flags; a processor keeps its own scratch,
//     memos, dictionary cache and folded constants (expr.Program).
//   - joins: key columns and types, null awareness, whether the build may
//     spill, and the dynamic-filter specs its collector is made from; the
//     bridge and the collector are the task's.
//   - params: each parameter's slot and the literal the fragment was planned
//     with; a task's values are its own (Task.params).
//   - single: the fragment is a whole small statement (plan.Fragment.Single),
//     so each of its pipelines runs one driver.
type CompiledFragment struct {
	pipes  []*pipeTemplate
	joins  []*joinSpec
	params []paramSpec
	single bool
}

// joinSpec is what a task builds a hash join's bridge from.
type joinSpec struct {
	nullAware bool
	// spills: the build may move to disk when the task may spill; a cross
	// or keyless join cannot hash-partition, so it stays in memory.
	spills     bool
	buildKeys  []int
	buildKeyTs []types.Type
	// filters are the dynamic filters the build collects, published under
	// filterIDs (nil: none).
	filters   []dynfilter.ColumnSpec
	filterIDs []int
}

// paramSpec is one parameter of a compiled fragment: the plan-cache slot of
// the literal it stands for, and that literal as the fragment was planned
// with it, whose type is the parameter's.
type paramSpec struct {
	slot    int
	planned types.Value
}

// withDefaults fills the settings a task needs and the configuration leaves
// zero.
func (cfg TaskConfig) withDefaults() TaskConfig {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 1024
	}
	if cfg.TargetSplitConcurrency <= 0 {
		cfg.TargetSplitConcurrency = 4
	}
	if cfg.MaxWriters <= 0 {
		cfg.MaxWriters = 8
	}
	return cfg
}

// Compile compiles f for tasks configured as cfg.
func Compile(f *plan.Fragment, cfg TaskConfig) (*CompiledFragment, error) {
	cfg = cfg.withDefaults()
	c := &compiler{pageSize: cfg.PageSize, interpreted: cfg.Interpreted}
	if err := c.compileFragment(f); err != nil {
		return nil, err
	}
	return &CompiledFragment{pipes: c.pipelines, joins: c.joins, params: c.params, single: f.Single}, nil
}

// bind returns a task's parameters: vals, a statement's literals by slot,
// coerced to each parameter's type; with no vals, the literals the fragment
// was planned with.
func (cf *CompiledFragment) bind(vals []types.Value) ([]types.Value, error) {
	if len(cf.params) == 0 {
		return nil, nil
	}
	out := make([]types.Value, len(cf.params))
	for i, p := range cf.params {
		if len(vals) == 0 {
			out[i] = p.planned
			continue
		}
		if p.slot > len(vals) || vals[p.slot-1].Null {
			return nil, fmt.Errorf("no value for slot %d", p.slot)
		}
		v, err := vals[p.slot-1].Coerce(p.planned.T)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// newBridge builds a task's bridge for join js.
func (t *Task) newBridge(js *joinSpec) *operators.JoinBridge {
	bridge := operators.NewJoinBridge()
	if js.nullAware {
		bridge.SetNullAware()
	}
	// Arm the bridge for build-side spill: when the memory manager revokes
	// it, the build table moves to a partitioned spill file and the probe
	// side re-joins it partition by partition from disk (§IV-F2).
	if t.cfg.SpillEnabled && js.spills {
		mem := memory.NewLocalContext(t.queryMem, t.nodeID, memory.User)
		bridge.EnableSpill(mem, t.cfg.SpillDir, js.buildKeys, js.buildKeyTs)
		t.registerRevocable(bridge)
		t.registerCleanup(bridge.ReleaseSpill)
	}
	// Dynamic-filter collection: the bridge folds build key columns into
	// per-filter summaries and installs them once the table is built. A
	// summary no scan of the fragment row-tests is collected for pruning
	// only, unless the task relays it.
	if len(js.filters) > 0 {
		coll := dynfilter.NewCollector(js.filters, dynfilter.DefaultMaxSet, dynfilter.DefaultMaxRows)
		coll.Relayed = t.relayed
		ids := js.filterIDs
		bridge.SetFilterCollector(coll, func(sums []*dynfilter.Summary) {
			t.publishFilters(ids, sums)
		})
	}
	return bridge
}

// instantiate gives the task its own state for pipeline pt: its scan's
// constraint is bound to the task's literals.
func (t *Task) instantiate(pt *pipeTemplate, frag *TaskFragment) (*pipelineSpec, error) {
	p := &pipelineSpec{pipeTemplate: pt, constraint: pt.handle.Constraint}
	if pt.source == srcScan && len(frag.Values) > 0 {
		d, err := pt.handle.Constraint.Bind(frag.Values)
		if err != nil {
			return nil, err
		}
		p.constraint = d
	}
	p.opStats = make([]*operators.OpStats, len(pt.names))
	stats := make([]operators.OpStats, len(pt.names))
	for i, name := range pt.names {
		stats[i].Name = name
		p.opStats[i] = &stats[i]
	}
	if len(pt.subs) > 0 {
		p.dynSubs = make([]dynSub, len(pt.subs))
		for i, sub := range pt.subs {
			sub.stats = &dynCounter{scan: p.opStats[0]}
			p.dynSubs[i] = sub
		}
	}
	for _, a := range pt.aggs {
		if per, drivers := t.groupsPerInstance(a.est, p); per > 0 {
			st := p.opStats[a.pos]
			st.EstGroups, st.EstSource = per*float64(drivers), string(a.est.Source)
		}
	}
	if pt.build >= 0 {
		p.buildBridge = t.bridges[pt.build]
	}
	for _, j := range pt.probes {
		p.probeBridges = append(p.probeBridges, t.bridges[j])
	}
	return p, nil
}

// TaskFragment is what a task runs: a fragment, named by the digest of its
// wire form, and its statement's literals by slot (none: the fragment's own).
// Load returns the fragment; a worker calls it only when it holds no compiled
// form under the digest, or the digest is zero.
type TaskFragment struct {
	Digest Digest
	Load   func() (*plan.Fragment, error)
	Values []types.Value
}

// fragmentCacheSize is how many compiled fragments a worker keeps.
const fragmentCacheSize = 256

// FragmentCacheStats counts a worker's compiled-fragment lookups: a lookup
// with a zero digest counts as neither.
type FragmentCacheStats struct {
	Hits, Misses, Evictions int64
}

// fragmentCache is a worker's LRU of compiled fragments. A fragment that does
// not compile is kept as its error: its next task fails the same way without
// compiling it again.
type fragmentCache struct {
	mu  sync.Mutex
	lru *cache.LRU[FragmentKey, compiledEntry] // nil until the first lookup

	hits, misses, evictions atomic.Int64
}

type compiledEntry struct {
	cf  *CompiledFragment
	err error
}

// get returns the compiled form of frag under cfg, compiling the fragment
// frag.Load returns on a miss.
func (c *fragmentCache) get(frag TaskFragment, cfg TaskConfig) (*CompiledFragment, error) {
	if frag.Digest == (Digest{}) {
		f, err := frag.Load()
		if err != nil {
			return nil, err
		}
		return Compile(f, cfg)
	}
	key := FragmentKey{Digest: frag.Digest, PageSize: cfg.PageSize, Interpreted: cfg.Interpreted}
	c.mu.Lock()
	if c.lru == nil {
		c.lru = cache.NewLRU(fragmentCacheSize, 0, func(FragmentKey, compiledEntry, int64) { c.evictions.Add(1) })
	}
	if e, ok := c.lru.Get(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return e.cf, e.err
	}
	c.mu.Unlock()
	c.misses.Add(1)
	f, err := frag.Load()
	if err != nil {
		return nil, err
	}
	cf, err := Compile(f, cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Peek(key); ok {
		// Another task compiled it meanwhile: keep one.
		return e.cf, e.err
	}
	c.lru.Put(key, compiledEntry{cf: cf, err: err}, 1)
	return cf, err
}

// drop empties the cache. The entries it drops are not evictions.
func (c *fragmentCache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru = nil
}

func (c *fragmentCache) stats() FragmentCacheStats {
	return FragmentCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}
