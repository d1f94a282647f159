// Package operators implements the engine's physical operators (paper
// §IV-E1): each performs a single well-defined computation on pages and is
// chained into pipelines executed by the driver loop. Accumulating operators
// (aggregation, join build, sort, distinct, window) account their memory
// against the query's memory context and — for joins and aggregations —
// support revocation by spilling state to disk (§IV-F2).
package operators

import (
	"slices"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/memory"
)

// DefaultPageRows is how many rows an accumulating operator (aggregation,
// join, sort, window) puts on an output page when its pipeline names no page
// size. The optimizer's small-plan rule bounds a one-task statement's
// emitted rows by one such page.
const DefaultPageRows = 4096

// Operator is one stage of a pipeline. The driver moves pages between
// adjacent operators whenever the downstream needs input and the upstream
// can produce (§IV-E1).
type Operator interface {
	// NeedsInput reports whether AddInput may be called.
	NeedsInput() bool
	// AddInput accepts one page.
	AddInput(p *block.Page) error
	// Output returns a produced page or nil if none is ready.
	Output() (*block.Page, error)
	// Finish signals that no more input will arrive.
	Finish()
	// IsFinished reports that the operator will produce no more output.
	IsFinished() bool
	// IsBlocked reports the operator is waiting on an external event
	// (exchange data, buffer space, a join build). Blocked drivers yield
	// their thread (§IV-F1).
	IsBlocked() bool
	// Close releases resources.
	Close() error
}

// ScratchHolder is an operator that leases the vectors of its pages from a
// block.Arena: a filter/project (its processor's), every operator that
// hashes keys, and a scan whose lazy columns decode into scratch. Each rewinds its arena at what it treats as its next page;
// the driver that runs it releases the arena when it finishes
// (exec.Driver.finishDriver), and nothing else does.
type ScratchHolder interface {
	Scratch() *block.Arena
}

// OpContext carries per-operator execution context: memory accounting and
// statistics shared with the task.
type OpContext struct {
	Mem   *memory.LocalContext
	Stats *OpStats
}

// OpStats counts operator work for EXPLAIN ANALYZE, the live stats
// endpoints, and the experiments (paper §VII, "effortless instrumentation").
// One OpStats is shared by every driver of a pipeline, so the fields are
// atomics: driver threads write while stats endpoints read concurrently.
// Timing is attributed by the driver loop at iterate-pass granularity, not
// per page, to keep clock sampling off the hot path.
type OpStats struct {
	Name string // operator name, fixed at pipeline compile time

	// EstGroups is, for a hash aggregation whose plan node carries a group
	// estimate, the groups its instances in the task were sized to expect,
	// summed, and EstSource where the estimate came from ("stats"); zero and
	// empty elsewhere. Set at pipeline compile time.
	EstGroups float64
	EstSource string

	pagesIn  atomic.Int64
	rowsIn   atomic.Int64
	bytesIn  atomic.Int64
	pagesOut atomic.Int64
	rowsOut  atomic.Int64
	bytesOut atomic.Int64
	// bytesRead (leaf scans only) is what the scan's sources fetched, taken
	// from each as it closes: a lazy column that never loads costs nothing.
	bytesRead atomic.Int64

	wallNanos    atomic.Int64 // sum of owning-driver lifetimes
	cpuNanos     atomic.Int64 // iterate-pass time attributed to this operator
	blockedNanos atomic.Int64 // parked time while this operator was the blocker

	memCur  atomic.Int64 // sampled current reservation across drivers
	memPeak atomic.Int64 // high-water mark of memCur

	// Dynamic-filter accounting (leaf scans only): probe rows dropped by
	// attached runtime filters, splits skipped outright by an empty build
	// side, and time split starts were gated waiting for filter delivery.
	dynRowsFiltered  atomic.Int64
	dynSplitsSkipped atomic.Int64
	dynWaitNanos     atomic.Int64

	// Vectorized-projection accounting (filter/project operators only):
	// projections evaluated by the columnar kernels, shared-subtree
	// evaluations saved by CSE, and dictionary projection cache evictions.
	vecProjEvals  atomic.Int64
	cseHits       atomic.Int64
	dictEvictions atomic.Int64

	// Compressed-execution accounting (paper §V-E). dictRows: rows an
	// aggregation or a lookup join resolved through a memo over dictionary
	// entries and not through its hash table, and rows a filter/project
	// computed a projection for once per combination of entries. encodedCols
	// (scans only): the most dictionary- or RLE-encoded columns a page of the
	// scan arrived with.
	dictRows    atomic.Int64
	encodedCols atomic.Int64
}

// RecordDictRows counts rows an operator handled by dictionary entry.
func (s *OpStats) RecordDictRows(rows int64) {
	if s != nil && rows > 0 {
		s.dictRows.Add(rows)
	}
}

// RecordProjKernels accumulates vectorized-projection counter deltas flushed
// from a page processor.
func (s *OpStats) RecordProjKernels(vecEvals, cseHits, evictions int64) {
	if s == nil {
		return
	}
	if vecEvals > 0 {
		s.vecProjEvals.Add(vecEvals)
	}
	if cseHits > 0 {
		s.cseHits.Add(cseHits)
	}
	if evictions > 0 {
		s.dictEvictions.Add(evictions)
	}
}

// RecordSourceClosed takes a closing page source's physical bytes read.
func (s *OpStats) RecordSourceClosed(src connector.PageSource) {
	if s != nil {
		s.bytesRead.Add(src.BytesRead())
	}
}

// RecordDynFiltered counts probe rows removed by a dynamic join filter.
func (s *OpStats) RecordDynFiltered(rows int64) {
	if s != nil && rows > 0 {
		s.dynRowsFiltered.Add(rows)
	}
}

// RecordDynSplitSkipped counts splits dropped before opening because a
// dynamic filter proved they cannot produce matching rows.
func (s *OpStats) RecordDynSplitSkipped(n int64) {
	if s != nil && n > 0 {
		s.dynSplitsSkipped.Add(n)
	}
}

// RecordDynWait attributes time split starts spent gated on filter delivery.
func (s *OpStats) RecordDynWait(nanos int64) {
	if s != nil && nanos > 0 {
		s.dynWaitNanos.Add(nanos)
	}
}

// DynRowsFiltered returns probe rows dropped by dynamic filters so far.
func (s *OpStats) DynRowsFiltered() int64 { return s.dynRowsFiltered.Load() }

// AddCPU attributes n nanoseconds of driver execution to the operator.
func (s *OpStats) AddCPU(n int64) { s.cpuNanos.Add(n) }

// AddBlocked attributes n nanoseconds of parked time to the operator.
func (s *OpStats) AddBlocked(n int64) { s.blockedNanos.Add(n) }

// AddWall adds one driver's lifetime to the operator's wall clock.
func (s *OpStats) AddWall(n int64) { s.wallNanos.Add(n) }

// CPUNanos returns execution time attributed so far.
func (s *OpStats) CPUNanos() int64 { return s.cpuNanos.Load() }

// AdjustMem applies a sampled change in the operator's memory reservation
// and maintains the peak.
func (s *OpStats) AdjustMem(delta int64) {
	cur := s.memCur.Add(delta)
	for {
		peak := s.memPeak.Load()
		if cur <= peak || s.memPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// RowsOut returns rows produced so far (live counter for scan progress).
func (s *OpStats) RowsOut() int64 { return s.rowsOut.Load() }

// BytesOut returns bytes produced so far.
func (s *OpStats) BytesOut() int64 { return s.bytesOut.Load() }

// OpStatsSnapshot is a point-in-time copy of OpStats, safe to aggregate and
// serialize.
type OpStatsSnapshot struct {
	Name         string `json:"name"`
	PagesIn      int64  `json:"pagesIn"`
	RowsIn       int64  `json:"rowsIn"`
	BytesIn      int64  `json:"bytesIn"`
	PagesOut     int64  `json:"pagesOut"`
	RowsOut      int64  `json:"rowsOut"`
	BytesOut     int64  `json:"bytesOut"`
	BytesRead    int64  `json:"bytesRead,omitempty"`
	WallNanos    int64  `json:"wallNanos"`
	CPUNanos     int64  `json:"cpuNanos"`
	BlockedNanos int64  `json:"blockedNanos"`
	MemBytes     int64  `json:"memBytes"`
	PeakMemBytes int64  `json:"peakMemBytes"`

	EstGroups        float64 `json:"estGroups,omitempty"`
	EstSource        string  `json:"estSource,omitempty"`
	DynRowsFiltered  int64   `json:"dynRowsFiltered,omitempty"`
	DynSplitsSkipped int64   `json:"dynSplitsSkipped,omitempty"`
	DynWaitNanos     int64   `json:"dynWaitNanos,omitempty"`
	VecProjEvals     int64   `json:"vecProjEvals,omitempty"`
	CSEHits          int64   `json:"cseHits,omitempty"`
	DictEvictions    int64   `json:"dictProjEvictions,omitempty"`
	DictRows         int64   `json:"dictRows,omitempty"`
	EncodedCols      int64   `json:"encodedCols,omitempty"`
}

// DynFilterStats is what one dynamic-filter subscription of a scan did:
// whether it tests rows or only prunes splits and stripes, the rows it tested
// and passed, and how long the scan's split starts waited for it.
type DynFilterStats struct {
	ID         int   `json:"id"`
	RowTested  bool  `json:"rowTested,omitempty"`
	RowsTested int64 `json:"rowsTested,omitempty"`
	RowsPassed int64 `json:"rowsPassed,omitempty"`
	WaitNanos  int64 `json:"waitNanos,omitempty"`
}

// Snapshot copies the counters.
func (s *OpStats) Snapshot() OpStatsSnapshot {
	return OpStatsSnapshot{
		Name:         s.Name,
		PagesIn:      s.pagesIn.Load(),
		RowsIn:       s.rowsIn.Load(),
		BytesIn:      s.bytesIn.Load(),
		PagesOut:     s.pagesOut.Load(),
		RowsOut:      s.rowsOut.Load(),
		BytesOut:     s.bytesOut.Load(),
		BytesRead:    s.bytesRead.Load(),
		WallNanos:    s.wallNanos.Load(),
		CPUNanos:     s.cpuNanos.Load(),
		BlockedNanos: s.blockedNanos.Load(),
		MemBytes:     s.memCur.Load(),
		PeakMemBytes: s.memPeak.Load(),

		EstGroups:        s.EstGroups,
		EstSource:        s.EstSource,
		DynRowsFiltered:  s.dynRowsFiltered.Load(),
		DynSplitsSkipped: s.dynSplitsSkipped.Load(),
		DynWaitNanos:     s.dynWaitNanos.Load(),
		VecProjEvals:     s.vecProjEvals.Load(),
		CSEHits:          s.cseHits.Load(),
		DictEvictions:    s.dictEvictions.Load(),
		DictRows:         s.dictRows.Load(),
		EncodedCols:      s.encodedCols.Load(),
	}
}

// MergeDynFilters adds from's subscriptions into into, by filter id (the
// rollup across the tasks of a stage), and returns the result; into is not
// written in place.
func MergeDynFilters(into, from []DynFilterStats) []DynFilterStats {
	if len(from) == 0 {
		return into
	}
	into = slices.Clone(into)
	for _, f := range from {
		i := slices.IndexFunc(into, func(g DynFilterStats) bool { return g.ID == f.ID })
		if i < 0 {
			into = append(into, f)
			continue
		}
		g := &into[i]
		g.RowTested = g.RowTested || f.RowTested
		g.RowsTested += f.RowsTested
		g.RowsPassed += f.RowsPassed
		g.WaitNanos += f.WaitNanos
	}
	return into
}

// GroupQError is how far a hash aggregation's group estimate was from the
// groups it produced, as a factor of at least 1 either way (the q-error);
// a count under one reads as one.
func (s OpStatsSnapshot) GroupQError() float64 {
	e, a := max(s.EstGroups, 1), float64(max(s.RowsOut, 1))
	return max(e/a, a/e)
}

// Merge adds o's counters into the snapshot (element-wise rollup across the
// tasks of a stage). Peaks are summed: tasks run concurrently on different
// nodes, so the cluster-wide peak is approximated by the sum of per-task
// peaks.
func (s *OpStatsSnapshot) Merge(o OpStatsSnapshot) {
	if s.Name == "" {
		s.Name = o.Name
	}
	s.PagesIn += o.PagesIn
	s.RowsIn += o.RowsIn
	s.BytesIn += o.BytesIn
	s.PagesOut += o.PagesOut
	s.RowsOut += o.RowsOut
	s.BytesOut += o.BytesOut
	s.BytesRead += o.BytesRead
	s.WallNanos += o.WallNanos
	s.CPUNanos += o.CPUNanos
	s.BlockedNanos += o.BlockedNanos
	s.MemBytes += o.MemBytes
	s.PeakMemBytes += o.PeakMemBytes
	s.EstGroups += o.EstGroups
	if s.EstSource == "" {
		s.EstSource = o.EstSource
	}
	s.DynRowsFiltered += o.DynRowsFiltered
	s.DynSplitsSkipped += o.DynSplitsSkipped
	s.DynWaitNanos += o.DynWaitNanos
	s.VecProjEvals += o.VecProjEvals
	s.CSEHits += o.CSEHits
	s.DictEvictions += o.DictEvictions
	s.DictRows += o.DictRows
	s.EncodedCols = max(s.EncodedCols, o.EncodedCols) // every task scans the same columns
}

// NopContext returns a context with no memory accounting, for tests.
func NopContext() *OpContext {
	q := memory.NewQueryContext("test", memory.QueryLimits{}, map[int]*memory.NodePool{})
	return &OpContext{Mem: memory.NewLocalContext(q, 0, memory.User), Stats: &OpStats{}}
}

func (c *OpContext) recordIn(p *block.Page) {
	if c != nil && c.Stats != nil && p != nil {
		c.Stats.pagesIn.Add(1)
		c.Stats.rowsIn.Add(int64(p.RowCount()))
		c.Stats.bytesIn.Add(p.SizeBytes())
	}
}

func (c *OpContext) recordDictRows(rows int) {
	if c != nil {
		c.Stats.RecordDictRows(int64(rows))
	}
}

// recordScanOut is recordOut for a scan's page, and notes how many of its
// columns arrived dictionary- or RLE-encoded.
func (c *OpContext) recordScanOut(p *block.Page) {
	c.recordOut(p)
	if c == nil || c.Stats == nil || p == nil {
		return
	}
	var encoded int64
	for _, col := range p.Cols {
		switch col.(type) {
		case *block.DictionaryBlock, *block.RLEBlock:
			encoded++
		}
	}
	for {
		cur := c.Stats.encodedCols.Load()
		if encoded <= cur || c.Stats.encodedCols.CompareAndSwap(cur, encoded) {
			return
		}
	}
}

func (c *OpContext) recordOut(p *block.Page) {
	if c != nil && c.Stats != nil && p != nil {
		c.Stats.pagesOut.Add(1)
		c.Stats.rowsOut.Add(int64(p.RowCount()))
		c.Stats.bytesOut.Add(p.SizeBytes())
	}
}
