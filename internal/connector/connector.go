// Package connector defines the engine's Connector API (paper §III): the
// Metadata API, Data Location API (split enumeration), Data Source API
// (page-at-a-time reads), and Data Sink API (writes). Connectors also expose
// data layouts — partitioning, sorting, and index properties the optimizer
// uses to elide shuffles, select indexed access paths, and push predicates
// down (§IV-C1).
//
// Catalog is the table catalog the in-process connectors share: it holds
// their tables, the lock over them, and the VersionLog. A table's versions
// move there, under the catalog's write lock, in the critical section that
// makes the change they count.
package connector

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// Column describes one column of a connector table.
type Column struct {
	Name string
	T    types.Type
}

// TableMeta describes a table: its schema and available layouts.
type TableMeta struct {
	Name    string
	Columns []Column
	Layouts []Layout
}

// ColumnIndex returns the position of the named column, or -1.
func (t *TableMeta) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Resolve returns the positions and types of the named columns, in order, or
// an error naming the first the table does not have.
func (t *TableMeta) Resolve(names []string) ([]int, []types.Type, error) {
	idx := make([]int, len(names))
	ts := make([]types.Type, len(names))
	for i, name := range names {
		if idx[i] = t.ColumnIndex(name); idx[i] < 0 {
			return nil, nil, fmt.Errorf("column %q does not exist in %s", name, t.Name)
		}
		ts[i] = t.Columns[idx[i]].T
	}
	return idx, ts, nil
}

// Types returns the types of the table's columns, in order.
func (t *TableMeta) Types() []types.Type {
	ts := make([]types.Type, len(t.Columns))
	for i, c := range t.Columns {
		ts[i] = c.T
	}
	return ts
}

// Layout describes one physical organization of a table's data
// (paper §IV-C1). Connectors can return several layouts for a table; the
// optimizer picks the most efficient one for the query.
type Layout struct {
	// Name identifies the layout in the table handle ("" = default).
	Name string
	// PartitionCols are the columns the data is hash-bucketed on across
	// nodes. A join on these columns can run co-located (§IV-C3).
	PartitionCols []string
	// BucketCount is the number of hash buckets (0 if not bucketed).
	BucketCount int
	// SortedBy lists columns each data unit is sorted on.
	SortedBy []string
	// IndexCols are columns with point-lookup indexes, enabling index
	// joins and highly selective pushdown (§IV-C2).
	IndexCols []string
	// NodeLocal reports shared-nothing placement: splits must run on the
	// node owning the data (Raptor-style).
	NodeLocal bool
}

// TableStats carries table/column statistics for the cost-based optimizer
// (§IV-C). Unknown statistics are negative.
type TableStats struct {
	RowCount int64
	// ColumnNDV maps column name to estimated distinct-value count.
	ColumnNDV map[string]int64
	// Pages is how many pages a scan of the table reads (0 when the connector
	// does not say): RowCount/Pages far below a page's worth means tiny pages.
	Pages int64
}

// Unknown reports whether statistics are unavailable.
func (s TableStats) Unknown() bool { return s.RowCount < 0 }

// NDV returns the estimated distinct-value count of a column, or -1 when
// unknown.
func (s TableStats) NDV(column string) int64 {
	if s.ColumnNDV == nil {
		return -1
	}
	if n, ok := s.ColumnNDV[column]; ok {
		return n
	}
	return -1
}

// NoStats is the statistics object connectors return when they have none.
var NoStats = TableStats{RowCount: -1}

// Split is an opaque handle to an addressable chunk of data in the external
// system (paper §III). The engine only routes splits; connectors interpret
// them.
type Split interface {
	// Connector returns the owning connector's catalog name.
	Connector() string
	// PreferredNodes lists worker ids this split should run on (empty =
	// anywhere). Shared-nothing connectors return the owning node.
	PreferredNodes() []int
	// EstimatedRows sizes the split for scheduling decisions.
	EstimatedRows() int64
}

// RackLocated is implemented by splits that prefer a network rack rather
// than specific nodes; the scheduler maps racks to workers through the
// cluster topology (paper §IV-D2: plugin-provided hierarchy expressing a
// preference for rack-local reads).
type RackLocated interface {
	// PreferredRacks lists rack names in preference order.
	PreferredRacks() []string
}

// Bucketed is implemented by splits belonging to a bucketed data layout;
// the scheduler routes bucket b of every co-located table to the same task.
type Bucketed interface {
	// Bucket returns the split's bucket number.
	Bucket() int
}

// SplitBatch is a batch of splits plus whether enumeration is finished.
type SplitBatch struct {
	Splits []Split
	Done   bool
}

// SplitSource enumerates splits lazily (paper §IV-D3): the coordinator asks
// for small batches so queries can start before enumeration completes and
// never hold all split metadata in memory.
type SplitSource interface {
	// NextBatch returns up to max splits.
	NextBatch(max int) (SplitBatch, error)
	// Close releases enumeration resources.
	Close()
}

// PageSource reads pages for one split through the Data Source API.
type PageSource interface {
	// NextPage returns the next page, or nil when exhausted.
	NextPage() (*block.Page, error)
	// BytesRead reports physical bytes fetched so far (used by the lazy
	// loading experiment).
	BytesRead() int64
	// Close releases read resources.
	Close()
}

// PageSink writes pages for one writer task through the Data Sink API.
type PageSink interface {
	// Append buffers one page for writing.
	Append(p *block.Page) error
	// Finish commits and returns the number of rows written.
	Finish() (int64, error)
	// Abort discards written data.
	Abort()
}

// IndexLookup is the connector-side of index joins: probe the index with
// key values and return matching rows.
type IndexLookup interface {
	// Lookup returns all rows whose indexed columns equal keys.
	Lookup(keys []types.Value) (*block.Page, error)
}

// Connector integrates one external system. The engine addresses it by its
// catalog name.
type Connector interface {
	// Name returns the catalog name.
	Name() string

	// --- Metadata API ---

	// Tables lists table names.
	Tables() []string
	// Table returns table metadata, or nil if absent.
	Table(name string) *TableMeta
	// Stats returns statistics for the table ("NoStats" when unavailable).
	Stats(name string) TableStats
	// TableVersion returns the table's current version, which moves on every
	// change to its schema or data, made through the connector or outside it
	// (0 if never written). Every engine cache of what a table holds — split
	// enumerations, results — is keyed or stamped by it.
	TableVersion(name string) int64
	// SchemaVersion returns a version that moves only when the table is
	// created, dropped or replaced, or its layouts change. Cached table
	// metadata and plans hold for one schema version.
	SchemaVersion(name string) int64

	// --- Data Location API ---

	// Splits enumerates splits for a scan of the handle's table and layout,
	// pruned by the handle's pushed-down constraint.
	Splits(handle plan.TableHandle) (SplitSource, error)

	// --- Data Source API ---

	// PageSource opens a reader over split for the named columns. The
	// handle's constraint may be used for finer-grained skipping.
	PageSource(split Split, columns []string, handle plan.TableHandle) (PageSource, error)

	// --- Data Sink API ---

	// PageSink opens a writer to the named table, or errors if the
	// connector is read-only.
	PageSink(table string) (PageSink, error)

	// CreateTable registers a new table, or errors if unsupported.
	CreateTable(name string, columns []Column) error

	// DropTable removes a table, or errors if unsupported.
	DropTable(name string) error
}

// Indexed is implemented by connectors whose layouts support index lookups.
type Indexed interface {
	// Index opens an index over the given key columns of a table, or
	// returns false if no such index exists. Lookup results carry the
	// outCols columns, in order.
	Index(table string, keyCols, outCols []string) (IndexLookup, bool)
}

// PushdownCapable is implemented by connectors that can apply (a subset of)
// a Domain during the scan itself, so the engine can skip re-filtering.
type PushdownCapable interface {
	// ApplyPushdown reports which columns of the domain the connector
	// fully enforces for the given table.
	ApplyPushdown(table string, d *plan.Domain) (enforced []string)
}

// AppendLog is implemented by connectors that remember what each of a table's
// recent data versions appended. A cached result whose tables moved
// only by appends that none of its scans could have read is still the answer:
// the serving tier re-stamps it instead of executing the statement again.
type AppendLog interface {
	// Appends calls visit with the summary of each batch appended to the table
	// after version since, oldest first, until visit returns false, and
	// returns the table version the last batch brought it to. ok is false when
	// the log no longer reaches back to since, or when something other than an
	// append — a schema change — moved the version after it. visit runs under
	// the connector's lock and must not call back into the connector.
	Appends(table string, since int64, visit func(*AppendSummary) bool) (to int64, ok bool)
}

// AppendSummary describes one batch of rows appended to a table: how many,
// and for each column the bounds of its values.
type AppendSummary struct {
	Rows    int64
	Columns []ColumnSummary
}

// ColumnSummary bounds one column of an appended batch.
type ColumnSummary struct {
	Name string
	// Min and Max are the least and greatest non-null value (both NULL when
	// the batch holds none).
	Min, Max types.Value
	HasNull  bool
	// Unordered marks a batch holding a value Min and Max do not bound (a
	// NaN, an ARRAY): it may then meet any constraint on the column.
	Unordered bool
}

// SummarizeAppend summarises pages appended to a table of the given columns.
func SummarizeAppend(cols []Column, pages []*block.Page) *AppendSummary {
	s := &AppendSummary{Columns: make([]ColumnSummary, len(cols))}
	for ci, col := range cols {
		s.Columns[ci] = ColumnSummary{Name: col.Name, Min: types.NullValue(col.T), Max: types.NullValue(col.T)}
	}
	for _, p := range pages {
		s.Rows += int64(p.RowCount())
		for ci := range cols {
			s.Columns[ci].fold(p.Col(ci))
		}
	}
	return s
}

// fold widens the summary by one block's values.
func (c *ColumnSummary) fold(b block.Block) {
	if b.Len() == 0 {
		return
	}
	lo, hi, nulls, ok := block.Bounds(b)
	c.HasNull = c.HasNull || nulls > 0
	if !ok {
		return
	}
	switch lo.T {
	case types.Bigint, types.Date, types.Varchar, types.Boolean:
	case types.Double:
		// A NaN compares equal to everything, so no bound holds it.
		for r, n := 0, b.Len(); r < n && !c.Unordered; r++ {
			if !b.IsNull(r) {
				f := b.Double(r)
				c.Unordered = f != f
			}
		}
	default:
		c.Unordered = true
		return
	}
	if c.Min.Null || lo.Compare(c.Min) < 0 {
		c.Min = lo
	}
	if c.Max.Null || hi.Compare(c.Max) > 0 {
		c.Max = hi
	}
}

// Disjoint reports whether no row of the batch can satisfy the domain: some
// column the domain constrains holds no value of the batch, and admits no
// NULL where the batch has one. An empty batch is disjoint from every domain,
// the unconstrained one too.
func (s *AppendSummary) Disjoint(d *plan.Domain) bool {
	if s.Rows == 0 {
		return true
	}
	if d.All() {
		return false
	}
	for name, cd := range d.Columns {
		for i := range s.Columns {
			if c := &s.Columns[i]; c.Name == name && c.disjoint(cd) {
				return true
			}
		}
	}
	return false
}

func (c *ColumnSummary) disjoint(cd *plan.ColumnDomain) bool {
	if c.Unordered || c.HasNull && cd.NullAllowed {
		return false
	}
	return c.Min.Null || !cd.OverlapsMinMax(c.Min, c.Max)
}

// DistributedWriteCapable is implemented by connectors whose PageSink writes
// land in storage visible to every node (a shared filesystem, an external
// service). A connector without it writes process-local state: in remote
// mode each worker would write into its own private copy and the "written"
// table would be unreadable, so the coordinator rejects CREATE TABLE and
// INSERT targeting such catalogs when scheduling on remote workers.
type DistributedWriteCapable interface {
	// DistributedWrites reports that writes are visible cluster-wide.
	DistributedWrites() bool
}

// SplitCodec is implemented by connectors whose splits can cross process
// boundaries. The coordinator encodes each split before POSTing it to a
// remote worker, which decodes it through its own instance of the same
// connector. Connectors without a SplitCodec can only run in embedded mode;
// remote scheduling rejects their scans with a clear error.
type SplitCodec interface {
	// EncodeSplit serializes a split this connector produced.
	EncodeSplit(s Split) ([]byte, error)
	// DecodeSplit reverses EncodeSplit.
	DecodeSplit(data []byte) (Split, error)
}
