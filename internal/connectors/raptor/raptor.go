// Package raptor implements a Raptor-style storage engine connector
// (paper §IV-D2): a shared-nothing store whose tables are hash-bucketed on a
// chosen column, with every bucket owned by one worker node. It provides the
// predictable high-throughput, low-latency reads the A/B Testing use case
// needs, and exposes bucketed data layouts through the Data Layout API so
// the optimizer can plan co-located joins and in-place aggregations
// (§IV-C1, §IV-C3). The production system stores ORC on flash with MySQL
// metadata; here buckets are in-memory page lists with an in-process
// catalog, preserving the properties the engine exploits: node affinity,
// bucket alignment, and fast scans.
package raptor

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector is a shared-nothing bucketed store.
type Connector struct {
	name  string
	nodes int

	mu     sync.RWMutex
	tables map[string]*table
	// versions moves with the rows, schemas and indexes it counts, under mu's
	// write lock.
	versions connector.VersionLog
}

type table struct {
	meta      connector.TableMeta
	bucketCol string
	bucketIdx int
	buckets   [][]*block.Page // bucket → pages
	stats     connector.TableStats
	// index maps indexed column value → rows, per indexed column.
	indexes map[string]map[string][]rowRef
}

type rowRef struct {
	bucket, page, row int
}

// New creates a raptor catalog distributing buckets across n nodes.
func New(name string, nodes int) *Connector {
	if nodes <= 0 {
		nodes = 1
	}
	return &Connector{name: name, nodes: nodes, tables: map[string]*table{}}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// CreateBucketedTable registers a table bucketed on bucketCol with the given
// bucket count. Data loads through LoadRows/PageSink.
func (c *Connector) CreateBucketedTable(name string, columns []connector.Column, bucketCol string, buckets int) error {
	idx := -1
	for i, col := range columns {
		if col.Name == bucketCol {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("bucket column %q not in schema", bucketCol)
	}
	layout := connector.Layout{
		Name:          "bucketed",
		PartitionCols: []string{bucketCol},
		BucketCount:   buckets,
		NodeLocal:     true,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return fmt.Errorf("table %s.%s already exists", c.name, name)
	}
	c.versions.SchemaChanged(name)
	c.tables[name] = &table{
		meta:      connector.TableMeta{Name: name, Columns: columns, Layouts: []connector.Layout{layout}},
		bucketCol: bucketCol,
		bucketIdx: idx,
		buckets:   make([][]*block.Page, buckets),
		stats:     connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}},
		indexes:   map[string]map[string][]rowRef{},
	}
	return nil
}

// CreateIndex builds a point-lookup index on column (enabling index joins).
func (c *Connector) CreateIndex(tableName, column string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableName]
	if !ok {
		return fmt.Errorf("table %s.%s does not exist", c.name, tableName)
	}
	ci := t.meta.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("column %q does not exist", column)
	}
	idx := map[string][]rowRef{}
	for b, pages := range t.buckets {
		for pi, p := range pages {
			col := p.Col(ci)
			for r := 0; r < p.RowCount(); r++ {
				if col.IsNull(r) {
					continue
				}
				idx[col.Value(r).String()] = append(idx[col.Value(r).String()], rowRef{b, pi, r})
			}
		}
	}
	t.indexes[column] = idx
	t.meta.Layouts = append(t.meta.Layouts, connector.Layout{
		Name:      "idx_" + column,
		IndexCols: []string{column},
		NodeLocal: true,
	})
	c.versions.SchemaChanged(tableName)
	return nil
}

// LoadRows appends boxed rows, routing each to its bucket.
func (c *Connector) LoadRows(tableName string, rows [][]types.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableName]
	if !ok {
		return fmt.Errorf("table %s.%s does not exist", c.name, tableName)
	}
	c.versions.Appended(tableName, connector.SummarizeAppend(t.meta.Columns, t.appendRows(rows)))
	return nil
}

// appendRows routes rows to their buckets and returns the pages it added.
func (t *table) appendRows(rows [][]types.Value) []*block.Page {
	ts := make([]types.Type, len(t.meta.Columns))
	for i, col := range t.meta.Columns {
		ts[i] = col.T
	}
	builders := make([]*block.PageBuilder, len(t.buckets))
	for _, row := range rows {
		b := bucketOf(row[t.bucketIdx], len(t.buckets))
		if builders[b] == nil {
			builders[b] = block.NewPageBuilder(ts)
		}
		builders[b].AppendRow(row)
	}
	var added []*block.Page
	for b, bl := range builders {
		if bl != nil && bl.RowCount() > 0 {
			p := bl.Build()
			t.buckets[b] = append(t.buckets[b], p)
			added = append(added, p)
		}
	}
	t.refreshStats()
	return added
}

// bucketOf hashes a value consistently with the engine's hash partitioning.
func bucketOf(v types.Value, buckets int) int {
	p := block.NewPage(block.BuildBlock(v.T, []types.Value{v}))
	return operators.HashPartition(p, 0, []int{0}, buckets)
}

func (t *table) refreshStats() {
	stats := connector.TableStats{ColumnNDV: map[string]int64{}}
	ndv := make([]map[string]struct{}, len(t.meta.Columns))
	for i := range ndv {
		ndv[i] = map[string]struct{}{}
	}
	for _, pages := range t.buckets {
		for _, p := range pages {
			stats.RowCount += int64(p.RowCount())
			for ci := range t.meta.Columns {
				col := p.Col(ci)
				for r := 0; r < p.RowCount(); r++ {
					if !col.IsNull(r) {
						ndv[ci][col.Value(r).String()] = struct{}{}
					}
				}
			}
		}
	}
	for i, col := range t.meta.Columns {
		stats.ColumnNDV[col.Name] = int64(len(ndv[i]))
	}
	t.stats = stats
}

// Tables implements the Metadata API.
func (c *Connector) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// Table implements the Metadata API.
func (c *Connector) Table(name string) *connector.TableMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil
	}
	meta := t.meta
	return &meta
}

// Stats implements the Metadata API.
func (c *Connector) Stats(name string) connector.TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if t, ok := c.tables[name]; ok {
		return t.stats
	}
	return connector.NoStats
}

// TableVersion implements connector.Connector.
func (c *Connector) TableVersion(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.TableVersion(name)
}

// SchemaVersion implements connector.Connector.
func (c *Connector) SchemaVersion(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.SchemaVersion(name)
}

// Appends implements connector.AppendLog.
func (c *Connector) Appends(name string, since int64, visit func(*connector.AppendSummary) bool) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.Appends(name, since, visit)
}

// split is one bucket of a table, owned by a node.
type split struct {
	catalog string
	table   string
	bucket  int
	node    int
	rows    int64
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return []int{s.node} }
func (s *split) EstimatedRows() int64  { return s.rows }
func (s *split) Bucket() int           { return s.bucket }

// Splits implements the Data Location API: one split per bucket, pinned to
// the owning node (shared-nothing, §IV-D2).
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	c.mu.RLock()
	t, ok := c.tables[handle.Table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, handle.Table)
	}
	var splits []connector.Split
	for b := range t.buckets {
		var rows int64
		for _, p := range t.buckets[b] {
			rows += int64(p.RowCount())
		}
		splits = append(splits, &split{
			catalog: c.name, table: handle.Table,
			bucket: b, node: b % c.nodes, rows: rows,
		})
	}
	return &sliceSplits{splits: splits}, nil
}

type sliceSplits struct {
	splits []connector.Split
	pos    int
}

func (s *sliceSplits) NextBatch(max int) (connector.SplitBatch, error) {
	end := s.pos + max
	if end > len(s.splits) {
		end = len(s.splits)
	}
	b := connector.SplitBatch{Splits: s.splits[s.pos:end], Done: end == len(s.splits)}
	s.pos = end
	return b, nil
}

func (s *sliceSplits) Close() {}

// PageSource implements the Data Source API.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	rs, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	c.mu.RLock()
	t, okT := c.tables[rs.table]
	c.mu.RUnlock()
	if !okT {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, rs.table)
	}
	cols := make([]int, len(columns))
	for i, name := range columns {
		idx := t.meta.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("column %q does not exist in %s", name, rs.table)
		}
		cols[i] = idx
	}
	return &pageSource{pages: t.buckets[rs.bucket], cols: cols}, nil
}

type pageSource struct {
	pages []*block.Page
	cols  []int
	pos   int
	bytes int64
}

func (p *pageSource) NextPage() (*block.Page, error) {
	if p.pos >= len(p.pages) {
		return nil, nil
	}
	src := p.pages[p.pos]
	p.pos++
	if len(p.cols) == 0 {
		out := block.NewEmptyPage(src.RowCount())
		p.bytes += out.SizeBytes()
		return out, nil
	}
	cols := make([]block.Block, len(p.cols))
	for i, ci := range p.cols {
		cols[i] = src.Col(ci)
	}
	out := block.NewPage(cols...)
	p.bytes += out.SizeBytes()
	return out, nil
}

func (p *pageSource) BytesRead() int64 { return p.bytes }
func (p *pageSource) Close()           {}

// CreateTable implements DDL with a default single-bucket layout.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) == 0 {
		return fmt.Errorf("raptor tables require at least one column")
	}
	return c.CreateBucketedTable(name, columns, columns[0].Name, c.nodes)
}

// DropTable implements DDL.
func (c *Connector) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("table %s.%s does not exist", c.name, name)
	}
	delete(c.tables, name)
	c.versions.SchemaChanged(name)
	return nil
}

// PageSink implements the Data Sink API.
func (c *Connector) PageSink(tableName string) (connector.PageSink, error) {
	c.mu.RLock()
	_, ok := c.tables[tableName]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, tableName)
	}
	return &pageSink{c: c, table: tableName}, nil
}

type pageSink struct {
	c     *Connector
	table string
	rows  [][]types.Value
}

func (s *pageSink) Append(p *block.Page) error {
	for r := 0; r < p.RowCount(); r++ {
		s.rows = append(s.rows, p.Row(r))
	}
	return nil
}

func (s *pageSink) Finish() (int64, error) {
	if err := s.c.LoadRows(s.table, s.rows); err != nil {
		return 0, err
	}
	return int64(len(s.rows)), nil
}

func (s *pageSink) Abort() { s.rows = nil }

// Index implements connector.Indexed for index joins (§IV-C1).
func (c *Connector) Index(tableName string, keyCols, outCols []string) (connector.IndexLookup, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[tableName]
	if !ok || len(keyCols) != 1 {
		return nil, false
	}
	idx, ok := t.indexes[keyCols[0]]
	if !ok {
		return nil, false
	}
	cols := make([]int, len(outCols))
	ts := make([]types.Type, len(outCols))
	for i, name := range outCols {
		ci := t.meta.ColumnIndex(name)
		if ci < 0 {
			return nil, false
		}
		cols[i] = ci
		ts[i] = t.meta.Columns[ci].T
	}
	return &indexLookup{t: t, idx: idx, cols: cols, ts: ts}, true
}

type indexLookup struct {
	t    *table
	idx  map[string][]rowRef
	cols []int
	ts   []types.Type
}

// Lookup implements connector.IndexLookup.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	refs := l.idx[keys[0].String()]
	if len(refs) == 0 {
		return nil, nil
	}
	b := block.NewPageBuilder(l.ts)
	row := make([]types.Value, len(l.cols))
	for _, ref := range refs {
		p := l.t.buckets[ref.bucket][ref.page]
		for i, ci := range l.cols {
			row[i] = p.Col(ci).Value(ref.row)
		}
		b.AppendRow(row)
	}
	return b.Build(), nil
}
