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

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector is a shared-nothing bucketed store. Its catalog's versions move
// with the rows, schemas and indexes they count.
type Connector struct {
	connector.AppendCatalog[*table]
	nodes int
}

type table struct {
	meta      connector.TableMeta
	bucketCol string
	bucketIdx int
	buckets   [][]*block.Page // bucket → pages
	stats     connector.TableStats
	ndv       connector.Distinct
	// index maps indexed column value → rows, per indexed column.
	indexes map[string]map[connector.Key][]rowRef
}

func (t *table) Meta() *connector.TableMeta { return &t.meta }

type rowRef struct {
	bucket, page, row int
}

// New creates a raptor catalog distributing buckets across n nodes.
func New(name string, nodes int) *Connector {
	return &Connector{AppendCatalog: connector.NewAppendCatalog[*table](name), nodes: max(nodes, 1)}
}

// CreateBucketedTable registers a table bucketed on bucketCol with the given
// bucket count. Data loads through LoadRows/PageSink.
func (c *Connector) CreateBucketedTable(name string, columns []connector.Column, bucketCol string, buckets int) error {
	meta := connector.TableMeta{Name: name, Columns: columns, Layouts: []connector.Layout{{
		Name:          "bucketed",
		PartitionCols: []string{bucketCol},
		BucketCount:   buckets,
		NodeLocal:     true,
	}}}
	idx := meta.ColumnIndex(bucketCol)
	if idx < 0 {
		return fmt.Errorf("bucket column %q not in schema", bucketCol)
	}
	return c.Create(name, &table{
		meta:      meta,
		bucketCol: bucketCol,
		bucketIdx: idx,
		buckets:   make([][]*block.Page, buckets),
		stats:     connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}},
		ndv:       make(connector.Distinct, len(columns)),
		indexes:   map[string]map[connector.Key][]rowRef{},
	})
}

// CreateIndex builds a point-lookup index on column (enabling index joins).
func (c *Connector) CreateIndex(tableName, column string) error {
	return c.Write(tableName, func(t *table, v *connector.VersionLog) error {
		ci := t.meta.ColumnIndex(column)
		if ci < 0 {
			return fmt.Errorf("column %q does not exist", column)
		}
		idx := map[connector.Key][]rowRef{}
		for b, pages := range t.buckets {
			for pi, p := range pages {
				indexPage(idx, p.Col(ci), b, pi)
			}
		}
		t.indexes[column] = idx
		t.meta.Layouts = append(t.meta.Layouts, connector.Layout{
			Name:      "idx_" + column,
			IndexCols: []string{column},
			NodeLocal: true,
		})
		v.SchemaChanged(tableName)
		return nil
	})
}

// LoadRows appends boxed rows, routing each to its bucket.
func (c *Connector) LoadRows(tableName string, rows [][]types.Value) error {
	return c.Write(tableName, func(t *table, v *connector.VersionLog) error {
		v.Appended(tableName, connector.SummarizeAppend(t.meta.Columns, t.appendRows(rows)))
		return nil
	})
}

// indexPage enters the non-null cells of col, page pi of bucket b, in idx.
func indexPage(idx map[connector.Key][]rowRef, col block.Block, b, pi int) {
	for r := 0; r < col.Len(); r++ {
		if !col.IsNull(r) {
			k := connector.KeyOf(col.Value(r))
			idx[k] = append(idx[k], rowRef{b, pi, r})
		}
	}
}

// appendRows routes rows to their buckets, enters them in every index and the
// statistics, and returns the pages it added. Its caller holds the catalog's
// write lock, under which a lookup never reads.
func (t *table) appendRows(rows [][]types.Value) []*block.Page {
	ts := t.meta.Types()
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
			for column, idx := range t.indexes {
				indexPage(idx, p.Col(t.meta.ColumnIndex(column)), b, len(t.buckets[b])-1)
			}
		}
	}
	t.stats = t.ndv.Fold(t.stats, t.meta.Columns, added)
	return added
}

// bucketOf hashes a value consistently with the engine's hash partitioning.
func bucketOf(v types.Value, buckets int) int {
	p := block.NewPage(block.BuildBlock(v.T, []types.Value{v}))
	return operators.HashPartition(p, 0, []int{0}, buckets)
}

// Stats implements the Metadata API.
func (c *Connector) Stats(name string) connector.TableStats {
	stats := connector.NoStats
	c.Read(name, func(t *table) error { stats = t.stats; return nil })
	return stats
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
	var splits []connector.Split
	err := c.Read(handle.Table, func(t *table) error {
		for b, pages := range t.buckets {
			var rows int64
			for _, p := range pages {
				rows += int64(p.RowCount())
			}
			splits = append(splits, &split{
				catalog: c.Name(), table: handle.Table,
				bucket: b, node: b % c.nodes, rows: rows,
			})
		}
		return nil
	})
	return connector.ListSplits(splits), err
}

// PageSource implements the Data Source API. The read lock covers the read
// of the bucket's page list, which a concurrent write extends.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	rs, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	var src connector.PageSource
	err := c.Read(rs.table, func(t *table) error {
		cols, _, err := t.meta.Resolve(columns)
		if err == nil {
			src = connector.ReadPages(t.buckets[rs.bucket], cols)
		}
		return err
	})
	return src, err
}

// CreateTable implements DDL with a default single-bucket layout.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) == 0 {
		return fmt.Errorf("raptor tables require at least one column")
	}
	return c.CreateBucketedTable(name, columns, columns[0].Name, c.nodes)
}

// PageSink implements the Data Sink API.
func (c *Connector) PageSink(tableName string) (connector.PageSink, error) {
	if err := c.Check(tableName); err != nil {
		return nil, err
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
	var l *indexLookup
	c.Read(tableName, func(t *table) error {
		if len(keyCols) != 1 || t.indexes[keyCols[0]] == nil {
			return nil
		}
		cols, ts, err := t.meta.Resolve(outCols)
		if err == nil {
			l = &indexLookup{c: c, t: t, idx: t.indexes[keyCols[0]], cols: cols, ts: ts}
		}
		return nil
	})
	return l, l != nil
}

type indexLookup struct {
	c    *Connector
	t    *table
	idx  map[connector.Key][]rowRef
	cols []int
	ts   []types.Type
}

// Lookup implements connector.IndexLookup, under the catalog's read lock: a
// write extends the buckets the index points into. It finds nothing once the
// table it indexes is replaced.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	var out *block.Page
	err := l.c.Read(l.t.meta.Name, func(t *table) error {
		refs := l.idx[connector.KeyOf(keys[0])]
		if t != l.t || len(refs) == 0 {
			return nil
		}
		b := block.NewPageBuilder(l.ts)
		row := make([]types.Value, len(l.cols))
		for _, ref := range refs {
			p := t.buckets[ref.bucket][ref.page]
			for i, ci := range l.cols {
				row[i] = p.Col(ci).Value(ref.row)
			}
			b.AppendRow(row)
		}
		out = b.Build()
		return nil
	})
	return out, err
}
