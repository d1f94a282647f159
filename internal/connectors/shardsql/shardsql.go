// Package shardsql simulates the proprietary sharded-MySQL connector behind
// the paper's Developer/Advertiser Analytics use case (§II-D, §IV-C2): data
// is divided into shards keyed by a shard column; range and point predicates
// on that column are pushed all the way down, so only matching shards are
// ever enumerated and only matching rows are ever returned. The connector
// reports an indexed layout on the shard column, which the optimizer uses
// for highly selective filtering.
//
// Tables are versioned (connector.Connector, connector.AppendLog) as a MySQL
// fleet is through its binlog: a table's data version is the binlog position
// of its shards, moved by one for each committed write batch (LoadRows, an
// INSERT's PageSink), and each batch's summary is kept, so the serving tier
// can cache a read's result and keep it across writes none of its scans could
// have seen. The schema version moves on CREATE and DROP.
package shardsql

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector simulates a fleet of MySQL shards.
type Connector struct {
	name   string
	shards int

	mu     sync.RWMutex
	tables map[string]*table
	// versions moves with the rows and schemas it counts, under mu's write
	// lock.
	versions connector.VersionLog
}

type table struct {
	meta     connector.TableMeta
	shardCol string
	shardIdx int
	// shards[i] holds the rows of shard i, indexed by shard-key value.
	shards []map[string][][]types.Value
	stats  connector.TableStats
}

// New creates a sharded catalog with the given shard count.
func New(name string, shards int) *Connector {
	if shards <= 0 {
		shards = 8
	}
	return &Connector{name: name, shards: shards, tables: map[string]*table{}}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// CreateShardedTable registers a table sharded on shardCol, or errors if the
// name is taken.
func (c *Connector) CreateShardedTable(name string, columns []connector.Column, shardCol string) error {
	idx := -1
	for i, col := range columns {
		if col.Name == shardCol {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("shard column %q not in schema", shardCol)
	}
	shards := make([]map[string][][]types.Value, c.shards)
	for i := range shards {
		shards[i] = map[string][][]types.Value{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return fmt.Errorf("table %s.%s already exists", c.name, name)
	}
	c.tables[name] = &table{
		meta: connector.TableMeta{
			Name:    name,
			Columns: columns,
			Layouts: []connector.Layout{{
				Name:      "sharded",
				IndexCols: []string{shardCol},
			}},
		},
		shardCol: shardCol,
		shardIdx: idx,
		shards:   shards,
		stats:    connector.TableStats{ColumnNDV: map[string]int64{}},
	}
	c.versions.SchemaChanged(name)
	return nil
}

// LoadRows routes rows to shards by hash of the shard key, as one write
// batch.
func (c *Connector) LoadRows(name string, rows [][]types.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("table %s.%s does not exist", c.name, name)
	}
	ts := make([]types.Type, len(t.meta.Columns))
	for i, col := range t.meta.Columns {
		ts[i] = col.T
	}
	b := block.NewPageBuilder(ts)
	for _, row := range rows {
		b.AppendRow(row)
	}
	c.commit(name, t, rows, []*block.Page{b.Build()})
	return nil
}

// commit routes a write batch's rows, which pages hold too, to their shards
// and moves the table's data version past the batch. The caller holds c.mu's
// write lock.
func (c *Connector) commit(name string, t *table, rows [][]types.Value, pages []*block.Page) {
	for _, row := range rows {
		key := row[t.shardIdx].String()
		s := shardOf(key, len(t.shards))
		t.shards[s][key] = append(t.shards[s][key], row)
	}
	t.stats.RowCount += int64(len(rows))
	c.versions.Appended(name, connector.SummarizeAppend(t.meta.Columns, pages))
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

func shardOf(key string, n int) int {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
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

// ApplyPushdown implements connector.PushdownCapable: constraints on the
// shard column are fully enforced during the scan, so the engine can drop
// the corresponding filter (§IV-C2).
func (c *Connector) ApplyPushdown(tableName string, d *plan.Domain) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[tableName]
	if !ok || d.All() {
		return nil
	}
	if _, constrained := d.Columns[t.shardCol]; constrained {
		return []string{t.shardCol}
	}
	return nil
}

// split addresses one shard with the pushed-down constraint.
type split struct {
	catalog string
	table   string
	shard   int
	rows    int64
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return nil }
func (s *split) EstimatedRows() int64  { return s.rows }

// Splits implements the Data Location API: point constraints on the shard
// key enumerate only the owning shards, so a point lookup touches exactly
// one MySQL instance (§IV-C2).
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[handle.Table]
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, handle.Table)
	}
	wanted := map[int]bool{}
	all := true
	if d := handle.Constraint; !d.All() {
		if cd, constrained := d.Columns[t.shardCol]; constrained && len(cd.Points) > 0 {
			all = false
			for _, p := range cd.Points {
				if !p.Null || cd.NullAllowed {
					wanted[shardOf(p.String(), len(t.shards))] = true
				}
			}
		}
	}
	var splits []connector.Split
	for i := range t.shards {
		if !all && !wanted[i] {
			continue
		}
		splits = append(splits, &split{catalog: c.name, table: handle.Table, shard: i, rows: int64(len(t.shards[i]))})
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

// PageSource implements the Data Source API: the shard applies the pushed
// constraint itself, returning only matching rows — the "only matching data
// is ever read from MySQL" property (§IV-C2). The read lock covers the read
// of the shard, which a concurrent write batch extends.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	ss, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, okT := c.tables[ss.table]
	if !okT {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, ss.table)
	}
	cols := make([]int, len(columns))
	ts := make([]types.Type, len(columns))
	for i, name := range columns {
		ci := t.meta.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("column %q does not exist in %s", name, ss.table)
		}
		cols[i] = ci
		ts[i] = t.meta.Columns[ci].T
	}

	shard := t.shards[ss.shard]
	b := block.NewPageBuilder(ts)
	out := make([]types.Value, len(cols))
	emit := func(row []types.Value) {
		for i, ci := range cols {
			out[i] = row[ci]
		}
		b.AppendRow(out)
	}
	var cd *plan.ColumnDomain
	if d := handle.Constraint; !d.All() {
		cd = d.Columns[t.shardCol]
	}
	if cd != nil && len(cd.Points) > 0 {
		// Point lookups: index access within the shard.
		for _, p := range cd.Points {
			if p.Null && !cd.NullAllowed {
				continue // the empty set's point
			}
			for _, row := range shard[p.String()] {
				emit(row)
			}
		}
	} else {
		for _, rows := range shard {
			for _, row := range rows {
				if cd != nil && !cd.Contains(row[t.shardIdx]) {
					continue
				}
				emit(row)
			}
		}
	}
	page := b.Build()
	return &singlePageSource{page: page}, nil
}

type singlePageSource struct {
	page *block.Page
	done bool
}

func (p *singlePageSource) NextPage() (*block.Page, error) {
	if p.done || p.page.RowCount() == 0 {
		return nil, nil
	}
	p.done = true
	return p.page, nil
}

func (p *singlePageSource) BytesRead() int64 {
	if p.page == nil {
		return 0
	}
	return p.page.SizeBytes()
}
func (p *singlePageSource) Close() {}

// CreateTable implements DDL, sharding on the first column.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) == 0 {
		return fmt.Errorf("shardsql tables require at least one column")
	}
	return c.CreateShardedTable(name, columns, columns[0].Name)
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
func (c *Connector) PageSink(name string) (connector.PageSink, error) {
	c.mu.RLock()
	_, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, name)
	}
	return &pageSink{c: c, table: name}, nil
}

type pageSink struct {
	c     *Connector
	table string
	rows  [][]types.Value
	pages []*block.Page
}

func (s *pageSink) Append(p *block.Page) error {
	for r := 0; r < p.RowCount(); r++ {
		s.rows = append(s.rows, p.Row(r))
	}
	s.pages = append(s.pages, p.DecodeAll())
	return nil
}

// Finish commits the rows appended as one write batch.
func (s *pageSink) Finish() (int64, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	t, ok := s.c.tables[s.table]
	if !ok {
		return 0, fmt.Errorf("table %s.%s vanished during write", s.c.name, s.table)
	}
	s.c.commit(s.table, t, s.rows, s.pages)
	return int64(len(s.rows)), nil
}

func (s *pageSink) Abort() { s.rows, s.pages = nil, nil }

// Index implements connector.Indexed on the shard column.
func (c *Connector) Index(tableName string, keyCols, outCols []string) (connector.IndexLookup, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[tableName]
	if !ok || len(keyCols) != 1 || keyCols[0] != t.shardCol {
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
	return &indexLookup{c: c, t: t, cols: cols, ts: ts}, true
}

type indexLookup struct {
	c    *Connector
	t    *table
	cols []int
	ts   []types.Type
}

// Lookup probes the owning shard directly, under the connector's read lock.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	l.c.mu.RLock()
	defer l.c.mu.RUnlock()
	key := keys[0].String()
	shard := l.t.shards[shardOf(key, len(l.t.shards))]
	rows := shard[key]
	if len(rows) == 0 {
		return nil, nil
	}
	b := block.NewPageBuilder(l.ts)
	out := make([]types.Value, len(l.cols))
	for _, row := range rows {
		for i, ci := range l.cols {
			out[i] = row[ci]
		}
		b.AppendRow(out)
	}
	return b.Build(), nil
}
