// Package kvconn implements a key-value store connector in the style of the
// paper's Redis connector (§IV-D3): splits carry the table's key space and a
// host list; scans stream key/value entries; and the store's primary-key
// index supports index joins against normalized warehouse data (§IV-C1's
// "joining against production data stores").
package kvconn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector exposes in-memory key-value namespaces as two-or-more-column
// tables whose first column is the key.
type Connector struct {
	name string

	mu     sync.RWMutex
	tables map[string]*kvTable
	// versions moves with the rows and schemas it counts, under mu's write
	// lock. A Put may replace a row, so it is a change the log holds no
	// summary of: the connector keeps no append log.
	versions connector.VersionLog
}

type kvTable struct {
	meta connector.TableMeta
	// data maps key → row (including the key as column 0).
	data map[string][]types.Value
}

// New creates an empty key-value catalog.
func New(name string) *Connector {
	return &Connector{name: name, tables: map[string]*kvTable{}}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// CreateTable implements DDL; the first column is the key.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) < 1 {
		return fmt.Errorf("kv tables require at least a key column")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("table %s.%s already exists", c.name, name)
	}
	c.tables[name] = &kvTable{
		meta: connector.TableMeta{
			Name:    name,
			Columns: columns,
			Layouts: []connector.Layout{{
				Name:      "pk",
				IndexCols: []string{columns[0].Name},
			}},
		},
		data: map[string][]types.Value{},
	}
	c.versions.SchemaChanged(name)
	return nil
}

// Put stores one row under its key.
func (c *Connector) Put(table string, row []types.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("table %s.%s does not exist", c.name, table)
	}
	t.data[row[0].String()] = row
	c.versions.Changed(table)
	return nil
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
	t, ok := c.tables[name]
	if !ok {
		return connector.NoStats
	}
	return connector.TableStats{RowCount: int64(len(t.data)), ColumnNDV: map[string]int64{
		t.meta.Columns[0].Name: int64(len(t.data)),
	}}
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

// split carries table info, key format, and hosts — the shape the paper
// describes for Redis splits (§IV-D3).
type split struct {
	catalog string
	table   string
	hosts   []string
	rows    int64
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return nil }
func (s *split) EstimatedRows() int64  { return s.rows }

// Splits implements the Data Location API: a single split naming the hosts.
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	c.mu.RLock()
	t, ok := c.tables[handle.Table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, handle.Table)
	}
	s := &split{catalog: c.name, table: handle.Table, hosts: []string{"kv-host-0"}, rows: int64(len(t.data))}
	return &oneSplit{s: s}, nil
}

type oneSplit struct {
	s    connector.Split
	done bool
}

func (o *oneSplit) NextBatch(max int) (connector.SplitBatch, error) {
	if o.done {
		return connector.SplitBatch{Done: true}, nil
	}
	o.done = true
	return connector.SplitBatch{Splits: []connector.Split{o.s}, Done: true}, nil
}

func (o *oneSplit) Close() {}

// PageSource implements the Data Source API: a full keyspace scan in key
// order.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	ks, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	c.mu.RLock()
	t, okT := c.tables[ks.table]
	c.mu.RUnlock()
	if !okT {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, ks.table)
	}
	cols := make([]int, len(columns))
	ts := make([]types.Type, len(columns))
	for i, name := range columns {
		ci := t.meta.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("column %q does not exist in %s", name, ks.table)
		}
		cols[i] = ci
		ts[i] = t.meta.Columns[ci].T
	}
	keys := make([]string, 0, len(t.data))
	for k := range t.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := block.NewPageBuilder(ts)
	out := make([]types.Value, len(cols))
	for _, k := range keys {
		row := t.data[k]
		for i, ci := range cols {
			out[i] = row[ci]
		}
		b.AppendRow(out)
	}
	return &singlePage{page: b.Build()}, nil
}

type singlePage struct {
	page *block.Page
	done bool
}

func (p *singlePage) NextPage() (*block.Page, error) {
	if p.done || p.page.RowCount() == 0 {
		return nil, nil
	}
	p.done = true
	return p.page, nil
}

func (p *singlePage) BytesRead() int64 {
	if p.page == nil {
		return 0
	}
	return p.page.SizeBytes()
}
func (p *singlePage) Close() {}

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

// PageSink implements the Data Sink API (upserts by key).
func (c *Connector) PageSink(table string) (connector.PageSink, error) {
	c.mu.RLock()
	_, ok := c.tables[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, table)
	}
	return &pageSink{c: c, table: table}, nil
}

type pageSink struct {
	c     *Connector
	table string
	rows  int64
}

func (s *pageSink) Append(p *block.Page) error {
	for r := 0; r < p.RowCount(); r++ {
		if err := s.c.Put(s.table, p.Row(r)); err != nil {
			return err
		}
		s.rows++
	}
	return nil
}

func (s *pageSink) Finish() (int64, error) { return s.rows, nil }
func (s *pageSink) Abort()                 {}

// Index implements connector.Indexed on the key column.
func (c *Connector) Index(tableName string, keyCols, outCols []string) (connector.IndexLookup, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[tableName]
	if !ok || len(keyCols) != 1 || keyCols[0] != t.meta.Columns[0].Name {
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
	return &indexLookup{t: t, cols: cols, ts: ts}, true
}

type indexLookup struct {
	t    *kvTable
	cols []int
	ts   []types.Type
}

// Lookup implements connector.IndexLookup: a point get by key.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	row, ok := l.t.data[keys[0].String()]
	if !ok {
		return nil, nil
	}
	b := block.NewPageBuilder(l.ts)
	out := make([]types.Value, len(l.cols))
	for i, ci := range l.cols {
		out[i] = row[ci]
	}
	b.AppendRow(out)
	return b.Build(), nil
}
