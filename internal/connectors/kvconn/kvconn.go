// Package kvconn implements a key-value store connector in the style of the
// paper's Redis connector (§IV-D3): splits carry the table's key space and a
// host list; scans stream key/value entries; and the store's primary-key
// index supports index joins against normalized warehouse data (§IV-C1's
// "joining against production data stores").
package kvconn

import (
	"fmt"
	"sort"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector exposes in-memory key-value namespaces as two-or-more-column
// tables whose first column is the key. A Put may replace a row, so it is a
// change the version log holds no summary of: the connector keeps no append
// log.
type Connector struct {
	*connector.Catalog[*kvTable]
}

type kvTable struct {
	meta connector.TableMeta
	// data maps key → row (including the key as column 0). A NULL key is a
	// key of its own.
	data map[connector.Key][]types.Value
}

func (t *kvTable) Meta() *connector.TableMeta { return &t.meta }

// New creates an empty key-value catalog.
func New(name string) *Connector {
	return &Connector{connector.NewCatalog[*kvTable](name)}
}

// CreateTable implements DDL; the first column is the key.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) < 1 {
		return fmt.Errorf("kv tables require at least a key column")
	}
	return c.Create(name, &kvTable{
		meta: connector.TableMeta{
			Name:    name,
			Columns: columns,
			Layouts: []connector.Layout{{
				Name:      "pk",
				IndexCols: []string{columns[0].Name},
			}},
		},
		data: map[connector.Key][]types.Value{},
	})
}

// Put stores one row under its key.
func (c *Connector) Put(table string, row []types.Value) error {
	return c.Write(table, func(t *kvTable, v *connector.VersionLog) error {
		t.data[connector.KeyOf(row[0])] = row
		v.Changed(table)
		return nil
	})
}

// Stats implements the Metadata API.
func (c *Connector) Stats(name string) connector.TableStats {
	stats := connector.NoStats
	c.Read(name, func(t *kvTable) error {
		stats = connector.TableStats{RowCount: int64(len(t.data)), ColumnNDV: map[string]int64{
			t.meta.Columns[0].Name: int64(len(t.data)),
		}}
		return nil
	})
	return stats
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
	var splits []connector.Split
	err := c.Read(handle.Table, func(t *kvTable) error {
		splits = []connector.Split{&split{catalog: c.Name(), table: handle.Table, hosts: []string{"kv-host-0"}, rows: int64(len(t.data))}}
		return nil
	})
	return connector.ListSplits(splits), err
}

// PageSource implements the Data Source API: a full keyspace scan in key
// order (a NULL key first).
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	ks, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	var page *block.Page
	err := c.Read(ks.table, func(t *kvTable) error {
		cols, ts, err := t.meta.Resolve(columns)
		if err != nil {
			return err
		}
		keys := make([]connector.Key, 0, len(t.data))
		for k := range t.data {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].Null && !keys[j].Null || keys[i].Null == keys[j].Null && keys[i].S < keys[j].S
		})
		b := block.NewPageBuilder(ts)
		out := make([]types.Value, len(cols))
		for _, k := range keys {
			row := t.data[k]
			for i, ci := range cols {
				out[i] = row[ci]
			}
			b.AppendRow(out)
		}
		page = b.Build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return connector.ReadPages([]*block.Page{page}, nil), nil
}

// PageSink implements the Data Sink API (upserts by key).
func (c *Connector) PageSink(table string) (connector.PageSink, error) {
	if err := c.Check(table); err != nil {
		return nil, err
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
	var l *indexLookup
	c.Read(tableName, func(t *kvTable) error {
		if len(keyCols) != 1 || keyCols[0] != t.meta.Columns[0].Name {
			return nil
		}
		cols, ts, err := t.meta.Resolve(outCols)
		if err == nil {
			l = &indexLookup{c: c, t: t, cols: cols, ts: ts}
		}
		return nil
	})
	return l, l != nil
}

type indexLookup struct {
	c    *Connector
	t    *kvTable
	cols []int
	ts   []types.Type
}

// Lookup implements connector.IndexLookup: a point get by key, under the
// catalog's read lock. It finds nothing once the table it probes is replaced.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	var out *block.Page
	err := l.c.Read(l.t.meta.Name, func(t *kvTable) error {
		row, ok := t.data[connector.KeyOf(keys[0])]
		if t != l.t || !ok {
			return nil
		}
		b := block.NewPageBuilder(l.ts)
		vals := make([]types.Value, len(l.cols))
		for i, ci := range l.cols {
			vals[i] = row[ci]
		}
		b.AppendRow(vals)
		out = b.Build()
		return nil
	})
	return out, err
}
