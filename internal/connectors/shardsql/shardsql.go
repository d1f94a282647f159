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
	"encoding/json"
	"fmt"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector simulates a fleet of MySQL shards. Its catalog's versions move
// with the rows and schemas they count.
type Connector struct {
	connector.AppendCatalog[*table]
	shards int
}

type table struct {
	meta     connector.TableMeta
	shardCol string
	shardIdx int
	// shards[i] holds the rows of shard i, by shard key.
	shards []map[connector.Key][][]types.Value
	stats  connector.TableStats
	ndv    connector.Distinct
}

func (t *table) Meta() *connector.TableMeta { return &t.meta }

// New creates a sharded catalog with the given shard count.
func New(name string, shards int) *Connector {
	if shards <= 0 {
		shards = 8
	}
	return &Connector{AppendCatalog: connector.NewAppendCatalog[*table](name), shards: shards}
}

// CreateShardedTable registers a table sharded on shardCol, or errors if the
// name is taken.
func (c *Connector) CreateShardedTable(name string, columns []connector.Column, shardCol string) error {
	meta := connector.TableMeta{Name: name, Columns: columns, Layouts: []connector.Layout{{
		Name:      "sharded",
		IndexCols: []string{shardCol},
	}}}
	idx := meta.ColumnIndex(shardCol)
	if idx < 0 {
		return fmt.Errorf("shard column %q not in schema", shardCol)
	}
	shards := make([]map[connector.Key][][]types.Value, c.shards)
	for i := range shards {
		shards[i] = map[connector.Key][][]types.Value{}
	}
	return c.Create(name, &table{
		meta:     meta,
		shardCol: shardCol,
		shardIdx: idx,
		shards:   shards,
		stats:    connector.TableStats{ColumnNDV: map[string]int64{}},
		ndv:      make(connector.Distinct, len(columns)),
	})
}

// LoadRows routes rows to shards by hash of the shard key, as one write
// batch.
func (c *Connector) LoadRows(name string, rows [][]types.Value) error {
	return c.Write(name, func(t *table, v *connector.VersionLog) error {
		b := block.NewPageBuilder(t.meta.Types())
		for _, row := range rows {
			b.AppendRow(row)
		}
		t.commit(name, v, rows, []*block.Page{b.Build()})
		return nil
	})
}

// commit routes a write batch's rows, which pages hold too, to their shards,
// folds the pages into the table's statistics and moves the table's data
// version past the batch. The caller holds the catalog's write lock.
func (t *table) commit(name string, v *connector.VersionLog, rows [][]types.Value, pages []*block.Page) {
	for _, row := range rows {
		key := connector.KeyOf(row[t.shardIdx])
		s := t.shards[shardOf(key, len(t.shards))]
		s[key] = append(s[key], row)
	}
	t.stats = t.ndv.Fold(t.stats, t.meta.Columns, pages)
	v.Appended(name, connector.SummarizeAppend(t.meta.Columns, pages))
}

// shardOf routes a key to its shard by the key hash of its text. NULL shares
// the empty string's shard, under a key of its own.
func shardOf(key connector.Key, n int) int {
	return block.Route(block.HashString(key.S), n)
}

// Stats implements the Metadata API.
func (c *Connector) Stats(name string) connector.TableStats {
	stats := connector.NoStats
	c.Read(name, func(t *table) error { stats = t.stats; return nil })
	return stats
}

// ApplyPushdown implements connector.PushdownCapable: constraints on the
// shard column are fully enforced during the scan, so the engine can drop
// the corresponding filter (§IV-C2).
func (c *Connector) ApplyPushdown(tableName string, d *plan.Domain) []string {
	var enforced []string
	c.Read(tableName, func(t *table) error {
		if !d.All() && d.Columns[t.shardCol] != nil {
			enforced = []string{t.shardCol}
		}
		return nil
	})
	return enforced
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

// wireSplit is the JSON wire form of a split for cross-process scheduling.
type wireSplit struct {
	Table string `json:"table"`
	Shard int    `json:"shard"`
	Rows  int64  `json:"rows"`
}

// EncodeSplit implements connector.SplitCodec.
func (c *Connector) EncodeSplit(s connector.Split) ([]byte, error) {
	ss, ok := s.(*split)
	if !ok {
		return nil, fmt.Errorf("shardsql: cannot encode split %T", s)
	}
	return json.Marshal(wireSplit{Table: ss.table, Shard: ss.shard, Rows: ss.rows})
}

// DecodeSplit implements connector.SplitCodec. The catalog is stamped with
// this connector's name so a decoded split routes like a local one.
func (c *Connector) DecodeSplit(data []byte) (connector.Split, error) {
	var ws wireSplit
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("shardsql: decode split: %w", err)
	}
	if ws.Shard < 0 || ws.Shard >= c.shards {
		return nil, fmt.Errorf("shardsql: decode split: shard %d of %d", ws.Shard, c.shards)
	}
	return &split{catalog: c.Name(), table: ws.Table, shard: ws.Shard, rows: ws.Rows}, nil
}

// Splits implements the Data Location API: point constraints on the shard
// key enumerate only the owning shards, so a point lookup touches exactly
// one MySQL instance (§IV-C2).
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	var splits []connector.Split
	err := c.Read(handle.Table, func(t *table) error {
		var wanted map[int]bool // nil: every shard
		if cd := shardDomain(handle, t); cd != nil && len(cd.Points) > 0 {
			wanted = map[int]bool{}
			for _, p := range cd.Points {
				if !p.Null || cd.NullAllowed {
					wanted[shardOf(connector.KeyOf(p), len(t.shards))] = true
				}
			}
		}
		for i := range t.shards {
			if wanted == nil || wanted[i] {
				splits = append(splits, &split{catalog: c.Name(), table: handle.Table, shard: i, rows: int64(len(t.shards[i]))})
			}
		}
		return nil
	})
	return connector.ListSplits(splits), err
}

// shardDomain returns the handle's constraint on the table's shard column
// (nil: none).
func shardDomain(handle plan.TableHandle, t *table) *plan.ColumnDomain {
	if d := handle.Constraint; !d.All() {
		return d.Columns[t.shardCol]
	}
	return nil
}

// PageSource implements the Data Source API: the shard applies the pushed
// constraint itself, returning only matching rows — the "only matching data
// is ever read from MySQL" property (§IV-C2). The read lock covers the read
// of the shard, which a concurrent write batch extends.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	ss, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	var page *block.Page
	err := c.Read(ss.table, func(t *table) error {
		cols, ts, err := t.meta.Resolve(columns)
		if err != nil {
			return err
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
		if cd := shardDomain(handle, t); cd != nil && len(cd.Points) > 0 {
			// Point lookups: index access within the shard.
			for _, p := range cd.Points {
				if p.Null && !cd.NullAllowed {
					continue // the empty set's point
				}
				for _, row := range shard[connector.KeyOf(p)] {
					emit(row)
				}
			}
		} else {
			for _, rows := range shard {
				for _, row := range rows {
					if cd == nil || cd.Contains(row[t.shardIdx]) {
						emit(row)
					}
				}
			}
		}
		page = b.Build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return connector.ReadPages([]*block.Page{page}, nil), nil
}

// CreateTable implements DDL, sharding on the first column.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	if len(columns) == 0 {
		return fmt.Errorf("shardsql tables require at least one column")
	}
	return c.CreateShardedTable(name, columns, columns[0].Name)
}

// PageSink implements the Data Sink API.
func (c *Connector) PageSink(name string) (connector.PageSink, error) {
	if err := c.Check(name); err != nil {
		return nil, err
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
	err := s.c.Write(s.table, func(t *table, v *connector.VersionLog) error {
		t.commit(s.table, v, s.rows, s.pages)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return int64(len(s.rows)), nil
}

func (s *pageSink) Abort() { s.rows, s.pages = nil, nil }

// Index implements connector.Indexed on the shard column.
func (c *Connector) Index(tableName string, keyCols, outCols []string) (connector.IndexLookup, bool) {
	var l *indexLookup
	c.Read(tableName, func(t *table) error {
		if len(keyCols) != 1 || keyCols[0] != t.shardCol {
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
	t    *table
	cols []int
	ts   []types.Type
}

// Lookup probes the owning shard directly, under the catalog's read lock. It
// finds nothing once the table it probes is replaced.
func (l *indexLookup) Lookup(keys []types.Value) (*block.Page, error) {
	if len(keys) != 1 || keys[0].Null {
		return nil, nil
	}
	var out *block.Page
	err := l.c.Read(l.t.meta.Name, func(t *table) error {
		key := connector.KeyOf(keys[0])
		rows := t.shards[shardOf(key, len(t.shards))][key]
		if t != l.t || len(rows) == 0 {
			return nil
		}
		b := block.NewPageBuilder(l.ts)
		row := make([]types.Value, len(l.cols))
		for _, r := range rows {
			for i, ci := range l.cols {
				row[i] = r[ci]
			}
			b.AppendRow(row)
		}
		out = b.Build()
		return nil
	})
	return out, err
}
