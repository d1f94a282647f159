// Package memconn implements an in-memory catalog: tables are slices of
// pages partitioned into splits. It is the simplest complete implementation
// of the Connector API and the default catalog for tests and examples.
package memconn

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector is an in-memory catalog. Its catalog moves a table's schema
// version on CreateTable, DropTable and LoadTable and its data version on
// every append.
type Connector struct {
	connector.AppendCatalog[*table]
	// SplitsPerTable controls how many splits a scan enumerates (default 4).
	SplitsPerTable int
}

type table struct {
	meta  connector.TableMeta
	pages []*block.Page
	stats connector.TableStats
	// ndv holds, per column, one 64-bit identity per distinct non-null cell
	// seen, so that an insert folds in only the pages it appends.
	ndv []map[uint64]struct{}
	// dicts holds, per column, the dictionary LoadTable encoded it under (nil:
	// stored as it arrived). Its entries are in ndv already, each once.
	dicts []block.Block
}

func (t *table) Meta() *connector.TableMeta { return &t.meta }

// New creates an empty in-memory catalog with the given name.
func New(name string) *Connector {
	return &Connector{AppendCatalog: connector.NewAppendCatalog[*table](name), SplitsPerTable: 4}
}

// Stats implements the Metadata API. Statistics are computed on load.
func (c *Connector) Stats(name string) connector.TableStats {
	stats := connector.NoStats
	c.Read(name, func(t *table) error { stats = t.stats; return nil })
	return stats
}

// CreateTable implements DDL.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	return c.Create(name, &table{
		meta:  connector.TableMeta{Name: name, Columns: columns},
		stats: connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}},
	})
}

// LoadTable registers a table with data, computing statistics.
func (c *Connector) LoadTable(name string, columns []connector.Column, pages []*block.Page) {
	t := &table{meta: connector.TableMeta{Name: name, Columns: columns}}
	t.pages = t.encodeLowCardinality(pages)
	t.foldStats(t.pages)
	c.Replace(name, t)
}

// AppendRows adds boxed rows to an existing table (used by examples).
func (c *Connector) AppendRows(name string, rows [][]types.Value) error {
	return c.Write(name, func(t *table, v *connector.VersionLog) error {
		b := block.NewPageBuilder(t.meta.Types())
		for _, r := range rows {
			b.AppendRow(r)
		}
		t.append(name, v, []*block.Page{b.Build()})
		return nil
	})
}

// append publishes pages at the table's tail and moves its data version; the
// caller holds the catalog's write lock.
func (t *table) append(name string, v *connector.VersionLog, pages []*block.Page) {
	v.Appended(name, connector.SummarizeAppend(t.meta.Columns, pages))
	t.appendPages(pages)
	t.foldStats(pages)
}

// mergeTarget is the row count written pages are merged up to: the page size
// workload.LoadTPCHMemory loads at.
const mergeTarget = 4096

// appendPages publishes written pages at the table's tail. A page first takes
// in the tail page while that one has no more rows than it and the two fit
// mergeTarget, so a table written a row at a time holds a binary counter of
// pages (a row is copied about log2(mergeTarget) times, a full page never)
// and not a page per INSERT. Readers hold sub-slices of t.pages, so the first
// merge moves to a private copy, published at the end; a plain append writes
// past every reader's end.
func (t *table) appendPages(in []*block.Page) {
	pages, private := t.pages, false
	for _, p := range in {
		if p.RowCount() == 0 {
			continue
		}
		keep := len(pages)
		for keep > 0 {
			tail := pages[keep-1]
			if tail.RowCount() > p.RowCount() || tail.RowCount()+p.RowCount() > mergeTarget {
				break
			}
			p = block.ConcatPages([]*block.Page{tail, p})
			keep--
		}
		if keep < len(pages) && !private {
			pages, private = pages[:keep:keep], true // append copies
		}
		pages = append(pages[:keep], p)
	}
	t.pages = pages
}

// dictMaxEntries is the one bound of the stored encoding: a varchar column is
// kept under a dictionary while its distinct values (NULL is one) number at
// most this many. It covers the enumerations a warehouse groups and filters by
// (flags, modes, brands, types — the TPC-H specification's widest has 150 values) and is a
// sixteenth of the 4096-row page tables load at, so on a full page a pass over
// the dictionary, or over a pair of small ones, is small beside the pass over
// the rows it replaces.
const dictMaxEntries = 256

// encodeLowCardinality returns the pages a table loads with: every varchar
// column that arrives flat on all of them and stays within dictMaxEntries is
// stored as indices into one dictionary block the column's pages share (paper
// §V-C), so that filters, projections and group tables downstream meet the
// same dictionary page after page and do their work once per entry (§V-E).
// The dictionary's entries are the column's distinct values: they go into the
// NDV set here, once each, and foldStats skips the column's rows.
func (t *table) encodeLowCardinality(pages []*block.Page) []*block.Page {
	t.initNDV()
	t.dicts = make([]block.Block, len(t.meta.Columns))
	out, copied := pages, false
	indices := make([][]int32, len(pages))
	for ci, col := range t.meta.Columns {
		if col.T != types.Varchar || len(pages) == 0 {
			continue
		}
		var enc block.DictEncoder
		ok := true
		for pi, p := range pages {
			flat, isFlat := p.Col(ci).(*block.VarcharBlock)
			if ok = isFlat; ok {
				indices[pi], ok = enc.Encode(flat, dictMaxEntries)
			}
			if !ok {
				break
			}
		}
		if !ok || enc.Len() == 0 {
			continue
		}
		dict := enc.Dict()
		foldDistinct(t.ndv[ci], dict)
		t.dicts[ci] = dict
		if !copied { // the caller's pages are not ours to rewrite
			out, copied = make([]*block.Page, len(pages)), true
			for pi, p := range pages {
				out[pi] = block.NewPage(append([]block.Block(nil), p.Cols...)...)
			}
		}
		for pi := range out {
			out[pi].Cols[ci] = block.NewDictionaryBlock(dict, indices[pi])
		}
	}
	return out
}

func (t *table) initNDV() {
	if t.ndv == nil {
		t.ndv = make([]map[uint64]struct{}, len(t.meta.Columns))
		for i := range t.ndv {
			t.ndv[i] = map[uint64]struct{}{}
		}
	}
}

// foldStats adds pages, which the caller has appended (or is loading), to the
// table's statistics: the row count, each column's count of distinct non-null
// values, and how many pages the table now holds. It publishes a new
// ColumnNDV map, never writes the one a reader may hold.
func (t *table) foldStats(pages []*block.Page) {
	t.initNDV()
	rows := t.stats.RowCount
	for _, p := range pages {
		rows += int64(p.RowCount())
		for ci := range t.meta.Columns {
			col := p.Col(ci)
			if d, ok := col.(*block.DictionaryBlock); ok && t.dicts != nil && d.Dict == t.dicts[ci] {
				continue // the table's own dictionary: folded when it was built
			}
			foldDistinct(t.ndv[ci], col)
		}
	}
	ndv := make(map[string]int64, len(t.meta.Columns))
	for i, col := range t.meta.Columns {
		ndv[col.Name] = int64(len(t.ndv[i]))
	}
	t.stats = connector.TableStats{RowCount: rows, ColumnNDV: ndv, Pages: int64(len(t.pages))}
}

var ndvSeed = maphash.MakeSeed()

// foldDistinct adds the identity of every non-null cell of col to set. Two
// cells share an identity when they render the same (Value.String): an
// integer, date or boolean is its own identity and so is a double's bit
// pattern (-0.0 is not 0.0; every NaN is one value); a string, and anything
// else through its rendering, is a 64-bit hash, whose collisions among a
// table's values are too rare to move a cardinality estimate.
func foldDistinct(set map[uint64]struct{}, col block.Block) {
	var last uint64
	seen := false
	typ := col.Type()
	for r, n := 0, col.Len(); r < n; r++ {
		if col.IsNull(r) {
			continue
		}
		var id uint64
		switch typ {
		case types.Bigint, types.Date:
			id = uint64(col.Long(r))
		case types.Double:
			f := col.Double(r)
			if f != f {
				f = math.NaN()
			}
			id = math.Float64bits(f)
		case types.Boolean:
			if col.Bool(r) {
				id = 1
			}
		case types.Varchar:
			id = maphash.String(ndvSeed, col.Str(r))
		default:
			id = maphash.String(ndvSeed, col.Value(r).String())
		}
		// Runs of one value are common (clustered keys, flags): skip the
		// lookup for a repeat of the cell before.
		if seen && id == last {
			continue
		}
		last, seen = id, true
		set[id] = struct{}{}
	}
}

// split is a contiguous page range of a table. One enumerated here carries
// the pages it ranges over, as they were at enumeration: a write may merge the
// table's tail pages, so page indices do not outlive a table version. One
// decoded from the wire has only the range, resolved against the worker's own
// (read-only) copy of the table.
type split struct {
	catalog string
	table   string
	from    int // page index
	to      int
	rows    int64
	tbl     *table // the table enumerated, nil when decoded from the wire
	pages   []*block.Page
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return nil }
func (s *split) EstimatedRows() int64  { return s.rows }

// Splits implements the Data Location API. The read lock covers the page
// enumeration: a concurrent writer's Finish swaps the pages slice, and split
// ranges must come from one consistent snapshot.
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	var splits []connector.Split
	err := c.Read(handle.Table, func(t *table) error {
		n := c.SplitsPerTable
		if n <= 0 {
			n = 4
		}
		total := len(t.pages)
		per := (total + n - 1) / n
		for from := 0; from < total; from += per {
			to := min(from+per, total)
			var rows int64
			for _, p := range t.pages[from:to] {
				rows += int64(p.RowCount())
			}
			splits = append(splits, &split{catalog: c.Name(), table: handle.Table, from: from, to: to, rows: rows,
				tbl: t, pages: t.pages[from:to]})
		}
		return nil
	})
	return connector.ListSplits(splits), err
}

// PageSource implements the Data Source API. A split enumerated by this
// connector is read from its own snapshot (pages and metadata are immutable
// once published). A split from the wire is resolved against the table under
// the read lock, which covers the page-range slice: a concurrent writer's
// Finish replaces t.pages.
func (c *Connector) PageSource(s connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	ms, ok := s.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", s)
	}
	t, pages := ms.tbl, ms.pages
	if t == nil {
		err := c.Read(ms.table, func(stored *table) error {
			// A range computed against another version can out-range a table
			// that was dropped and recreated smaller; clamp rather than panic.
			to := min(ms.to, len(stored.pages))
			t, pages = stored, stored.pages[min(ms.from, to):to]
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	cols, _, err := t.meta.Resolve(columns)
	if err != nil {
		return nil, err
	}
	return connector.ReadPages(pages, cols), nil
}

// pageSink buffers pages and commits them to the table.
type pageSink struct {
	c     *Connector
	table string
	pages []*block.Page
	rows  int64
}

// PageSink implements the Data Sink API.
func (c *Connector) PageSink(name string) (connector.PageSink, error) {
	if err := c.Check(name); err != nil {
		return nil, err
	}
	return &pageSink{c: c, table: name}, nil
}

func (s *pageSink) Append(p *block.Page) error {
	s.pages = append(s.pages, p.DecodeAll())
	s.rows += int64(p.RowCount())
	return nil
}

func (s *pageSink) Finish() (int64, error) {
	err := s.c.Write(s.table, func(t *table, v *connector.VersionLog) error {
		t.append(s.table, v, s.pages)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return s.rows, nil
}

func (s *pageSink) Abort() { s.pages = nil }

// wireSplit is the JSON wire form of a split for cross-process scheduling.
type wireSplit struct {
	Table string `json:"table"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Rows  int64  `json:"rows"`
}

// EncodeSplit implements connector.SplitCodec.
func (c *Connector) EncodeSplit(s connector.Split) ([]byte, error) {
	ms, ok := s.(*split)
	if !ok {
		return nil, fmt.Errorf("memconn: cannot encode split %T", s)
	}
	return json.Marshal(wireSplit{Table: ms.table, From: ms.from, To: ms.to, Rows: ms.rows})
}

// DecodeSplit implements connector.SplitCodec. The catalog is stamped with
// this connector's name so a decoded split routes like a local one.
func (c *Connector) DecodeSplit(data []byte) (connector.Split, error) {
	var ws wireSplit
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("memconn: decode split: %w", err)
	}
	if ws.From < 0 || ws.To < ws.From {
		return nil, fmt.Errorf("memconn: decode split: bad page range [%d,%d)", ws.From, ws.To)
	}
	return &split{catalog: c.Name(), table: ws.Table, from: ws.From, to: ws.To, rows: ws.Rows}, nil
}
