// Package memconn implements an in-memory catalog: tables are slices of
// pages partitioned into splits. It is the simplest complete implementation
// of the Connector API and the default catalog for tests and examples.
package memconn

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"sync"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/types"
)

// Connector is an in-memory catalog.
type Connector struct {
	name string

	mu     sync.RWMutex
	tables map[string]*table
	// versions counts mutations per table (connector.Versioned): plans,
	// cached results and recorded cardinalities are valid for one version.
	versions map[string]int64
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

// New creates an empty in-memory catalog with the given name.
func New(name string) *Connector {
	return &Connector{name: name, tables: map[string]*table{}, versions: map[string]int64{}, SplitsPerTable: 4}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

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

// TableVersion implements connector.Versioned.
func (c *Connector) TableVersion(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[name]
}

// Stats implements the Metadata API. Statistics are computed on load.
func (c *Connector) Stats(name string) connector.TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return connector.NoStats
	}
	return t.stats
}

// CreateTable implements DDL.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return fmt.Errorf("table %s.%s already exists", c.name, name)
	}
	c.tables[name] = &table{
		meta:  connector.TableMeta{Name: name, Columns: columns},
		stats: connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}},
	}
	c.versions[name]++
	return nil
}

// DropTable implements DDL.
func (c *Connector) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; !exists {
		return fmt.Errorf("table %s.%s does not exist", c.name, name)
	}
	delete(c.tables, name)
	c.versions[name]++
	return nil
}

// LoadTable registers a table with data, computing statistics.
func (c *Connector) LoadTable(name string, columns []connector.Column, pages []*block.Page) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &table{meta: connector.TableMeta{Name: name, Columns: columns}}
	t.pages = t.encodeLowCardinality(pages)
	t.foldStats(t.pages)
	c.tables[name] = t
	c.versions[name]++
}

// AppendRows adds boxed rows to an existing table (used by examples).
func (c *Connector) AppendRows(name string, rows [][]types.Value) error {
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
	for _, r := range rows {
		b.AppendRow(r)
	}
	pages := []*block.Page{b.Build()}
	t.appendPages(pages)
	t.foldStats(pages)
	c.versions[name]++
	return nil
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[handle.Table]
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, handle.Table)
	}
	n := c.SplitsPerTable
	if n <= 0 {
		n = 4
	}
	var splits []connector.Split
	total := len(t.pages)
	if total == 0 {
		return &sliceSplitSource{}, nil
	}
	per := (total + n - 1) / n
	for from := 0; from < total; from += per {
		to := from + per
		if to > total {
			to = total
		}
		var rows int64
		for _, p := range t.pages[from:to] {
			rows += int64(p.RowCount())
		}
		splits = append(splits, &split{catalog: c.name, table: handle.Table, from: from, to: to, rows: rows,
			tbl: t, pages: t.pages[from:to]})
	}
	return &sliceSplitSource{splits: splits}, nil
}

// sliceSplitSource enumerates a fixed split list in batches.
type sliceSplitSource struct {
	splits []connector.Split
	pos    int
}

func (s *sliceSplitSource) NextBatch(max int) (connector.SplitBatch, error) {
	end := s.pos + max
	if end > len(s.splits) {
		end = len(s.splits)
	}
	b := connector.SplitBatch{Splits: s.splits[s.pos:end], Done: end == len(s.splits)}
	s.pos = end
	return b, nil
}

func (s *sliceSplitSource) Close() {}

// pageSource replays the split's pages with the requested columns.
type pageSource struct {
	pages []*block.Page
	cols  []int
	pos   int
	bytes int64
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
		c.mu.RLock()
		if t, ok = c.tables[ms.table]; ok {
			// A range computed against another version can out-range a table
			// that was dropped and recreated smaller; clamp rather than panic.
			to := min(ms.to, len(t.pages))
			pages = t.pages[min(ms.from, to):to]
		}
		c.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("table %s.%s does not exist", c.name, ms.table)
		}
	}
	cols := make([]int, len(columns))
	for i, name := range columns {
		idx := t.meta.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("column %q does not exist in %s", name, ms.table)
		}
		cols[i] = idx
	}
	return &pageSource{pages: pages, cols: cols}, nil
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
	for i, c := range p.cols {
		cols[i] = src.Col(c)
	}
	out := block.NewPage(cols...)
	p.bytes += out.SizeBytes()
	return out, nil
}

func (p *pageSource) BytesRead() int64 { return p.bytes }
func (p *pageSource) Close()           {}

// pageSink buffers pages and commits them to the table.
type pageSink struct {
	c     *Connector
	table string
	pages []*block.Page
	rows  int64
}

// PageSink implements the Data Sink API.
func (c *Connector) PageSink(table string) (connector.PageSink, error) {
	c.mu.RLock()
	_, ok := c.tables[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, table)
	}
	return &pageSink{c: c, table: table}, nil
}

func (s *pageSink) Append(p *block.Page) error {
	s.pages = append(s.pages, p.DecodeAll())
	s.rows += int64(p.RowCount())
	return nil
}

func (s *pageSink) Finish() (int64, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	t, ok := s.c.tables[s.table]
	if !ok {
		return 0, fmt.Errorf("table %s.%s vanished during write", s.c.name, s.table)
	}
	t.appendPages(s.pages)
	t.foldStats(s.pages)
	s.c.versions[s.table]++
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
	return &split{catalog: c.name, table: ws.Table, from: ws.From, to: ws.To, rows: ws.Rows}, nil
}

// ZeroCopy implements connector.ZeroCopyScans: memconn page sources re-wrap
// the shared column blocks, so scans copy nothing.
func (c *Connector) ZeroCopy() bool { return true }
