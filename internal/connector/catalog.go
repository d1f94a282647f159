package connector

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/types"
)

// Stored is what a connector keeps of one table: its metadata, beside
// whatever holds its rows.
type Stored interface {
	Meta() *TableMeta
}

// Catalog is the table catalog under a connector that keeps its table list in
// process: the tables by name, the lock that guards them and the rows they
// hold, and the VersionLog, whose versions move only under that lock's write
// side, in the critical section that makes the change they count. Embedded,
// it is the connector's Name, Tables, Table, TableVersion, SchemaVersion and
// DropTable; the connector keeps its own storage in T and reaches it only
// through Read and Write.
type Catalog[T Stored] struct {
	name     string
	mu       sync.RWMutex
	tables   map[string]T
	versions VersionLog
}

// NewCatalog returns an empty catalog of the given name.
func NewCatalog[T Stored](name string) *Catalog[T] {
	return &Catalog[T]{name: name, tables: map[string]T{}}
}

// Name implements Connector.
func (c *Catalog[T]) Name() string { return c.name }

// Tables implements the Metadata API.
func (c *Catalog[T]) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// Table implements the Metadata API: a copy of the table's metadata.
func (c *Catalog[T]) Table(name string) *TableMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil
	}
	meta := *t.Meta()
	return &meta
}

// TableVersion implements Connector.
func (c *Catalog[T]) TableVersion(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.TableVersion(name)
}

// SchemaVersion implements Connector.
func (c *Catalog[T]) SchemaVersion(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.SchemaVersion(name)
}

// Create registers t under name, or errors if a table holds the name.
func (c *Catalog[T]) Create(name string, t T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("table %s.%s already exists", c.name, name)
	}
	c.tables[name] = t
	c.versions.SchemaChanged(name)
	return nil
}

// Replace registers t under name, in place of any table that held it.
func (c *Catalog[T]) Replace(name string, t T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[name] = t
	c.versions.SchemaChanged(name)
}

// Discover registers a table that was there before the connector first
// looked, unless a table already holds the name. No version moves: nothing
// has been read of it yet.
func (c *Catalog[T]) Discover(name string, t T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		c.tables[name] = t
	}
}

// DropTable implements DDL.
func (c *Catalog[T]) DropTable(name string) error {
	return c.Write(name, func(_ T, v *VersionLog) error {
		delete(c.tables, name)
		v.SchemaChanged(name)
		return nil
	})
}

// Read runs f on the named table under the read lock, or errors if no table
// holds the name.
func (c *Catalog[T]) Read(name string, f func(T) error) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return c.missing(name)
	}
	return f(t)
}

// Write runs f on the named table under the write lock, or errors if no table
// holds the name. f moves the versions its change counts through v.
func (c *Catalog[T]) Write(name string, f func(t T, v *VersionLog) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return c.missing(name)
	}
	return f(t, &c.versions)
}

// Check errors if no table holds the name.
func (c *Catalog[T]) Check(name string) error {
	return c.Read(name, func(T) error { return nil })
}

func (c *Catalog[T]) missing(name string) error {
	return fmt.Errorf("table %s.%s does not exist", c.name, name)
}

// AppendCatalog is a Catalog whose connector summarises every batch it
// appends (VersionLog.Appended): embedded, it is the connector's AppendLog
// too. A connector that can replace rows in place embeds a Catalog and logs
// no appends.
type AppendCatalog[T Stored] struct{ *Catalog[T] }

// NewAppendCatalog returns an empty append-logging catalog of the given name.
func NewAppendCatalog[T Stored](name string) AppendCatalog[T] {
	return AppendCatalog[T]{NewCatalog[T](name)}
}

// Appends implements AppendLog.
func (c AppendCatalog[T]) Appends(name string, since int64, visit func(*AppendSummary) bool) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions.Appends(name, since, visit)
}

// Key is a value's identity as the key of stored rows (a shard key, a primary
// key, an index entry): values that render alike (types.Value.String) share
// one, and NULL has its own, apart from the VARCHAR 'NULL'.
type Key struct {
	S    string
	Null bool
}

// KeyOf returns v's key.
func KeyOf(v types.Value) Key {
	if v.Null {
		return Key{Null: true}
	}
	return Key{S: v.String()}
}

// ListSplits enumerates a fixed list of splits in batches.
func ListSplits(splits []Split) SplitSource { return &splitList{splits: splits} }

type splitList struct {
	splits []Split
	pos    int
}

func (s *splitList) NextBatch(max int) (SplitBatch, error) {
	end := min(s.pos+max, len(s.splits))
	b := SplitBatch{Splits: s.splits[s.pos:end], Done: end == len(s.splits)}
	s.pos = end
	return b, nil
}

func (s *splitList) Close() {}

// Listed returns the splits of a source ListSplits made and nothing has read
// from: an enumeration already in memory, which costs nothing to take whole.
// Any other source is enumerated batch by batch.
func Listed(src SplitSource) ([]Split, bool) {
	if l, ok := src.(*splitList); ok && l.pos == 0 {
		return l.splits, true
	}
	return nil, false
}

// ReadPages reads stored pages, skipping those of no rows: each page's
// columns at the positions cols, in order (a page of its rows and no columns
// when cols is empty), or the page as stored when cols is nil.
func ReadPages(pages []*block.Page, cols []int) PageSource {
	return &storedPages{pages: pages, cols: cols}
}

type storedPages struct {
	pages []*block.Page
	cols  []int
	bytes int64
}

func (p *storedPages) NextPage() (*block.Page, error) {
	for len(p.pages) > 0 {
		out := p.pages[0]
		p.pages = p.pages[1:]
		if out.RowCount() == 0 {
			continue
		}
		if p.cols != nil {
			cols := make([]block.Block, len(p.cols))
			for i, ci := range p.cols {
				cols[i] = out.Col(ci)
			}
			if len(cols) == 0 {
				out = block.NewEmptyPage(out.RowCount())
			} else {
				out = block.NewPage(cols...)
			}
		}
		p.bytes += out.SizeBytes()
		return out, nil
	}
	return nil, nil
}

func (p *storedPages) BytesRead() int64 { return p.bytes }
func (p *storedPages) Close()           {}
