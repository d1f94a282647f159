// Package hive implements a Hive-warehouse-style connector (paper §II-A):
// tables live in a directory lake as orcish files, optionally partitioned
// into key=value subdirectories. It exercises the paper's warehouse code
// paths: lazy split enumeration over partition directories (§IV-D3),
// partition pruning and min/max stripe skipping from pushed-down predicates
// (§IV-C2, §V-C), lazy column materialization (§V-D), and optional
// table/column statistics for the cost-based optimizer (the Figure 6
// "with stats" configuration).
package hive

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/connector"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/types"
)

// Config tunes the connector.
type Config struct {
	// Dir is the lake root: Dir/<table>/... files.
	Dir string
	// CollectStats exposes table statistics to the optimizer; disabled it
	// reproduces the paper's "no statistics" configuration.
	CollectStats bool
	// LazyReads enables lazy column materialization (§V-D).
	LazyReads bool
	// ReadDelayPerByte simulates remote-storage (HDFS-like) latency in
	// nanoseconds per byte read; 0 disables.
	ReadDelayPerByte int
	// StripeRows sizes written stripes.
	StripeRows int
	// Clock overrides the wall clock (simulated latency and metadata-cache
	// TTL); nil uses time.Now.
	Clock Clock
	// MetadataTTL bounds staleness of cached file footers (default 1m;
	// negative disables footer caching).
	MetadataTTL time.Duration
}

// Connector is a directory-lake catalog.
type Connector struct {
	name  string
	cfg   Config
	clock Clock
	// meta caches decoded file footers keyed by path+mtime+size, fixing the
	// per-query footer re-decode (every PageSource open and every stats
	// refresh used to re-read the footer from disk).
	meta *cache.MetaCache

	mu     sync.RWMutex
	tables map[string]*tableInfo
}

type tableInfo struct {
	meta connector.TableMeta
	// partCols are the partition-directory columns (suffix of meta.Columns).
	partCols []string
	stats    connector.TableStats
}

// New creates (and scans) a hive connector over cfg.Dir.
func New(name string, cfg Config) (*Connector, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("hive connector requires a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallClock
	}
	c := &Connector{name: name, cfg: cfg, clock: clock, tables: map[string]*tableInfo{}}
	ttl := cfg.MetadataTTL
	if ttl == 0 {
		ttl = time.Minute
	}
	if ttl > 0 {
		c.meta = cache.NewMetaCache(ttl, cache.Clock(clock))
	}
	if err := c.rescan(); err != nil {
		return nil, err
	}
	return c, nil
}

// footer returns a file's decoded footer through the metadata cache. The key
// includes mtime and size, so a rewritten file misses naturally; the TTL
// bounds staleness for changes that do not tick the mtime.
func (c *Connector) footer(path string) (*orcish.Footer, error) {
	if c.meta == nil {
		return orcish.ReadFooter(path)
	}
	key, err := footerKey(path)
	if err != nil {
		return nil, err
	}
	if v, ok := c.meta.Get(key); ok {
		return v.(*orcish.Footer), nil
	}
	f, err := orcish.ReadFooter(path)
	if err != nil {
		return nil, err
	}
	c.meta.Put(key, f)
	return f, nil
}

func footerKey(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("footer/%s@%d:%d", path, fi.ModTime().UnixNano(), fi.Size()), nil
}

// MetaStats exposes the footer-cache counters (tests and metrics).
func (c *Connector) MetaStats() cache.MetaStats { return c.meta.Stats() }

// rescan discovers tables from the directory structure.
func (c *Connector) rescan() error {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := c.tables[e.Name()]; ok {
			continue
		}
		info, err := c.loadTableInfo(e.Name())
		if err != nil {
			return fmt.Errorf("scanning table %s: %w", e.Name(), err)
		}
		if info != nil {
			c.tables[e.Name()] = info
		}
	}
	return nil
}

// loadTableInfo derives schema and statistics from the table's files.
func (c *Connector) loadTableInfo(table string) (*tableInfo, error) {
	files, parts, err := listDataFiles(filepath.Join(c.cfg.Dir, table))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	footer, err := c.footer(files[0])
	if err != nil {
		return nil, err
	}
	info := &tableInfo{meta: connector.TableMeta{Name: table}}
	for _, cm := range footer.Columns {
		info.meta.Columns = append(info.meta.Columns, connector.Column{Name: cm.Name, T: cm.T})
	}
	// Partition columns come from the directory structure and append to
	// the schema as VARCHAR.
	info.partCols = parts
	for _, pc := range parts {
		info.meta.Columns = append(info.meta.Columns, connector.Column{Name: pc, T: types.Varchar})
	}
	info.stats = connector.NoStats
	if c.cfg.CollectStats {
		info.stats = c.computeStats(files)
	}
	return info, nil
}

func (c *Connector) computeStats(files []string) connector.TableStats {
	stats := connector.TableStats{ColumnNDV: map[string]int64{}}
	for _, f := range files {
		if footer, err := c.footer(f); err == nil {
			addFileStats(&stats, footer)
		}
	}
	return stats
}

// addFileStats folds one file into a table's statistics: rows add up, and a
// column's distinct-count estimate is the largest any file gives.
func addFileStats(stats *connector.TableStats, footer *orcish.Footer) {
	rows, ndv := orcish.FileStats(footer)
	stats.RowCount += rows
	for col, n := range ndv {
		stats.ColumnNDV[col] = max(stats.ColumnNDV[col], n)
	}
}

// listDataFiles walks a table directory, returning data files and the
// partition column names (from the first key=value path found).
func listDataFiles(dir string) (files []string, partCols []string, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".orcish") {
			return nil
		}
		files = append(files, path)
		if partCols == nil {
			rel, _ := filepath.Rel(dir, path)
			for _, seg := range strings.Split(filepath.Dir(rel), string(filepath.Separator)) {
				if k, _, ok := strings.Cut(seg, "="); ok {
					partCols = append(partCols, k)
				}
			}
		}
		return nil
	})
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	sort.Strings(files)
	return files, partCols, err
}

// partitionValues extracts the key=value pairs of a file's path.
func partitionValues(tableDir, path string) map[string]string {
	out := map[string]string{}
	rel, err := filepath.Rel(tableDir, path)
	if err != nil {
		return out
	}
	for _, seg := range strings.Split(filepath.Dir(rel), string(filepath.Separator)) {
		if k, v, ok := strings.Cut(seg, "="); ok {
			out[k] = v
		}
	}
	return out
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Tables implements the Metadata API.
func (c *Connector) Tables() []string {
	c.rescan()
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
	c.rescan()
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

// split is one orcish file (or file section) plus its partition values.
type split struct {
	catalog  string
	table    string
	path     string
	partVals map[string]string
	rows     int64
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return nil }
func (s *split) EstimatedRows() int64  { return s.rows }

// Splits implements the Data Location API: files are enumerated lazily and
// whole partitions pruned against the pushed-down constraint.
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	c.mu.RLock()
	info, ok := c.tables[handle.Table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, handle.Table)
	}
	tableDir := filepath.Join(c.cfg.Dir, handle.Table)
	files, _, err := listDataFiles(tableDir)
	if err != nil {
		return nil, err
	}
	return &lazySplitSource{
		c:        c,
		handle:   handle,
		tableDir: tableDir,
		files:    files,
		info:     info,
	}, nil
}

// lazySplitSource yields file splits in batches, applying partition pruning
// as it goes (the coordinator never sees pruned partitions).
type lazySplitSource struct {
	c        *Connector
	handle   plan.TableHandle
	tableDir string
	files    []string
	info     *tableInfo
	pos      int
}

func (s *lazySplitSource) NextBatch(max int) (connector.SplitBatch, error) {
	var out []connector.Split
	for len(out) < max && s.pos < len(s.files) {
		path := s.files[s.pos]
		s.pos++
		pv := partitionValues(s.tableDir, path)
		if !s.partitionMatches(pv) {
			continue
		}
		out = append(out, &split{
			catalog:  s.c.name,
			table:    s.handle.Table,
			path:     path,
			partVals: pv,
			rows:     orcish.DefaultStripeRows, // refined by the footer at read time
		})
	}
	return connector.SplitBatch{Splits: out, Done: s.pos >= len(s.files)}, nil
}

// partitionMatches prunes partitions against the pushed-down domain.
func (s *lazySplitSource) partitionMatches(pv map[string]string) bool {
	d := s.handle.Constraint
	if d.All() {
		return true
	}
	for col, cd := range d.Columns {
		v, ok := pv[col]
		if !ok {
			continue // not a partition column
		}
		if !cd.Contains(types.VarcharValue(v)) {
			return false
		}
	}
	return true
}

func (s *lazySplitSource) Close() {}

// PageSource implements the Data Source API: an orcish reader with stripe
// skipping and (optionally) lazy columns, with partition columns appended as
// RLE blocks.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	hs, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	c.mu.RLock()
	info := c.tables[hs.table]
	c.mu.RUnlock()
	if info == nil {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, hs.table)
	}
	// Separate file columns from partition columns.
	partSet := map[string]bool{}
	for _, pc := range info.partCols {
		partSet[pc] = true
	}
	var fileCols []string
	var layout []int // output position → (file col ordinal | -1-partIdx)
	var partIdx []string
	for _, col := range columns {
		if partSet[col] {
			layout = append(layout, -1-len(partIdx))
			partIdx = append(partIdx, col)
		} else {
			layout = append(layout, len(fileCols))
			fileCols = append(fileCols, col)
		}
	}
	footer, err := c.footer(hs.path)
	if err != nil {
		return nil, err
	}
	r, err := orcish.OpenReaderWithFooter(hs.path, footer, fileCols, handle.Constraint, c.cfg.LazyReads)
	if err != nil {
		return nil, err
	}
	return &pageSource{
		c:      c,
		reader: r,
		layout: layout,
		parts:  partIdx,
		vals:   hs.partVals,
	}, nil
}

type pageSource struct {
	c      *Connector
	reader *orcish.Reader
	layout []int
	parts  []string
	vals   map[string]string
	last   int64
}

func (p *pageSource) NextPage() (*block.Page, error) {
	inner, err := p.reader.NextPage()
	if err != nil || inner == nil {
		return nil, err
	}
	if p.c.cfg.ReadDelayPerByte > 0 {
		// Simulated remote-storage latency proportional to bytes fetched.
		delta := p.reader.BytesRead() - p.last
		p.last = p.reader.BytesRead()
		busyWait(p.c.clock, delta*int64(p.c.cfg.ReadDelayPerByte))
	}
	if len(p.parts) == 0 {
		return inner, nil
	}
	cols := make([]block.Block, len(p.layout))
	for i, l := range p.layout {
		if l >= 0 {
			cols[i] = inner.Col(l)
		} else {
			name := p.parts[-1-l]
			cols[i] = block.NewRLEBlock(types.VarcharValue(p.vals[name]), inner.RowCount())
		}
	}
	return block.NewPage(cols...), nil
}

func (p *pageSource) BytesRead() int64 { return p.reader.BytesRead() }
func (p *pageSource) Close()           { p.reader.Close() }

// busyWait spins for roughly d nanoseconds on the given clock (std sleep
// granularity is too coarse for per-page delays).
func busyWait(clock Clock, nanos int64) {
	if nanos <= 0 {
		return
	}
	// Cap simulated latency to keep tests bounded.
	if nanos > 5e7 {
		nanos = 5e7
	}
	start := clock()
	for clock()-start < nanos {
	}
}

// PageCacheKey implements connector.PageCacheable. Lazy reads are not
// cacheable (their blocks hold closures over an open file), so ok=false
// falls back to a plain read. File identity is path+mtime+size — a rewrite
// changes the key — and the pushed-down constraint is part of the key
// because stripe skipping filters during the scan.
func (c *Connector) PageCacheKey(sp connector.Split, columns []string, handle plan.TableHandle) (string, bool) {
	if c.cfg.LazyReads {
		return "", false
	}
	hs, ok := sp.(*split)
	if !ok {
		return "", false
	}
	fi, err := os.Stat(hs.path)
	if err != nil {
		return "", false
	}
	dom := ""
	if handle.Constraint != nil && !handle.Constraint.All() {
		dom = handle.Constraint.String()
	}
	return fmt.Sprintf("hive/%s/%s@%d:%d|%s|%s",
		c.name, hs.path, fi.ModTime().UnixNano(), fi.Size(), strings.Join(columns, ","), dom), true
}

// DistributedWrites implements connector.DistributedWriteCapable: sinks
// write files under the warehouse directory, which every worker shares.
func (c *Connector) DistributedWrites() bool { return true }

// CreateTable registers an empty table by writing a schema-only marker file.
func (c *Connector) CreateTable(name string, columns []connector.Column) error {
	dir := filepath.Join(c.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cms := make([]orcish.ColumnMeta, len(columns))
	for i, col := range columns {
		cms[i] = orcish.ColumnMeta{Name: col.Name, T: col.T}
	}
	// An empty data file carries the schema.
	path := filepath.Join(dir, "part-00000.orcish")
	if err := orcish.WriteFile(path, cms, nil, c.cfg.StripeRows); err != nil {
		return err
	}
	c.mu.Lock()
	c.tables[name] = &tableInfo{
		meta:  connector.TableMeta{Name: name, Columns: columns},
		stats: statsFor(c.cfg.CollectStats),
	}
	c.mu.Unlock()
	return nil
}

func statsFor(collect bool) connector.TableStats {
	if collect {
		return connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}}
	}
	return connector.NoStats
}

// DropTable removes the table directory.
func (c *Connector) DropTable(name string) error {
	c.mu.Lock()
	delete(c.tables, name)
	c.mu.Unlock()
	c.meta.Invalidate("footer/" + filepath.Join(c.cfg.Dir, name))
	return os.RemoveAll(filepath.Join(c.cfg.Dir, name))
}

// PageSink implements the Data Sink API: every concurrent writer creates a
// new file, mirroring the paper's S3 writer behaviour (§IV-E3).
func (c *Connector) PageSink(table string) (connector.PageSink, error) {
	c.mu.RLock()
	info, ok := c.tables[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %s.%s does not exist", c.name, table)
	}
	cms := make([]orcish.ColumnMeta, len(info.meta.Columns))
	for i, col := range info.meta.Columns {
		cms[i] = orcish.ColumnMeta{Name: col.Name, T: col.T}
	}
	f, err := os.CreateTemp(filepath.Join(c.cfg.Dir, table), "part-*.orcish")
	if err != nil {
		return nil, err
	}
	return &pageSink{c: c, table: table, f: f, w: orcish.NewWriter(f, cms, c.cfg.StripeRows)}, nil
}

type pageSink struct {
	c     *Connector
	table string
	f     *os.File
	w     *orcish.Writer
	rows  int64
}

func (s *pageSink) Append(p *block.Page) error {
	s.rows += int64(p.RowCount())
	return s.w.Append(p)
}

func (s *pageSink) Finish() (int64, error) {
	if err := s.w.Close(); err != nil {
		s.f.Close()
		return 0, err
	}
	if err := s.f.Close(); err != nil {
		return 0, err
	}
	// The writer holds the footer it wrote: it is the new file's cache entry
	// (files are write-once, so the table's other entries stay valid), and
	// the table's statistics take it in without re-reading the others.
	footer := s.w.Footer()
	if key, err := footerKey(s.f.Name()); err == nil {
		s.c.meta.Put(key, footer)
	}
	if !s.c.cfg.CollectStats {
		return s.rows, nil
	}
	s.c.mu.Lock()
	if info, ok := s.c.tables[s.table]; ok {
		// Stats hands out the map; the folded one is a copy.
		stats := info.stats
		stats.ColumnNDV = maps.Clone(stats.ColumnNDV)
		if stats.ColumnNDV == nil {
			stats.ColumnNDV = map[string]int64{}
		}
		addFileStats(&stats, footer)
		info.stats = stats
	}
	s.c.mu.Unlock()
	return s.rows, nil
}

func (s *pageSink) Abort() {
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
}
