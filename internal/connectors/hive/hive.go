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
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

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
	// Clock overrides the wall clock the simulated read latency
	// (ReadDelayPerByte) spins on; nil uses time.Now.
	Clock Clock
}

// maxFooters bounds the footer cache: footers are small, but the entries of
// file versions no longer read would otherwise stay forever on a churning
// warehouse.
const maxFooters = 4096

// Connector is a directory-lake catalog. Its catalog moves a table's schema
// version on the connector's own DDL, and its data version on each file the
// connector writes and whenever TableVersion finds the table's files differ
// from those it last saw, so a file another program writes moves it too. It
// keeps no append log.
type Connector struct {
	*connector.Catalog[*tableInfo]
	cfg   Config
	clock Clock
	// footers caches decoded file footers by fileID, so a PageSource open or
	// a stats refresh does not re-read a footer from disk; footerMu guards it
	// and footerStats (Hits and Misses).
	footerMu    sync.Mutex
	footers     *cache.LRU[string, *orcish.Footer]
	footerStats cache.MetaStats
}

type tableInfo struct {
	meta connector.TableMeta
	// partCols are the partition-directory columns (suffix of meta.Columns).
	partCols []string
	stats    connector.TableStats
	// listing fingerprints the table's data files as the connector last saw
	// them (listDataFiles).
	listing uint64
}

func (t *tableInfo) Meta() *connector.TableMeta { return &t.meta }

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
	c := &Connector{
		Catalog: connector.NewCatalog[*tableInfo](name),
		cfg:     cfg,
		clock:   clock,
		footers: cache.NewLRU[string, *orcish.Footer](maxFooters, 0, nil),
	}
	if err := c.rescan(); err != nil {
		return nil, err
	}
	return c, nil
}

// footer returns a file's decoded footer through the footer cache. The key
// is the file's fileID, so a rewritten file misses. A rewrite that keeps the
// path, mtime and size moves neither the key nor the table's version (the
// listing hashes the same fileIDs); a section read through the stale footer
// then fails its frame's checks (magic, CRC-32C, one column of the stripe's
// rows) unless the new file lays out its sections alike.
func (c *Connector) footer(path string) (*orcish.Footer, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	key := fileID(path, fi)
	c.footerMu.Lock()
	f, ok := c.footers.Get(key)
	if ok {
		c.footerStats.Hits++
	} else {
		c.footerStats.Misses++
	}
	c.footerMu.Unlock()
	if ok {
		return f, nil
	}
	if f, err = orcish.ReadFooter(path); err != nil {
		return nil, err
	}
	c.putFooter(key, f)
	return f, nil
}

func (c *Connector) putFooter(key string, f *orcish.Footer) {
	c.footerMu.Lock()
	c.footers.Put(key, f, 1)
	c.footerMu.Unlock()
}

// fileID names one state of a data file: its path, mtime and size.
func fileID(path string, fi os.FileInfo) string {
	return fmt.Sprintf("%s@%d:%d", path, fi.ModTime().UnixNano(), fi.Size())
}

// listingTerm is one file's term of a table's listing fingerprint, the sum of
// its files' terms: a file added, removed or rewritten changes the sum.
func listingTerm(path string, fi os.FileInfo) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fileID(path, fi)))
	return h.Sum64()
}

// MetaStats snapshots the footer-cache counters.
func (c *Connector) MetaStats() cache.MetaStats {
	c.footerMu.Lock()
	defer c.footerMu.Unlock()
	st := c.footerStats
	st.Entries = c.footers.Len()
	return st
}

// rescan discovers tables from the directory structure.
func (c *Connector) rescan() error {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || c.Check(e.Name()) == nil {
			continue
		}
		info, err := c.loadTableInfo(e.Name())
		if err != nil {
			return fmt.Errorf("scanning table %s: %w", e.Name(), err)
		}
		if info != nil {
			c.Discover(e.Name(), info)
		}
	}
	return nil
}

// loadTableInfo derives schema and statistics from the table's files.
func (c *Connector) loadTableInfo(table string) (*tableInfo, error) {
	files, parts, listing, err := listDataFiles(filepath.Join(c.cfg.Dir, table))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	footer, err := c.footer(files[0])
	if err != nil {
		return nil, err
	}
	info := &tableInfo{meta: connector.TableMeta{Name: table}, listing: listing}
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

// listDataFiles walks a table directory, returning data files, the partition
// column names (from the first key=value path found) and the fingerprint of
// the listing (listingTerm).
func listDataFiles(dir string) (files []string, partCols []string, listing uint64, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".orcish") {
			return nil
		}
		files = append(files, path)
		listing += listingTerm(path, info)
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
		return nil, nil, 0, nil
	}
	sort.Strings(files)
	return files, partCols, listing, err
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

// Tables implements the Metadata API, after a rescan of the lake.
func (c *Connector) Tables() []string {
	c.rescan()
	return c.Catalog.Tables()
}

// Table implements the Metadata API, after a rescan of the lake.
func (c *Connector) Table(name string) *connector.TableMeta {
	c.rescan()
	return c.Catalog.Table(name)
}

// Stats implements the Metadata API.
func (c *Connector) Stats(name string) connector.TableStats {
	stats := connector.NoStats
	c.Read(name, func(t *tableInfo) error { stats = t.stats; return nil })
	return stats
}

// TableVersion implements connector.Connector. It lists the table's files,
// and moves the data version when the listing differs from the one last
// seen (or cannot be taken).
func (c *Connector) TableVersion(name string) int64 {
	_, _, listing, err := listDataFiles(filepath.Join(c.cfg.Dir, name))
	c.Write(name, func(t *tableInfo, v *connector.VersionLog) error {
		if err != nil || listing != t.listing {
			t.listing = listing
			v.Changed(name)
		}
		return nil
	})
	return c.Catalog.TableVersion(name)
}

// split is a stripe of one orcish file (§IV-D3: a file is cut into splits,
// so a one-file table is read by every task of its stage). It carries the
// file's footer, so opening it reads neither the catalog nor the file's
// metadata, and its exact row count, so the stage ledger balances rows.
type split struct {
	catalog string
	file    *lakeFile
	stripe  int
}

// lakeFile is what the splits of one file share: its path, the footer they
// were cut from, its partition values and the table's partition columns.
type lakeFile struct {
	path     string
	footer   *orcish.Footer
	partCols []string
	partVals map[string]string
}

func (s *split) Connector() string     { return s.catalog }
func (s *split) PreferredNodes() []int { return nil }
func (s *split) EstimatedRows() int64  { return s.file.footer.Stripes[s.stripe].Rows }

// Splits implements the Data Location API: files are enumerated lazily, whole
// partitions pruned against the pushed-down constraint, and each file that
// remains is cut at its stripes.
func (c *Connector) Splits(handle plan.TableHandle) (connector.SplitSource, error) {
	var partCols []string
	if err := c.Read(handle.Table, func(t *tableInfo) error { partCols = t.partCols; return nil }); err != nil {
		return nil, err
	}
	tableDir := filepath.Join(c.cfg.Dir, handle.Table)
	files, _, _, err := listDataFiles(tableDir)
	if err != nil {
		return nil, err
	}
	return &lazySplitSource{
		c:        c,
		handle:   handle,
		tableDir: tableDir,
		partCols: partCols,
		files:    files,
	}, nil
}

// lazySplitSource yields one split per stripe in batches, applying partition
// pruning as it goes (the coordinator never sees pruned partitions). The
// stripe table is the file's footer, read through the footer cache when the
// enumeration reaches the file; a file with no stripe (CreateTable's schema
// file) yields no split.
type lazySplitSource struct {
	c        *Connector
	handle   plan.TableHandle
	tableDir string
	partCols []string
	files    []string
	pos      int       // the next file to open
	file     *lakeFile // the file being cut, nil between files
	stripe   int       // file's next stripe
}

func (s *lazySplitSource) NextBatch(max int) (connector.SplitBatch, error) {
	var out []connector.Split
	for len(out) < max && (s.file != nil || s.pos < len(s.files)) {
		if s.file == nil {
			path := s.files[s.pos]
			pv := partitionValues(s.tableDir, path)
			if !s.partitionMatches(pv) {
				s.pos++
				continue
			}
			footer, err := s.c.footer(path)
			if err != nil {
				if len(out) > 0 {
					break // the splits cut so far; the next call meets the error
				}
				return connector.SplitBatch{}, err
			}
			s.pos++
			s.file, s.stripe = &lakeFile{path: path, footer: footer, partCols: s.partCols, partVals: pv}, 0
		}
		if s.stripe < len(s.file.footer.Stripes) {
			out = append(out, &split{catalog: s.c.Name(), file: s.file, stripe: s.stripe})
			s.stripe++
		}
		if s.stripe == len(s.file.footer.Stripes) {
			s.file = nil
		}
	}
	return connector.SplitBatch{Splits: out, Done: s.file == nil && s.pos >= len(s.files)}, nil
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

// PageSource implements the Data Source API: an orcish reader over the
// split's stripe, with stripe skipping and (optionally) lazy columns, and
// partition columns appended as RLE blocks.
func (c *Connector) PageSource(sp connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	hs, ok := sp.(*split)
	if !ok {
		return nil, fmt.Errorf("foreign split type %T", sp)
	}
	// Separate file columns from partition columns.
	f := hs.file
	var fileCols []string
	var layout []int // output position → (file col ordinal | -1-partIdx)
	var partIdx []string
	for _, col := range columns {
		if slices.Contains(f.partCols, col) {
			layout = append(layout, -1-len(partIdx))
			partIdx = append(partIdx, col)
		} else {
			layout = append(layout, len(fileCols))
			fileCols = append(fileCols, col)
		}
	}
	r, err := orcish.OpenReaderWithFooter(f.path, f.footer, fileCols, handle.Constraint, c.cfg.LazyReads)
	if err != nil {
		return nil, err
	}
	r.SetRange(hs.stripe, hs.stripe+1)
	return &pageSource{
		c:      c,
		reader: r,
		layout: layout,
		parts:  partIdx,
		vals:   f.partVals,
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
	_, _, listing, err := listDataFiles(dir)
	if err != nil {
		return err
	}
	c.Replace(name, &tableInfo{
		meta:    connector.TableMeta{Name: name, Columns: columns},
		stats:   statsFor(c.cfg.CollectStats),
		listing: listing,
	})
	return nil
}

func statsFor(collect bool) connector.TableStats {
	if collect {
		return connector.TableStats{RowCount: 0, ColumnNDV: map[string]int64{}}
	}
	return connector.NoStats
}

// DropTable removes the table and its directory.
func (c *Connector) DropTable(name string) error {
	if err := c.Catalog.DropTable(name); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(c.cfg.Dir, name))
}

// PageSink implements the Data Sink API: every concurrent writer creates a
// new file, mirroring the paper's S3 writer behaviour (§IV-E3). The file is
// written under a name listDataFiles skips and renamed into the table on
// Finish, so no scan — not the one an INSERT … SELECT of the table itself
// runs — lists a file still being written.
func (c *Connector) PageSink(table string) (connector.PageSink, error) {
	var cms []orcish.ColumnMeta
	err := c.Read(table, func(t *tableInfo) error {
		for _, col := range t.meta.Columns {
			cms = append(cms, orcish.ColumnMeta{Name: col.Name, T: col.T})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Join(c.cfg.Dir, table), "part-*.orcish"+writingSuffix)
	if err != nil {
		return nil, err
	}
	return &pageSink{c: c, table: table, f: f, w: orcish.NewWriter(f, cms, c.cfg.StripeRows)}, nil
}

// writingSuffix marks a data file a sink is still writing.
const writingSuffix = ".writing"

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
	path := strings.TrimSuffix(s.f.Name(), writingSuffix)
	if err := os.Rename(s.f.Name(), path); err != nil {
		return 0, err
	}
	// The writer holds the footer it wrote: it is the new file's cache entry
	// (files are write-once, so the table's other entries stay valid), and
	// the table's statistics take it in without re-reading the others. The
	// file moves the table's data version and joins its listing.
	footer := s.w.Footer()
	fi, statErr := os.Stat(path)
	if statErr == nil {
		s.c.putFooter(fileID(path, fi), footer)
	}
	s.c.Write(s.table, func(info *tableInfo, v *connector.VersionLog) error {
		if statErr == nil {
			info.listing += listingTerm(path, fi)
		}
		v.Changed(s.table)
		if s.c.cfg.CollectStats {
			// Stats hands out the map; the folded one is a copy.
			stats := info.stats
			stats.ColumnNDV = maps.Clone(stats.ColumnNDV)
			if stats.ColumnNDV == nil {
				stats.ColumnNDV = map[string]int64{}
			}
			addFileStats(&stats, footer)
			info.stats = stats
		}
		return nil
	})
	return s.rows, nil
}

func (s *pageSink) Abort() {
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
}
