package serving

import (
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/connector"
)

// ScanPoolOwner is the pseudo-query shared-scan replay logs reserve node
// memory under (system memory, non-spillable). A failed reservation does not
// fail any query — the scan just stops sharing (truncates its log).
const ScanPoolOwner = "@sharedscan"

// DefaultSharedScanLogBytes bounds one shared scan's replay log.
const DefaultSharedScanLogBytes = 8 << 20

// ScanHubConfig sizes a ScanHub.
type ScanHubConfig struct {
	// Window is how long after its first open a shared scan stays joinable
	// (the GLADE batching window). Consumers never *wait* for the window —
	// it only bounds how stale a joining query's start can be, and therefore
	// how long the replay log must be retained for late joiners.
	Window time.Duration
	// MaxEntryBytes bounds one scan's replay log (default 8 MiB); past it
	// the log truncates and late consumers fall back to their own scans.
	MaxEntryBytes int64
	// Accountant, when non-nil, charges replay-log bytes to the node pool
	// under ScanPoolOwner. Reservation failure truncates instead of erroring.
	Accountant cache.Accountant
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// ScanHubStats count shared-scan activity on one worker.
type ScanHubStats struct {
	// Scans is the number of shared scans opened (first consumer).
	Scans int64
	// Joined is the number of consumers that attached to an existing scan
	// instead of opening their own source.
	Joined int64
	// Truncated counts scans whose replay log hit its bound, demoting late
	// consumers to private sources.
	Truncated int64
	// ActiveEntries / LogBytes snapshot live state.
	ActiveEntries int
	LogBytes      int64
}

// ScanHub executes GLADE-style shared scans: concurrently running queries
// whose leaf scans share a cache key (table version + columns + constraint)
// attach to one underlying PageSource whose pages fan out through a bounded
// replay log to every consumer.
//
// The protocol is co-producing rather than producer-driven: whichever
// consumer first needs a page past the log frontier reads it from the shared
// source and appends it. A lone query therefore proceeds at full speed — it
// simply produces every page itself — and a query that joins mid-scan
// replays the log before reading fresh pages. Nothing ever blocks waiting
// for a batching window; Window only bounds joinability.
type ScanHub struct {
	cfg ScanHubConfig

	mu      sync.Mutex
	entries map[string]*scanEntry
	stats   ScanHubStats
}

// NewScanHub creates a hub; returns nil when the window is not positive
// (shared scans disabled).
func NewScanHub(cfg ScanHubConfig) *ScanHub {
	if cfg.Window <= 0 {
		return nil
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = DefaultSharedScanLogBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &ScanHub{cfg: cfg, entries: map[string]*scanEntry{}}
}

// Open attaches to the live (or lingering completed) shared scan for key, or
// starts one by calling open. The returned PageSource delivers exactly the
// pages open's source would: replayed from the log, read fresh from the
// shared source, or — after log truncation — re-read from a private source
// with already-consumed rows skipped (cacheable sources are deterministic for
// a fixed key, which is the same property the page cache relies on).
func (h *ScanHub) Open(key string, open func() (connector.PageSource, error)) (connector.PageSource, error) {
	if h == nil {
		return open()
	}
	now := h.cfg.Clock()
	h.mu.Lock()
	c, freed := h.tryJoinLocked(key, now)
	h.mu.Unlock()
	h.free(freed)
	if c != nil {
		return c, nil
	}

	src, err := open()
	if err != nil {
		return nil, err
	}
	e := &scanEntry{hub: h, key: key, src: src, open: open, created: now, refs: 1}
	h.mu.Lock()
	c, freed = h.tryJoinLocked(key, now)
	if c != nil {
		// Lost a race creating the entry: join the winner, discard our open.
		h.mu.Unlock()
		h.free(freed)
		src.Close()
		return c, nil
	}
	h.entries[key] = e
	h.stats.Scans++
	h.mu.Unlock()
	h.free(freed)
	return &sharedConsumer{e: e}, nil
}

// tryJoinLocked attaches to key's entry when it is joinable: still inside the
// window and neither degraded nor failed. A stale idle entry (a lingering log
// whose window closed) is torn down on the way; its accountant bytes are
// returned for the caller to release outside h.mu. Callers hold h.mu.
func (h *ScanHub) tryJoinLocked(key string, now time.Time) (*sharedConsumer, int64) {
	e := h.entries[key]
	if e == nil {
		return nil, 0
	}
	e.mu.Lock()
	if !e.truncated && e.err == nil && now.Sub(e.created) <= h.cfg.Window {
		e.refs++
		e.mu.Unlock()
		h.stats.Joined++
		return &sharedConsumer{e: e}, 0
	}
	// Past the window (or degraded): the next opener starts fresh. Idle
	// entries are fully lingering logs — free them; active ones tear
	// themselves down through release().
	var freed int64
	if e.refs == 0 {
		freed, e.logBytes = e.logBytes, 0
		e.log = nil
	}
	e.mu.Unlock()
	delete(h.entries, key)
	return nil, freed
}

// free returns reclaimed log bytes to the accountant (outside h.mu).
func (h *ScanHub) free(bytes int64) {
	if bytes > 0 && h.cfg.Accountant != nil {
		h.cfg.Accountant.Release(bytes)
	}
}

// expire tears down an idle lingering entry once its window has closed
// (scheduled by release; harmless if the entry was replaced, rejoined, or
// already freed).
func (h *ScanHub) expire(e *scanEntry) {
	h.mu.Lock()
	var freed int64
	if h.entries[e.key] == e {
		e.mu.Lock()
		if e.refs == 0 && h.cfg.Clock().Sub(e.created) > h.cfg.Window {
			freed, e.logBytes = e.logBytes, 0
			e.log = nil
			delete(h.entries, e.key)
		}
		e.mu.Unlock()
	}
	h.mu.Unlock()
	h.free(freed)
}

// Clear drops every idle entry (lingering replay logs), releasing their
// accounted bytes. Entries with live consumers tear down via release().
func (h *ScanHub) Clear() {
	if h == nil {
		return
	}
	var freed int64
	h.mu.Lock()
	for k, e := range h.entries {
		e.mu.Lock()
		if e.refs == 0 {
			freed += e.logBytes
			e.logBytes = 0
			e.log = nil
			delete(h.entries, k)
		}
		e.mu.Unlock()
	}
	h.mu.Unlock()
	h.free(freed)
}

// Stats snapshots the hub's counters.
func (h *ScanHub) Stats() ScanHubStats {
	if h == nil {
		return ScanHubStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	s.ActiveEntries = len(h.entries)
	for _, e := range h.entries {
		e.mu.Lock()
		s.LogBytes += e.logBytes
		e.mu.Unlock()
	}
	return s
}

// drop removes an entry from the joinable map if it is still the one mapped.
func (h *ScanHub) drop(e *scanEntry) {
	h.mu.Lock()
	if h.entries[e.key] == e {
		delete(h.entries, e.key)
	}
	h.mu.Unlock()
}

// scanEntry is one live shared scan: the underlying source, the replay log,
// and the consumers' shared frontier state.
type scanEntry struct {
	hub     *ScanHub
	key     string
	open    func() (connector.PageSource, error)
	created time.Time

	mu        sync.Mutex
	src       connector.PageSource // nil once exhausted or adopted
	log       []*block.Page
	logBytes  int64 // accountant-reserved
	done      bool
	truncated bool
	err       error
	refs      int
}

// release drops one consumer reference. When the last consumer leaves a
// cleanly completed scan, its replay log lingers joinable until the window
// closes — in-memory scans finish far faster than concurrent repeat queries
// arrive, so sharing mostly happens against lingering logs, not live scans.
// Anything else (unfinished, truncated, failed) tears down immediately.
func (e *scanEntry) release() {
	now := e.hub.cfg.Clock()
	e.mu.Lock()
	e.refs--
	if e.refs > 0 {
		e.mu.Unlock()
		return
	}
	completed := e.done && e.src == nil && !e.truncated && e.err == nil
	remain := e.created.Add(e.hub.cfg.Window).Sub(now)
	if completed && remain > 0 {
		e.mu.Unlock()
		// Pad past the window end so the expiry check cannot race the
		// boundary and strand the log's reservation.
		time.AfterFunc(remain+10*time.Millisecond, func() { e.hub.expire(e) })
		return
	}
	var src connector.PageSource
	var bytes int64
	src, e.src = e.src, nil
	bytes, e.logBytes = e.logBytes, 0
	e.log = nil
	e.done = true
	e.mu.Unlock()
	if src != nil {
		src.Close()
	}
	e.hub.free(bytes)
	e.hub.drop(e)
}

// sharedConsumer adapts one query's view of a shared scan to PageSource.
type sharedConsumer struct {
	e    *scanEntry
	pos  int   // pages consumed from the log
	rows int64 // rows consumed (skip count after truncation)
	// bytes is what this consumer's own reads of the shared source fetched; a
	// page replayed from the log, like a page-cache hit, fetched nothing.
	bytes  int64
	direct connector.PageSource // private source after adoption/reopen
	// directBase is what direct had fetched when this consumer took it over.
	directBase int64
	closed     bool
}

// NextPage implements connector.PageSource.
func (c *sharedConsumer) NextPage() (*block.Page, error) {
	if c.direct != nil {
		return c.track(c.direct.NextPage())
	}
	e := c.e
	e.mu.Lock()
	for {
		if c.pos < len(e.log) {
			p := e.log[c.pos]
			c.pos++
			e.mu.Unlock()
			return c.track(p, nil)
		}
		if e.err != nil {
			err := e.err
			e.mu.Unlock()
			return nil, err
		}
		if e.done {
			e.mu.Unlock()
			return nil, nil
		}
		if e.truncated {
			// The log stopped growing. The first consumer to reach the
			// frontier adopts the live source; the rest re-open privately and
			// skip what they already consumed.
			if e.src != nil {
				c.direct, e.src = e.src, nil
				c.directBase = c.direct.BytesRead()
				e.mu.Unlock()
				return c.track(c.direct.NextPage())
			}
			open, skip := e.open, c.rows
			e.mu.Unlock()
			src, err := open()
			if err != nil {
				return nil, err
			}
			c.direct = &skipSource{src: src, skip: skip}
			return c.track(c.direct.NextPage())
		}
		// Frontier: co-produce the next page from the shared source. The
		// entry lock is held across the read — sharing one source serializes
		// its consumers by construction, and shared sources are in-memory
		// page reads, not blocking I/O.
		before := e.src.BytesRead()
		p, err := e.src.NextPage()
		c.bytes += e.src.BytesRead() - before
		if err != nil {
			e.err = err
			continue
		}
		if p == nil {
			e.done = true
			e.src.Close()
			e.src = nil
			continue
		}
		sz := p.SizeBytes()
		admit := e.logBytes+sz <= e.hub.cfg.MaxEntryBytes
		if admit && e.hub.cfg.Accountant != nil {
			admit = e.hub.cfg.Accountant.Reserve(sz) == nil
		}
		if !admit {
			// Log full (or pool pressure): stop sharing. This page was read
			// off the shared source and never logged, so this consumer keeps
			// the live source; laggards will re-open and skip. Hub updates
			// happen outside e.mu (lock order is hub.mu → e.mu).
			e.truncated = true
			c.direct, e.src = e.src, nil
			c.directBase = c.direct.BytesRead()
			e.mu.Unlock()
			e.hub.mu.Lock()
			e.hub.stats.Truncated++
			e.hub.mu.Unlock()
			e.hub.drop(e)
			return c.track(p, nil)
		}
		e.log = append(e.log, p)
		e.logBytes += sz
		// Loop: the next iteration serves it from the log, advancing pos.
	}
}

// track counts delivered rows (they drive post-truncation skip).
func (c *sharedConsumer) track(p *block.Page, err error) (*block.Page, error) {
	if p != nil {
		c.rows += int64(p.RowCount())
	}
	return p, err
}

// BytesRead implements connector.PageSource: the bytes this consumer's reads
// fetched, from the shared source or its private one.
func (c *sharedConsumer) BytesRead() int64 {
	if c.direct == nil {
		return c.bytes
	}
	return c.bytes + c.direct.BytesRead() - c.directBase
}

// Close implements connector.PageSource.
func (c *sharedConsumer) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.direct != nil {
		c.direct.Close()
	}
	c.e.release()
}

// skipSource discards the first skip rows of a re-opened source, slicing the
// boundary page so the consumer resumes exactly where the shared log left it.
type skipSource struct {
	src  connector.PageSource
	skip int64
}

func (s *skipSource) NextPage() (*block.Page, error) {
	for {
		p, err := s.src.NextPage()
		if err != nil || p == nil {
			return p, err
		}
		n := int64(p.RowCount())
		if s.skip >= n {
			s.skip -= n
			continue
		}
		if s.skip > 0 {
			p = p.SlicePage(int(s.skip), p.RowCount())
			s.skip = 0
		}
		return p, nil
	}
}

func (s *skipSource) BytesRead() int64 { return s.src.BytesRead() }
func (s *skipSource) Close()           { s.src.Close() }
