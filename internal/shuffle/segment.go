// Materialized exchange: disk-backed output segments (paper §IV-D).
//
// In the default in-memory exchange, a consumer's fetch acknowledgement frees
// the producer's pages, so a producer that dies mid-stream loses everything a
// restarted task would need and the whole query restarts. In materialized
// mode a task's output buffer writes every page to a per-partition segment
// file in an ExchangeStore keyed by task ID, and nothing is served until the
// producer finishes and the entry is *sealed*. Seal-before-read is the
// exactly-once mechanism: a consumer never observes a partial stream, so a
// producer lost before seal simply re-runs — its replacement resets the same
// store entry — and consumers' tokens (which only advance against sealed,
// immutable data) stay valid. Sealed segments are served by offset index with
// idempotent tokens and no acknowledgement-dropping; files persist until
// query cleanup so a re-scheduled consumer can replay from token 0.
//
// A segment file is a stream of page records over the engine's binary codec:
//
//	magic   "PXS1" (4 bytes)
//	record  uvarint(frameLen) frame
//	...
//
// where frame is one PPG1 page frame from block.EncodePage, written raw — the
// segment is a local file, so deflating it would only cost CPU (readers
// accept compressed frames all the same). Decoding is allocation-capped
// (FuzzExchangeSegmentDecode locks this in).
package shuffle

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

var segMagic = [4]byte{'P', 'X', 'S', '1'}

// segMaxFrameLen bounds one record's page frame (the block codec caps
// payloads at 64 MiB; the frame adds a fixed header).
const segMaxFrameLen = 64<<20 + 64

// SegmentFilePrefix names every materialized-exchange segment file, so
// cleanup tests can recognize them in a spill directory.
const SegmentFilePrefix = "presto-exchange-"

// ErrCorruptSegment wraps structural decode failures of a segment file.
var ErrCorruptSegment = errors.New("corrupt exchange segment")

func segCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSegment, fmt.Sprintf(format, args...))
}

// Process-wide materialized-exchange counters, exposed on /v1/metrics.
var (
	statSegsCreated   atomic.Int64
	statSegsDeleted   atomic.Int64
	statSegPages      atomic.Int64
	statSegBytesOut   atomic.Int64
	statSegBytesRead  atomic.Int64
	statSegSealed     atomic.Int64
	statSegReplayHits atomic.Int64
)

// SegmentStats is a snapshot of the materialized-exchange counters.
type SegmentStats struct {
	SegmentsCreated int64
	SegmentsDeleted int64
	PagesWritten    int64
	BytesWritten    int64
	BytesRead       int64
	EntriesSealed   int64
	ReplayHits      int64
}

// CurrentSegmentStats snapshots the process-wide counters.
func CurrentSegmentStats() SegmentStats {
	return SegmentStats{
		SegmentsCreated: statSegsCreated.Load(),
		SegmentsDeleted: statSegsDeleted.Load(),
		PagesWritten:    statSegPages.Load(),
		BytesWritten:    statSegBytesOut.Load(),
		BytesRead:       statSegBytesRead.Load(),
		EntriesSealed:   statSegSealed.Load(),
		ReplayHits:      statSegReplayHits.Load(),
	}
}

// segRecord locates one page frame inside a sealed segment file.
type segRecord struct {
	off int64 // file offset of the frame (past the uvarint header)
	len int64
}

// segmentPart is one output partition's disk log: append-only while the
// producer runs, then sealed and served by the in-memory offset index.
// Callers synchronize through the owning StoreEntry's lock.
type segmentPart struct {
	dir    string
	f      *os.File // write handle (nil once sealed or before first append)
	bw     *bufio.Writer
	rf     *os.File // read handle (sealed, non-empty segments only)
	path   string
	frame  []byte // the record being written or read, reused
	offs   []segRecord
	bytes  int64
	sealed bool
}

// append encodes and writes one page record, creating the file lazily so
// empty partitions cost nothing.
func (s *segmentPart) append(p *block.Page) error {
	if s.sealed {
		return errors.New("append to sealed exchange segment")
	}
	if s.f == nil {
		f, err := os.CreateTemp(segDir(s.dir), SegmentFilePrefix+"*.bin")
		if err != nil {
			return err
		}
		s.f = f
		s.bw = bufio.NewWriterSize(f, 256<<10)
		s.path = f.Name()
		if _, err := s.bw.Write(segMagic[:]); err != nil {
			return err
		}
		s.bytes = int64(len(segMagic))
		statSegsCreated.Add(1)
	}
	frame, err := block.AppendPage(s.frame[:0], p, false)
	s.frame = frame
	if err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(frame)))
	if _, err := s.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := s.bw.Write(frame); err != nil {
		return err
	}
	s.offs = append(s.offs, segRecord{off: s.bytes + int64(n), len: int64(len(frame))})
	s.bytes += int64(n + len(frame))
	statSegPages.Add(1)
	statSegBytesOut.Add(int64(n + len(frame)))
	return nil
}

// seal flushes and reopens the file for reads. Idempotent.
func (s *segmentPart) seal() error {
	if s.sealed {
		return nil
	}
	s.sealed = true
	if s.f == nil {
		return nil // empty partition: no file at all
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.f, s.bw = nil, nil
	rf, err := os.Open(s.path)
	if err != nil {
		return err
	}
	s.rf = rf
	return nil
}

// read decodes the record at index i from the sealed file.
func (s *segmentPart) read(i int) (*block.Page, error) {
	rec := s.offs[i]
	buf := slices.Grow(s.frame[:0], int(rec.len))[:rec.len]
	s.frame = buf
	if _, err := s.rf.ReadAt(buf, rec.off); err != nil {
		return nil, err
	}
	statSegBytesRead.Add(rec.len)
	p, consumed, err := block.DecodePage(buf)
	if err != nil {
		return nil, err
	}
	if consumed != len(buf) {
		return nil, segCorruptf("record %d has %d trailing bytes", i, len(buf)-consumed)
	}
	return p, nil
}

// discard closes handles and deletes the file (entry reset or query cleanup).
func (s *segmentPart) discard() {
	if s.f != nil {
		s.f.Close()
		s.f, s.bw = nil, nil
	}
	if s.rf != nil {
		s.rf.Close()
		s.rf = nil
	}
	if s.path != "" {
		if os.Remove(s.path) == nil {
			statSegsDeleted.Add(1)
		}
		s.path = ""
	}
	s.frame, s.offs, s.bytes, s.sealed = nil, nil, 0, false
}

// segDir resolves a configured segment directory: empty means the OS temp dir.
func segDir(dir string) string {
	if dir == "" {
		return os.TempDir()
	}
	return dir
}

// StoreEntry is one producer task's materialized output: a segment per
// partition, sealed atomically when every partition finishes. The pointer is
// stable across producer re-placement — Create over an unsealed entry resets
// the segments in place — so consumers holding a reference (directly or
// through the producer's PartitionBuffer) follow the replacement for free.
type StoreEntry struct {
	key string
	dir string

	mu        sync.Mutex
	cond      *sync.Cond
	segs      []*segmentPart
	doneParts []bool
	sealed    bool
	removed   bool
	err       error // sticky write/read failure
}

func newStoreEntry(dir, key string, parts int) *StoreEntry {
	e := &StoreEntry{key: key, dir: dir}
	e.cond = sync.NewCond(&e.mu)
	e.resetLocked(parts)
	return e
}

// resetLocked discards any unsealed segments and starts the entry over with
// the given partition count (producer re-placement).
func (e *StoreEntry) resetLocked(parts int) {
	for _, s := range e.segs {
		s.discard()
	}
	e.segs = make([]*segmentPart, parts)
	for i := range e.segs {
		e.segs[i] = &segmentPart{dir: e.dir}
	}
	e.doneParts = make([]bool, parts)
	e.sealed = false
	e.err = nil
}

// Sealed reports whether the producer finished and the output is readable.
func (e *StoreEntry) Sealed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealed
}

// Err returns the sticky entry failure, if any.
func (e *StoreEntry) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// append writes one page to a partition's segment. Failures stick on the
// entry; the producing operator surfaces them through OutputBuffer.Err.
func (e *StoreEntry) append(part int, p *block.Page) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil || e.removed || e.sealed {
		return
	}
	if err := e.segs[part].append(p); err != nil {
		e.err = fmt.Errorf("exchange segment write (%s): %w", e.key, err)
		e.cond.Broadcast()
	}
}

// finishPart marks one partition complete; when all are, the entry seals and
// becomes readable.
func (e *StoreEntry) finishPart(part int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed || e.sealed || e.doneParts[part] {
		return
	}
	e.doneParts[part] = true
	for _, d := range e.doneParts {
		if !d {
			return
		}
	}
	if e.err == nil {
		for _, s := range e.segs {
			if err := s.seal(); err != nil {
				e.err = fmt.Errorf("exchange segment seal (%s): %w", e.key, err)
				break
			}
		}
	}
	if e.err == nil {
		e.sealed = true
		statSegSealed.Add(1)
	}
	e.cond.Broadcast()
}

// fetch serves a partition under the idempotent token protocol. Before seal
// it long-polls and returns nothing — consumers never observe a partial
// stream. After seal it serves by offset index; tokens are record indices and
// nothing is dropped on acknowledgement, so any token can be re-requested.
func (e *StoreEntry) fetch(part int, token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	deadline := time.Now().Add(wait)
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.sealed {
		if e.err != nil {
			return nil, token, true, e.err
		}
		if e.removed {
			return nil, token, true, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, token, false, nil
		}
		waitCond(e.cond, remaining)
	}
	if part < 0 || part >= len(e.segs) {
		return nil, token, true, fmt.Errorf("exchange segment %s has no partition %d", e.key, part)
	}
	seg := e.segs[part]
	if token < 0 {
		token = 0
	}
	var out []*block.Page
	var outBytes int64
	next := token
	for int(next) < len(seg.offs) {
		p, err := seg.read(int(next))
		if err != nil {
			err = fmt.Errorf("exchange segment read (%s part %d rec %d): %w", e.key, part, next, err)
			e.err = err
			return nil, token, true, err
		}
		out = append(out, p)
		outBytes += p.SizeBytes()
		next++
		if maxBytes > 0 && outBytes >= maxBytes {
			break
		}
	}
	return out, next, int(next) >= len(seg.offs), nil
}

// remove discards all segments and wakes waiters (query cleanup).
func (e *StoreEntry) remove() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return
	}
	e.removed = true
	for _, s := range e.segs {
		s.discard()
	}
	e.cond.Broadcast()
}

// ExchangeStore is a node's (or, in embedded clusters, the cluster's)
// materialized-exchange storage: entries keyed by producer task ID, backed by
// files in dir. In a real deployment this models the distributed storage a
// recoverable exchange writes through; sharing one store across an embedded
// cluster's workers gives sealed output that survives any single worker.
type ExchangeStore struct {
	dir string

	mu      sync.Mutex
	entries map[string]*StoreEntry
}

// NewExchangeStore creates a store writing segments under dir (empty = OS
// temp dir).
func NewExchangeStore(dir string) *ExchangeStore {
	return &ExchangeStore{dir: dir, entries: map[string]*StoreEntry{}}
}

// Create registers (or resets) the entry for a producer task. A sealed entry
// is returned as-is with replay=true — the re-placed producer must not
// re-run; its output is already durable. An unsealed entry is reset in place,
// keeping the pointer every existing consumer holds.
func (s *ExchangeStore) Create(key string, parts int) (e *StoreEntry, replay bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.sealed && len(e.segs) == parts {
			statSegReplayHits.Add(1)
			return e, true
		}
		e.resetLocked(parts)
		e.removed = false
		return e, false
	}
	e = newStoreEntry(s.dir, key, parts)
	s.entries[key] = e
	return e, false
}

// Entry returns the entry for key, or nil.
func (s *ExchangeStore) Entry(key string) *StoreEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key]
}

// RemoveQuery deletes every entry (and segment file) belonging to a query.
func (s *ExchangeStore) RemoveQuery(queryID string) {
	s.mu.Lock()
	prefix := queryID + "."
	var doomed []*StoreEntry
	for k, e := range s.entries {
		if strings.HasPrefix(k, prefix) {
			doomed = append(doomed, e)
			delete(s.entries, k)
		}
	}
	s.mu.Unlock()
	for _, e := range doomed {
		e.remove()
	}
}

// EntryCount reports live entries (leak checks).
func (s *ExchangeStore) EntryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// StoreFetcher reads one partition of a store entry as a Fetcher, resolving
// the entry by key at each fetch so a consumer created before its producer —
// or re-pointed at a re-placed producer — converges without coordination.
type StoreFetcher struct {
	Store *ExchangeStore
	Key   string
	Part  int
}

// Fetch implements Fetcher.
func (f *StoreFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	e := f.Store.Entry(f.Key)
	if e == nil {
		// Producer not registered yet (scheduler creates stages in order, so
		// this is a brief race or a recovery gap): poll again later.
		if wait > 0 {
			time.Sleep(wait)
		}
		return nil, token, false, nil
	}
	return e.fetch(f.Part, token, maxBytes, wait)
}

// DecodeSegment decodes an in-memory segment file image, enforcing the same
// allocation caps as production reads. Fuzz entry point.
func DecodeSegment(data []byte) ([]*block.Page, error) {
	if len(data) < len(segMagic) {
		return nil, segCorruptf("short file (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != segMagic {
		return nil, segCorruptf("bad magic %q", data[:4])
	}
	br := bufio.NewReader(&sliceReader{data: data[4:]})
	var out []*block.Page
	for {
		frameLen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, segCorruptf("frame length: %v", err)
		}
		if frameLen == 0 || frameLen > segMaxFrameLen {
			return nil, segCorruptf("frame length %d out of range", frameLen)
		}
		frame := make([]byte, frameLen)
		if _, err := io.ReadFull(br, frame); err != nil {
			return nil, segCorruptf("frame truncated: %v", err)
		}
		p, consumed, err := block.DecodePage(frame)
		if err != nil {
			return nil, err
		}
		if consumed != len(frame) {
			return nil, segCorruptf("record has %d trailing bytes", len(frame)-consumed)
		}
		out = append(out, p)
	}
}

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
