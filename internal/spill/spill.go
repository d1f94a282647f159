// Package spill implements disk-backed operator state for larger-than-memory
// execution (paper §IV-F2). Operators holding revocable memory — hash
// aggregations and hash-join builds — write their buffered state to
// partitioned spill files when the memory manager asks them to revoke, and
// merge the partitions back one at a time on drain, bounding the peak
// in-memory footprint to roughly one partition.
//
// A spill file is a stream of partition-tagged page records over the engine's
// binary page codec (internal/block):
//
//	magic   "PSP1" (4 bytes)
//	record  uvarint(partition) uvarint(frameLen) frame
//	...
//
// where frame is one PPG1 page frame exactly as produced by
// block.EncodePage. Frames are written raw: the file never leaves the host,
// and deflating a page costs more than writing and re-reading its bytes
// (readers still accept compressed frames). The per-record frame length lets
// a drain pass skip partitions it is not merging without reading them into
// memory, let alone decoding them (Reader.NextPage); the frame itself carries
// its own CRC, so corruption surfaces as block.ErrCorruptPage. Decoding is
// allocation-capped (partition and frame-length ceilings are validated before
// any allocation), so a truncated or hostile file fails cleanly;
// FuzzSpillFileDecode locks this in.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

var magic = [4]byte{'P', 'S', 'P', '1'}

const (
	// MaxPartitions bounds the partition tag of a record: spill producers
	// use small fixed fan-outs (16), so anything large is corruption.
	MaxPartitions = 1 << 16
	// maxFrameLen bounds one record's page frame. The block codec caps
	// payloads at 64 MiB; the frame adds a fixed header.
	maxFrameLen = 64<<20 + 64
)

// ErrCorruptFile wraps structural decode failures of a spill file (the page
// frames inside wrap block.ErrCorruptPage on their own corruption).
var ErrCorruptFile = errors.New("corrupt spill file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptFile, fmt.Sprintf(format, args...))
}

// stats are process-wide spill counters, exposed on /v1/metrics.
var (
	statFilesCreated atomic.Int64
	statFilesDeleted atomic.Int64
	statPagesWritten atomic.Int64
	statBytesWritten atomic.Int64
	statBytesRead    atomic.Int64
)

// Stats is a snapshot of the process-wide spill counters.
type Stats struct {
	FilesCreated int64
	FilesDeleted int64
	PagesWritten int64
	BytesWritten int64
	BytesRead    int64
}

// CurrentStats snapshots the process-wide spill counters.
func CurrentStats() Stats {
	return Stats{
		FilesCreated: statFilesCreated.Load(),
		FilesDeleted: statFilesDeleted.Load(),
		PagesWritten: statPagesWritten.Load(),
		BytesWritten: statBytesWritten.Load(),
		BytesRead:    statBytesRead.Load(),
	}
}

// FilePrefix is the temp-file name prefix of every spill file, so cleanup
// tests can recognize engine spill files in a spill directory.
const FilePrefix = "presto-spill-"

// Dir resolves a configured spill directory: empty means the OS temp dir.
func Dir(dir string) string {
	if dir == "" {
		return os.TempDir()
	}
	return dir
}

// ioBufSize is the buffer between a spill file and its records. A drain
// opens every file once per partition, so the buffers are pooled rather than
// allocated per open.
const ioBufSize = 256 << 10

var writeBufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, ioBufSize) }}

var errWriterClosed = errors.New("spill writer is closed")

// Writer writes one partitioned spill file.
type Writer struct {
	f     *os.File
	bw    *bufio.Writer // pooled; nil once the writer finished or aborted
	frame []byte        // the current record's page frame, reused
	path  string
	bytes int64
	err   error
}

// NewWriter creates a spill file in dir (empty = OS temp dir). label is
// embedded in the file name for debuggability ("agg", "joinbuild", ...).
func NewWriter(dir, label string) (*Writer, error) {
	f, err := os.CreateTemp(Dir(dir), FilePrefix+label+"-*.bin")
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, bw: writeBufPool.Get().(*bufio.Writer), path: f.Name()}
	w.bw.Reset(f)
	if _, err := w.bw.Write(magic[:]); err != nil {
		w.Abort()
		return nil, err
	}
	w.bytes = int64(len(magic))
	statFilesCreated.Add(1)
	return w, nil
}

// Path returns the file's path.
func (w *Writer) Path() string { return w.path }

// Bytes returns the bytes written so far (including buffered).
func (w *Writer) Bytes() int64 { return w.bytes }

// WritePage appends one page record under the given partition tag.
func (w *Writer) WritePage(partition int, p *block.Page) error {
	if w.err != nil {
		return w.err
	}
	if partition < 0 || partition >= MaxPartitions {
		return fmt.Errorf("spill partition %d out of range", partition)
	}
	frame, err := block.AppendPage(w.frame[:0], p, false)
	w.frame = frame
	if err != nil {
		w.err = err
		return err
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(partition))
	n += binary.PutUvarint(hdr[n:], uint64(len(frame)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(frame); err != nil {
		w.err = err
		return err
	}
	w.bytes += int64(n + len(frame))
	statPagesWritten.Add(1)
	statBytesWritten.Add(int64(n + len(frame)))
	return nil
}

// Finish flushes and closes the file, leaving it on disk for readers.
func (w *Writer) Finish() error {
	if w.bw == nil {
		return w.err // already finished or aborted
	}
	if w.err != nil {
		w.Abort()
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return err
	}
	w.releaseBuf()
	return w.f.Close()
}

// Abort closes and deletes the file.
func (w *Writer) Abort() {
	w.releaseBuf()
	w.f.Close()
	Remove(w.path)
}

// releaseBuf returns the write buffer to the pool; later writes fail.
func (w *Writer) releaseBuf() {
	if w.bw == nil {
		return
	}
	w.bw.Reset(nil)
	writeBufPool.Put(w.bw)
	w.bw = nil
	if w.err == nil {
		w.err = errWriterClosed
	}
}

// Remove deletes a spill file, feeding the deletion counter. Removing an
// already-deleted path is a no-op (the writer may have aborted already), so
// FilesCreated == FilesDeleted holds when every file is cleaned exactly once.
func Remove(path string) {
	if path == "" {
		return
	}
	if os.Remove(path) == nil {
		statFilesDeleted.Add(1)
	}
}

// readBuf is what a Reader borrows from the pool for as long as it is open.
type readBuf struct {
	br    *bufio.Reader
	frame []byte // NextPage's current frame
}

var readBufPool = sync.Pool{New: func() any { return &readBuf{br: bufio.NewReaderSize(nil, ioBufSize)} }}

// Reader iterates the records of one spill file.
type Reader struct {
	f   *os.File
	buf *readBuf // nil once closed
}

// OpenReader opens a spill file and validates its magic.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, buf: readBufPool.Get().(*readBuf)}
	r.buf.br.Reset(f)
	var m [4]byte
	if _, err := io.ReadFull(r.buf.br, m[:]); err != nil {
		r.Close()
		return nil, corruptf("missing magic: %v", err)
	}
	if m != magic {
		r.Close()
		return nil, corruptf("bad magic %q", m[:])
	}
	return r, nil
}

// Next returns the next record's partition tag and raw page frame, io.EOF at
// a clean end of file, or an error on corruption. The frame is the caller's
// to keep; decode it with block.DecodePage. A drain that wants one partition
// uses NextPage, which does not read the others into memory.
func (r *Reader) Next() (int, []byte, error) {
	part, n, err := r.header()
	if err != nil {
		return 0, nil, err
	}
	frame := make([]byte, n)
	if err := readFrame(r.buf.br, frame); err != nil {
		return 0, nil, err
	}
	return part, frame, nil
}

// NextPage returns the next page tagged with partition, or io.EOF at a clean
// end of file. Records of other partitions are discarded without being
// buffered or decoded — their bytes still come off the file and still count
// in Stats.BytesRead — and the matching record is decoded out of one reused
// frame buffer.
func (r *Reader) NextPage(partition int) (*block.Page, error) {
	for {
		part, n, err := r.header()
		if err != nil {
			return nil, err
		}
		if part != partition {
			if _, err := r.buf.br.Discard(n); err != nil {
				return nil, corruptf("frame truncated: %v", err)
			}
			continue
		}
		r.buf.frame = slices.Grow(r.buf.frame[:0], n)[:n]
		if err := readFrame(r.buf.br, r.buf.frame); err != nil {
			return nil, err
		}
		return decodeRecord(r.buf.frame)
	}
}

// header reads the next record's header and counts its frame as read.
func (r *Reader) header() (part, frameLen int, err error) {
	if r.buf == nil {
		return 0, 0, os.ErrClosed
	}
	part, frameLen, err = readHeader(r.buf.br)
	if err == nil {
		statBytesRead.Add(int64(frameLen))
	}
	return part, frameLen, err
}

// Close closes the underlying file (the file itself stays on disk).
func (r *Reader) Close() error {
	if r.buf != nil {
		r.buf.br.Reset(nil)
		readBufPool.Put(r.buf)
		r.buf = nil
	}
	return r.f.Close()
}

// readHeader reads one record's partition tag and frame length, enforcing
// the caps before any buffer is sized from them.
func readHeader(br io.ByteReader) (part, frameLen int, err error) {
	p, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return 0, 0, io.EOF
	}
	if err != nil {
		return 0, 0, corruptf("partition tag: %v", err)
	}
	if p >= MaxPartitions {
		return 0, 0, corruptf("partition %d out of range", p)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, corruptf("frame length: %v", err)
	}
	if n == 0 || n > maxFrameLen {
		return 0, 0, corruptf("frame length %d out of range", n)
	}
	return int(p), int(n), nil
}

func readFrame(r io.Reader, frame []byte) error {
	if _, err := io.ReadFull(r, frame); err != nil {
		return corruptf("frame truncated: %v", err)
	}
	return nil
}

// decodeRecord decodes a record's frame, which must hold exactly one page.
func decodeRecord(frame []byte) (*block.Page, error) {
	p, consumed, err := block.DecodePage(frame)
	if err != nil {
		return nil, err
	}
	if consumed != len(frame) {
		return nil, corruptf("record frame has %d trailing bytes", len(frame)-consumed)
	}
	return p, nil
}

// Record is one decoded spill record.
type Record struct {
	Partition int
	Page      *block.Page
}

// DecodeAll decodes an in-memory spill file image into records, enforcing
// the same caps as the streaming reader. It is the fuzz entry point and a
// convenience for tests; production drains stream with Reader.
func DecodeAll(data []byte) ([]Record, error) {
	if len(data) < len(magic) {
		return nil, corruptf("short file (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	br := bufio.NewReader(newByteReader(data[4:]))
	var out []Record
	for {
		part, n, err := readHeader(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		frame := make([]byte, n)
		if err := readFrame(br, frame); err != nil {
			return nil, err
		}
		p, err := decodeRecord(frame)
		if err != nil {
			return nil, err
		}
		out = append(out, Record{Partition: part, Page: p})
	}
}

// newByteReader avoids importing bytes just for a reader.
type byteReader struct {
	data []byte
	off  int
}

func newByteReader(data []byte) *byteReader { return &byteReader{data: data} }

func (b *byteReader) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
