// Package spill implements disk-backed operator state for larger-than-memory
// execution (paper §IV-F2). Operators holding revocable memory — hash
// aggregations and hash-join builds — write their buffered state to
// partitioned spill files when the memory manager asks them to revoke, and
// merge the partitions back one at a time on drain, bounding the peak
// in-memory footprint to roughly one partition.
//
// A spill file is a run of partition-tagged page records over the engine's
// binary page codec (internal/block), followed by an index of where each
// partition's records lie:
//
//	magic   "PSP2" (4 bytes)
//	record  uvarint(partition) uvarint(frameLen) frame
//	...
//	index   uvarint(extentCount) { uvarint(partition) uvarint(offset) uvarint(length) }...
//	trailer uint64le(indexOffset) "PSPX"
//
// where frame is one PPG1 page frame exactly as produced by
// block.EncodePage. Frames are written raw: the file never leaves the host,
// and deflating a page costs more than writing and re-reading its bytes
// (readers still accept compressed frames). An extent is a maximal run of
// consecutive records of one partition; the extents tile the record region
// exactly, in file order. A drain of one partition (Reader.NextPage) reads its
// extents and nothing else, so draining every partition reads each record
// once; Reader.Next walks the record region in write order.
//
// Every frame carries its own CRC, so corruption inside one surfaces as
// block.ErrCorruptPage. Everything else — a truncated file, a trailer or
// index that lies about offsets, a record whose tag disagrees with its
// extent — is ErrCorruptFile, found before any buffer is sized from the
// claim; FuzzSpillFileDecode and FuzzSpillIndex lock this in.
package spill

import (
	"bufio"
	"bytes"
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

var (
	magic     = [4]byte{'P', 'S', 'P', '2'}
	tailMagic = [4]byte{'P', 'S', 'P', 'X'}
)

const (
	// MaxPartitions bounds the partition tag of a record: spill producers
	// use Partitions, so anything large is corruption.
	MaxPartitions = 1 << 16
	// maxFrameLen bounds one record's page frame. The block codec caps
	// payloads at 64 MiB; the frame adds a fixed header.
	maxFrameLen = 64<<20 + 64
	// trailerLen is the fixed tail of a file: the index offset and tailMagic.
	trailerLen = 8 + 4
	// minExtentLen is the fewest bytes an index entry takes (three one-byte
	// uvarints): the ceiling on how many extents an index of a given size can
	// hold, whatever count it claims.
	minExtentLen = 3
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

// Stats is a snapshot of the process-wide spill counters. BytesWritten is
// every byte of every record plus each file's index and trailer; BytesRead is
// every frame a reader took off a file plus the index and trailer each open
// reads.
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

// ioBufSize is the buffer between a spill file and its records. A join drain
// opens every file once per partition, so the buffers are pooled rather than
// allocated per open.
const ioBufSize = 256 << 10

var writeBufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, ioBufSize) }}

var errWriterClosed = errors.New("spill writer is closed")

// extent is one index entry: length bytes of whole records at offset, all
// tagged with partition.
type extent struct {
	partition int
	offset    int64
	length    int64
}

// Writer writes one partitioned spill file.
type Writer struct {
	f       *os.File
	bw      *bufio.Writer // pooled; nil once the writer finished or aborted
	frame   []byte        // the current record's page frame, reused
	extents []extent
	path    string
	bytes   int64
	err     error
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
	recLen := int64(n + len(frame))
	if last := len(w.extents) - 1; last >= 0 && w.extents[last].partition == partition {
		w.extents[last].length += recLen
	} else {
		w.extents = append(w.extents, extent{partition: partition, offset: w.bytes, length: recLen})
	}
	w.bytes += recLen
	statPagesWritten.Add(1)
	statBytesWritten.Add(recLen)
	return nil
}

// Finish appends the index and trailer, then flushes and closes the file,
// leaving it on disk for readers.
func (w *Writer) Finish() error {
	if w.bw == nil {
		return w.err // already finished or aborted
	}
	if w.err != nil {
		w.Abort()
		return w.err
	}
	tail := appendIndex(w.frame[:0], w.extents, w.bytes)
	if _, err := w.bw.Write(tail); err != nil {
		w.Abort()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return err
	}
	w.bytes += int64(len(tail))
	statBytesWritten.Add(int64(len(tail)))
	w.releaseBuf()
	return w.f.Close()
}

// appendIndex appends the index of a file whose record region ends at
// indexOff, and the trailer that points at it.
func appendIndex(dst []byte, extents []extent, indexOff int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(extents)))
	for _, e := range extents {
		dst = binary.AppendUvarint(dst, uint64(e.partition))
		dst = binary.AppendUvarint(dst, uint64(e.offset))
		dst = binary.AppendUvarint(dst, uint64(e.length))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(indexOff))
	return append(dst, tailMagic[:]...)
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

// Reader reads the records of one spill file: all of them in write order
// (Next), or one partition's through the index (NextPage). Either way the
// reader is positioned on a span of the record region — the whole of it, or
// one extent — and reads no byte outside that span.
type Reader struct {
	src     io.ReaderAt
	closer  io.Closer // nil for an in-memory image
	buf     *readBuf  // nil once closed
	extents []extent

	span    io.SectionReader // what buf.br reads from
	spanOff int64            // where span starts in the file
	part    int              // partition NextPage is draining, -1 before its first call
	// nextExt is, for NextPage, the first extent it has not looked at yet;
	// for Next, the extent the record it read last lies in.
	nextExt int
}

// OpenReader opens a spill file and validates its magic, trailer and index.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := newReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// newReader validates a spill file image of the given size and positions the
// reader on its whole record region.
func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(len(magic)+1+trailerLen) {
		return nil, corruptf("short file (%d bytes)", size)
	}
	var head [len(magic)]byte
	if _, err := src.ReadAt(head[:], 0); err != nil {
		return nil, corruptf("missing magic: %v", err)
	}
	if head != magic {
		return nil, corruptf("bad magic %q", head[:])
	}
	var trailer [trailerLen]byte
	if _, err := src.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, corruptf("missing trailer: %v", err)
	}
	if [4]byte(trailer[8:]) != tailMagic {
		return nil, corruptf("bad trailer magic %q: file truncated or never finished", trailer[8:])
	}
	indexOff, indexEnd := binary.LittleEndian.Uint64(trailer[:8]), size-trailerLen
	if indexOff < uint64(len(magic)) || indexOff >= uint64(indexEnd) {
		return nil, corruptf("index offset %d outside [%d, %d)", indexOff, len(magic), indexEnd)
	}
	// Sized from where the file ends, not from anything the file claims.
	index := make([]byte, indexEnd-int64(indexOff))
	if _, err := src.ReadAt(index, int64(indexOff)); err != nil {
		return nil, corruptf("index: %v", err)
	}
	extents, err := decodeIndex(index, int64(indexOff))
	if err != nil {
		return nil, err
	}
	statBytesRead.Add(int64(len(index)) + trailerLen)
	r := &Reader{src: src, buf: readBufPool.Get().(*readBuf), extents: extents, part: -1}
	r.seek(int64(len(magic)), int64(indexOff)-int64(len(magic)))
	return r, nil
}

// decodeIndex parses and validates the index of a file whose record region
// is [len(magic), end). Extents must tile that region exactly and in order,
// which rules out an offset past the end of the file, overlap and gaps in one
// comparison.
func decodeIndex(index []byte, end int64) ([]extent, error) {
	count, n := binary.Uvarint(index)
	if n <= 0 {
		return nil, corruptf("index extent count unreadable")
	}
	index = index[n:]
	if count > uint64(len(index)/minExtentLen) {
		return nil, corruptf("index claims %d extents in %d bytes", count, len(index))
	}
	extents := make([]extent, count)
	at := int64(len(magic))
	for i := range extents {
		var f [3]uint64 // partition, offset, length
		for j := range f {
			v, n := binary.Uvarint(index)
			if n <= 0 {
				return nil, corruptf("index entry %d truncated", i)
			}
			f[j], index = v, index[n:]
		}
		if f[0] >= MaxPartitions {
			return nil, corruptf("index entry %d: partition %d out of range", i, f[0])
		}
		if f[1] != uint64(at) || f[2] == 0 || f[2] > uint64(end-at) {
			return nil, corruptf("index entry %d: extent [%d, +%d) does not continue the record region at %d of %d", i, f[1], f[2], at, end)
		}
		extents[i] = extent{partition: int(f[0]), offset: at, length: int64(f[2])}
		at += int64(f[2])
	}
	if len(index) != 0 {
		return nil, corruptf("index has %d trailing bytes", len(index))
	}
	if at != end {
		return nil, corruptf("index covers the record region to %d of %d", at, end)
	}
	return extents, nil
}

// seek positions the reader on the span [off, off+n) of the file.
func (r *Reader) seek(off, n int64) {
	r.span, r.spanOff = *io.NewSectionReader(r.src, off, n), off
	r.buf.br.Reset(&r.span)
}

// pos is the file offset of the next byte the reader returns.
func (r *Reader) pos() int64 {
	at, _ := r.span.Seek(0, io.SeekCurrent) // never fails for SeekCurrent+0
	return r.spanOff + at - int64(r.buf.br.Buffered())
}

// Next returns the next record's partition tag and raw page frame, io.EOF at
// the index (every record has then been returned, in write order), or an
// error on corruption. The frame is the caller's to keep; decode it with
// block.DecodePage. A drain that wants one partition uses NextPage, which
// reads nothing else off the file; a reader serves one or the other.
func (r *Reader) Next() (int, []byte, error) {
	if r.buf == nil {
		return 0, nil, os.ErrClosed
	}
	at := r.pos()
	part, n, err := r.header()
	if err != nil {
		return 0, nil, err
	}
	// The record must lie whole in one extent, and the extent be of its
	// partition: what NextPage finds there, or the two readers disagree.
	for r.nextExt < len(r.extents)-1 && at >= r.extents[r.nextExt].offset+r.extents[r.nextExt].length {
		r.nextExt++
	}
	e := r.extents[r.nextExt]
	if end := r.pos() + int64(n); e.partition != part || end > e.offset+e.length {
		return 0, nil, corruptf("record of partition %d at %d in the extent [%d, +%d) of partition %d", part, at, e.offset, e.length, e.partition)
	}
	frame := make([]byte, n)
	if err := r.readFrame(frame); err != nil {
		return 0, nil, err
	}
	return part, frame, nil
}

// NextPage returns the next page of partition, or io.EOF once its last
// extent is consumed. Only that partition's extents are read off the file,
// and the page is decoded out of one reused frame buffer. Asking for another
// partition than the previous call did starts that partition from its first
// extent, so one open reader can drain every partition in turn.
func (r *Reader) NextPage(partition int) (*block.Page, error) {
	if r.buf == nil {
		return nil, os.ErrClosed
	}
	if partition != r.part {
		r.part, r.nextExt = partition, 0
		r.seek(0, 0)
	}
	for {
		part, n, err := r.header()
		if err == io.EOF {
			for r.nextExt < len(r.extents) && r.extents[r.nextExt].partition != partition {
				r.nextExt++
			}
			if r.nextExt == len(r.extents) {
				return nil, io.EOF
			}
			e := r.extents[r.nextExt]
			r.nextExt++
			r.seek(e.offset, e.length)
			continue
		}
		if err != nil {
			return nil, err
		}
		if part != partition {
			return nil, corruptf("record of partition %d in an extent of partition %d", part, partition)
		}
		r.buf.frame = slices.Grow(r.buf.frame[:0], n)[:n]
		if err := r.readFrame(r.buf.frame); err != nil {
			return nil, err
		}
		return decodeRecord(r.buf.frame)
	}
}

// header reads the next record's header, io.EOF at the end of the current
// span. The frame length is checked against the caps and against what is
// left of the span before any buffer is sized from it, and counted as read.
func (r *Reader) header() (part, frameLen int, err error) {
	if r.buf == nil {
		return 0, 0, os.ErrClosed
	}
	br := r.buf.br
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
	left := r.spanOff + r.span.Size() - r.pos()
	if n == 0 || n > maxFrameLen || int64(n) > left {
		return 0, 0, corruptf("frame length %d out of range (%d bytes left)", n, left)
	}
	statBytesRead.Add(int64(n))
	return int(p), int(n), nil
}

func (r *Reader) readFrame(frame []byte) error {
	if _, err := io.ReadFull(r.buf.br, frame); err != nil {
		return corruptf("frame truncated: %v", err)
	}
	return nil
}

// Close closes the underlying file (the file itself stays on disk).
func (r *Reader) Close() error {
	if r.buf != nil {
		r.buf.br.Reset(nil)
		readBufPool.Put(r.buf)
		r.buf = nil
	}
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
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

// DecodeAll decodes an in-memory spill file image into records in write
// order, through the same Reader and so under the same caps as a file on
// disk. It is the fuzz entry point and a convenience for tests; production
// drains stream with Reader.
func DecodeAll(data []byte) ([]Record, error) {
	r, err := newReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Record
	for {
		part, frame, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		p, err := decodeRecord(frame)
		if err != nil {
			return nil, err
		}
		out = append(out, Record{Partition: part, Page: p})
	}
}
