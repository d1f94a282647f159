package block

// Binary page codec: the serialized form of a Page. HTTP shuffle responses
// (paper §IV-E2), spill files and materialized-exchange segments all carry
// these frames, and so do the column sections and footers of orcish lake
// files. A frame is length-prefixed and self-checking, so a receiver can cut
// pages out of a byte stream and reject corruption:
//
//	frame  := "PPG1" flags(1) storedLen(u32le) rawLen(u32le) crc32c(u32le) stored
//	payload (stored, flate-compressed when flags&1):
//	         uvarint(rows) uvarint(ncols) block*
//	block  := 0x00 type(1) uvarint(n) nulls data     -- flat
//	        | 0x01 uvarint(count) block              -- run-length (1-row value)
//	        | 0x02 uvarint(nIdx) uvarint(idx)* block -- dictionary
//	nulls  := 0x00 | 0x01 bitmap(ceil(n/8))          -- LSB-first, 1 = NULL
//
// Flat data by type: BIGINT/DATE/DOUBLE are 8-byte little-endian; BOOLEAN is
// an LSB-first bitmap; VARCHAR is uvarint length + bytes per value; ARRAY is
// a boxed value list per row. The encodings of §IV-D (RLE, dictionary) travel
// as-is — the wire never expands them.
//
// What a frame costs. Encoding and decoding allocate and compute in
// proportion to the page and nothing else:
//
//   - Encode appends the header and payload into one slice (AppendPage; a
//     pooled scratch under EncodePage and WritePage), copies fixed-width
//     columns in bulk, and patches the 17-byte header in place. A payload over
//     maxFramePayload is refused before the bytes that cross the limit are
//     copied, and before any compression.
//   - Decode copies values out of the frame — a flat VARCHAR block into one
//     backing string that its Vals slice into — so the bytes a frame was read
//     into, and the scratch a compressed frame inflates into, are free for
//     reuse the moment a decode returns.
//   - Compressor and decompressor state (1.2 MB and 40 KB of tables, whatever
//     the page holds) lives in sync.Pools and is Reset per frame; it is built
//     only on a pool miss and goes back only after a clean end of stream, so a
//     failure never hands the next caller a dirty one.
//
// Who compresses is the caller's fixed rule, not an option: a frame that
// stays on the host (spill file, exchange segment, results response to a
// loopback or same-address peer) is raw, because flate at ~150 MB/s in front
// of a memory copy is pure cost there; a frame for another host is deflated
// and kept deflated only when that shrinks it. The CRC-32C covers the stored
// bytes either way, and decoders accept both flags wherever a frame came from.
//
// Decoding arbitrary bytes must never panic, and every count — the declared
// decompressed size included — is bounded by the remaining input before
// anything is allocated for it.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/types"
)

const (
	codecMagic     = "PPG1"
	flagCompressed = 1 << 0

	frameHeaderLen = 4 + 1 + 4 + 4 + 4

	blockFlat = 0x00
	blockRLE  = 0x01
	blockDict = 0x02

	// maxFramePayload bounds both stored and decompressed payload sizes;
	// frames claiming more are rejected before any allocation.
	maxFramePayload = 64 << 20
	// maxInflateRatio is the most deflate can expand its input: a match
	// symbol yields up to 258 bytes from two bits. A compressed frame that
	// declares more than this times its stored length is lying.
	maxInflateRatio = 1032
	// minCompressPayload is the payload size below which deflate cannot pay
	// for its own block header.
	minCompressPayload = 128
	// maxPooledScratch keeps one oversized page from pinning a huge scratch
	// slice in the pool.
	maxPooledScratch = 4 << 20
	// maxCodecRows bounds row/run counts (RLE runs allocate nothing, but a
	// bound keeps downstream arithmetic in int range).
	maxCodecRows = 1 << 27
	// maxBlockDepth bounds RLE/dictionary nesting.
	maxBlockDepth = 8
	// maxValueDepth bounds array nesting inside boxed values.
	maxValueDepth = 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptPage reports a frame that failed structural or checksum
// validation; all decode errors wrap it.
var ErrCorruptPage = errors.New("corrupt page frame")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorruptPage, fmt.Sprintf(format, args...))
}

// --- pooled state ---

// scratchPool holds the slices frames are assembled in, read into and
// inflated into. Entries are *[]byte so a Put does not allocate.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func putScratch(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledScratch {
		*bp = buf[:0]
		scratchPool.Put(bp)
	}
}

// appendWriter is the io.Writer a pooled compressor appends to.
type appendWriter struct{ buf []byte }

func (a *appendWriter) Write(b []byte) (int, error) {
	a.buf = append(a.buf, b...)
	return len(b), nil
}

// deflater is one pooled compressor and the sink it writes to.
type deflater struct {
	zw  *flate.Writer
	out appendWriter
}

var deflaterPool sync.Pool

// deflate appends the compressed form of raw to dst. It reports false — and
// drops the compressor instead of pooling it — when the stream did not close
// cleanly.
func deflate(dst, raw []byte) ([]byte, bool) {
	d, _ := deflaterPool.Get().(*deflater)
	if d == nil {
		d = new(deflater)
		d.zw, _ = flate.NewWriter(&d.out, flate.BestSpeed) // fails only on a bad level
	}
	d.zw.Reset(&d.out)
	d.out.buf = dst
	_, err := d.zw.Write(raw)
	if err == nil {
		err = d.zw.Close()
	}
	dst, d.out.buf = d.out.buf, nil
	if err != nil {
		return dst, false
	}
	deflaterPool.Put(d)
	return dst, true
}

// inflater is one pooled decompressor and the reader it pulls from.
type inflater struct {
	zr  io.ReadCloser // from flate.NewReader; also a flate.Resetter
	src bytes.Reader
	one [1]byte
}

var inflaterPool sync.Pool

// inflate fills dst from the deflate stream in stored, which must end exactly
// there. The decompressor goes back to the pool only after a clean end of
// stream.
func inflate(dst, stored []byte) error {
	f, _ := inflaterPool.Get().(*inflater)
	if f == nil {
		f = new(inflater)
		f.zr = flate.NewReader(&f.src)
	}
	f.src.Reset(stored)
	if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return corruptf("decompress: %v", err)
	}
	if _, err := io.ReadFull(f.zr, dst); err != nil {
		return corruptf("decompress: %v", err)
	}
	n, err := f.zr.Read(f.one[:])
	if n != 0 {
		return corruptf("decompressed payload longer than declared %d", len(dst))
	}
	if err == io.EOF {
		f.src.Reset(nil)
		inflaterPool.Put(f)
	}
	return nil
}

// --- frames ---

// AppendPage appends p's frame to dst and returns the extended slice; on
// error dst comes back at its original length. It is the one-copy form for
// callers that frame records themselves and own a reusable buffer. Lazy blocks
// are materialized; RLE and dictionary encodings are preserved. When compress
// is set the payload is deflated if that actually shrinks it.
func AppendPage(dst []byte, p *Page, compress bool) ([]byte, error) {
	if !compress {
		return appendRawFrame(dst, p)
	}
	bp := scratchPool.Get().(*[]byte)
	raw, err := appendRawFrame((*bp)[:0], p)
	if err == nil {
		dst = appendDeflated(dst, raw)
	}
	putScratch(bp, raw)
	return dst, err
}

// EncodePage serializes one page into a self-delimiting frame the caller
// owns, sized exactly. See AppendPage.
func EncodePage(p *Page, compress bool) ([]byte, error) {
	bp := scratchPool.Get().(*[]byte)
	frame, err := AppendPage((*bp)[:0], p, compress)
	var out []byte
	if err == nil {
		out = make([]byte, len(frame))
		copy(out, frame)
	}
	putScratch(bp, frame)
	return out, err
}

// WritePage writes one encoded frame to w in a single Write.
func WritePage(w io.Writer, p *Page, compress bool) error {
	bp := scratchPool.Get().(*[]byte)
	frame, err := AppendPage((*bp)[:0], p, compress)
	if err == nil {
		_, err = w.Write(frame)
	}
	putScratch(bp, frame)
	return err
}

var errFrameTooLarge = fmt.Errorf("page payload exceeds the %d-byte frame limit", maxFramePayload)

func appendRawFrame(dst []byte, p *Page) ([]byte, error) {
	start := len(dst)
	var hdr [frameHeaderLen]byte
	w := frameWriter{buf: append(dst, hdr[:]...), limit: start + frameHeaderLen + maxFramePayload}
	w.uvarint(uint64(p.rows))
	w.uvarint(uint64(len(p.Cols)))
	for _, b := range p.Cols {
		w.block(b, 0)
	}
	if w.err == nil && len(w.buf) > w.limit {
		w.err = errFrameTooLarge
	}
	if w.err != nil {
		return w.buf[:start], w.err
	}
	putFrameHeader(w.buf[start:], 0, len(w.buf)-start-frameHeaderLen)
	return w.buf, nil
}

// appendDeflated appends rawFrame to dst with its payload deflated, or as it
// is when deflate would not shrink it.
func appendDeflated(dst, rawFrame []byte) []byte {
	payload := rawFrame[frameHeaderLen:]
	if len(payload) > minCompressPayload {
		start := len(dst)
		out, ok := deflate(append(dst, rawFrame[:frameHeaderLen]...), payload)
		if ok && len(out)-start-frameHeaderLen < len(payload) {
			putFrameHeader(out[start:], flagCompressed, len(payload))
			return out
		}
		dst = out[:start]
	}
	return append(dst, rawFrame...)
}

// putFrameHeader fills in the header of frame, whose stored bytes are
// already in place behind it.
func putFrameHeader(frame []byte, flags byte, rawLen int) {
	stored := frame[frameHeaderLen:]
	copy(frame, codecMagic)
	frame[4] = flags
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(stored)))
	binary.LittleEndian.PutUint32(frame[9:], uint32(rawLen))
	binary.LittleEndian.PutUint32(frame[13:], crc32.Checksum(stored, crcTable))
}

// frameHeader is a validated frame header.
type frameHeader struct {
	flags             byte
	storedLen, rawLen uint32
	crc               uint32
}

func parseFrameHeader(h []byte) (frameHeader, error) {
	if len(h) < frameHeaderLen {
		return frameHeader{}, corruptf("frame header truncated (%d bytes)", len(h))
	}
	if string(h[:4]) != codecMagic {
		return frameHeader{}, corruptf("bad magic %q", h[:4])
	}
	fh := frameHeader{
		flags:     h[4],
		storedLen: binary.LittleEndian.Uint32(h[5:9]),
		rawLen:    binary.LittleEndian.Uint32(h[9:13]),
		crc:       binary.LittleEndian.Uint32(h[13:17]),
	}
	if fh.flags&^byte(flagCompressed) != 0 {
		return frameHeader{}, corruptf("unknown flags 0x%x", fh.flags)
	}
	if fh.storedLen > maxFramePayload || fh.rawLen > maxFramePayload {
		return frameHeader{}, corruptf("payload length %d/%d exceeds limit", fh.storedLen, fh.rawLen)
	}
	return fh, nil
}

// DecodePage parses one frame from the front of data, returning the page and
// the number of bytes consumed. It never panics on arbitrary input, and the
// page shares no memory with data.
func DecodePage(data []byte) (*Page, int, error) {
	h, err := parseFrameHeader(data)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(data)-frameHeaderLen) < uint64(h.storedLen) {
		return nil, 0, corruptf("frame body truncated: want %d bytes, have %d", h.storedLen, len(data)-frameHeaderLen)
	}
	end := frameHeaderLen + int(h.storedLen)
	p, err := decodeFrame(h, data[frameHeaderLen:end])
	if err != nil {
		return nil, 0, err
	}
	return p, end, nil
}

// DecodePageAt decodes the frame that is exactly the n bytes at off in ra —
// one section of a file whose index records where its frames are. The bytes
// are read into pooled scratch, which goes back to the pool before the call
// returns (the page shares no memory with it), so concurrent callers over one
// ReaderAt each take their own buffer and nothing is retained.
func DecodePageAt(ra io.ReaderAt, off int64, n int) (*Page, error) {
	if n < frameHeaderLen || n > frameHeaderLen+maxFramePayload {
		return nil, corruptf("frame length %d out of range", n)
	}
	bp := scratchPool.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], n)[:n]
	var p *Page
	got, err := ra.ReadAt(buf, off)
	if got == n {
		var used int
		if p, used, err = DecodePage(buf); err == nil && used != n {
			p, err = nil, corruptf("%d trailing bytes after the frame", n-used)
		}
	} else if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	putScratch(bp, buf)
	return p, err
}

func decodeFrame(h frameHeader, stored []byte) (*Page, error) {
	if crc32.Checksum(stored, crcTable) != h.crc {
		return nil, corruptf("checksum mismatch")
	}
	if h.flags&flagCompressed == 0 {
		if uint32(len(stored)) != h.rawLen {
			return nil, corruptf("raw length %d disagrees with stored length %d", h.rawLen, len(stored))
		}
		return decodePayload(stored)
	}
	// The checksum is over bytes the sender chose, so the declared size is
	// still untrusted: bound it by what the stored bytes can inflate to.
	if uint64(h.rawLen) > uint64(len(stored))*maxInflateRatio {
		return nil, corruptf("declared payload %d bytes exceeds what %d compressed bytes can hold", h.rawLen, len(stored))
	}
	bp := scratchPool.Get().(*[]byte)
	raw := slices.Grow((*bp)[:0], int(h.rawLen))[:h.rawLen]
	err := inflate(raw, stored)
	var p *Page
	if err == nil {
		p, err = decodePayload(raw)
	}
	putScratch(bp, raw)
	return p, err
}

func decodePayload(raw []byte) (*Page, error) {
	r := &byteReader{data: raw}
	rows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if rows > maxCodecRows {
		return nil, corruptf("row count %d exceeds limit", rows)
	}
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every block costs at least 2 wire bytes, so a huge column count on a
	// short payload is rejected before any decode work.
	if ncols > uint64(r.remaining())/2+1 {
		return nil, corruptf("column count %d exceeds payload", ncols)
	}
	var cols []Block
	if ncols > 0 {
		cols = make([]Block, 0, ncols)
	}
	for i := uint64(0); i < ncols; i++ {
		b, err := decodeBlock(r, 0)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		if uint64(b.Len()) != rows {
			return nil, corruptf("column %d has %d rows, page declares %d", i, b.Len(), rows)
		}
		cols = append(cols, b)
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after page payload", r.remaining())
	}
	return &Page{Cols: cols, rows: int(rows)}, nil
}

// PageReader frames pages out of a byte stream written by WritePage.
type PageReader struct {
	r   io.Reader
	hdr [frameHeaderLen]byte
}

// NewPageReader wraps a stream of page frames.
func NewPageReader(r io.Reader) *PageReader { return &PageReader{r: r} }

// Next returns the next page, or io.EOF when the stream ends cleanly on a
// frame boundary. A stream that ends mid-frame yields io.ErrUnexpectedEOF;
// any other read failure is returned wrapped, so the caller sees its cause.
// A stream cannot bound a frame by its remaining input, so a frame body is
// bounded by maxFramePayload alone.
func (pr *PageReader) Next() (*Page, error) {
	if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, err
		}
		return nil, fmt.Errorf("read page frame header: %w", err)
	}
	h, err := parseFrameHeader(pr.hdr[:])
	if err != nil {
		return nil, err
	}
	bp := scratchPool.Get().(*[]byte)
	body := slices.Grow((*bp)[:0], int(h.storedLen))[:h.storedLen]
	var p *Page
	switch _, err = io.ReadFull(pr.r, body); err {
	case nil:
		p, err = decodeFrame(h, body)
	case io.EOF, io.ErrUnexpectedEOF:
		err = io.ErrUnexpectedEOF
	default:
		err = fmt.Errorf("read page frame body: %w", err)
	}
	putScratch(bp, body)
	return p, err
}

// --- block encode ---

// frameWriter appends a payload to buf. Small writes go unchecked and the
// total is checked once at the end; bulk writes ask extend for room first, so
// an oversized page fails before the bytes that cross the limit are copied.
type frameWriter struct {
	buf   []byte
	limit int // the len(buf) a maximal payload reaches
	err   error
}

func (w *frameWriter) u8(b byte)        { w.buf = append(w.buf, b) }
func (w *frameWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// room reports whether n more bytes fit under the frame limit, failing the
// frame when they do not.
func (w *frameWriter) room(n int) bool {
	if w.err == nil && n > w.limit-len(w.buf) {
		w.err = errFrameTooLarge
	}
	return w.err == nil
}

// extend grows buf by n bytes and returns them; their content is whatever
// the scratch held before.
func (w *frameWriter) extend(n int) ([]byte, bool) {
	if !w.room(n) {
		return nil, false
	}
	old := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:old+n]
	return w.buf[old:], true
}

func (w *frameWriter) str(s string) {
	if w.room(len(s)) {
		w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
	}
}

func (w *frameWriter) bits(vals []bool, n int) {
	dst, ok := w.extend((n + 7) / 8)
	if !ok {
		return
	}
	clear(dst)
	for i := 0; i < n && i < len(vals); i++ {
		if vals[i] {
			dst[i/8] |= 1 << (i % 8)
		}
	}
}

func (w *frameWriter) block(b Block, depth int) {
	if w.err != nil {
		return
	}
	if depth > maxBlockDepth {
		w.err = fmt.Errorf("block nesting exceeds %d", maxBlockDepth)
		return
	}
	switch x := b.(type) {
	case *LazyBlock:
		w.block(x.Load(), depth)
	case *RLEBlock:
		w.u8(blockRLE)
		w.uvarint(uint64(x.Count))
		w.block(x.Val, depth+1)
	case *DictionaryBlock:
		if len(x.Indices) < x.Dict.Len() {
			// Fewer rows than entries: the dictionary would be most of the
			// frame, and a dictionary many pages share (a stored column's)
			// would cross the boundary again with every small page — a hash
			// partition's slice, a selective filter's survivors. The rows go
			// flat, and the reader does no work per entry it has no row for.
			w.block(Decode(x), depth)
			return
		}
		w.u8(blockDict)
		w.uvarint(uint64(len(x.Indices)))
		for _, ix := range x.Indices {
			w.uvarint(uint64(uint32(ix)))
		}
		w.block(x.Dict, depth+1)
	case *LongBlock:
		w.flatHeader(x.T, len(x.Vals), x.Nulls)
		if dst, ok := w.extend(8 * len(x.Vals)); ok {
			for i, v := range x.Vals {
				binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
			}
		}
	case *DoubleBlock:
		w.flatHeader(types.Double, len(x.Vals), x.Nulls)
		if dst, ok := w.extend(8 * len(x.Vals)); ok {
			for i, v := range x.Vals {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
			}
		}
	case *BoolBlock:
		w.flatHeader(types.Boolean, len(x.Vals), x.Nulls)
		w.bits(x.Vals, len(x.Vals))
	case *VarcharBlock:
		w.flatHeader(types.Varchar, len(x.Vals), x.Nulls)
		for _, s := range x.Vals {
			w.str(s)
		}
	case *ArrayBlock:
		w.flatHeader(types.Array, len(x.Vals), x.Nulls)
		for _, arr := range x.Vals {
			w.uvarint(uint64(len(arr)))
			for _, v := range arr {
				w.value(v, 0)
			}
		}
	default:
		// Unknown block implementation: box the values into a flat block.
		vals := make([]types.Value, b.Len())
		for i := range vals {
			vals[i] = b.Value(i)
		}
		w.block(BuildBlock(b.Type(), vals), depth)
	}
}

// flatHeader emits kind, type, length, and the canonical null bitmap: the
// bitmap is present only when at least one row is NULL, so an all-false
// Nulls slice encodes identically to a nil one.
func (w *frameWriter) flatHeader(t types.Type, n int, nulls []bool) {
	w.u8(blockFlat)
	w.u8(byte(t))
	w.uvarint(uint64(n))
	has := false
	for _, v := range nulls {
		if v {
			has = true
			break
		}
	}
	if !has {
		w.u8(0)
		return
	}
	w.u8(1)
	w.bits(nulls, n)
}

func (w *frameWriter) value(v types.Value, depth int) {
	if w.err != nil {
		return
	}
	if depth > maxValueDepth {
		w.err = fmt.Errorf("array value nesting exceeds %d", maxValueDepth)
		return
	}
	w.u8(byte(v.T))
	if v.Null {
		w.u8(1)
		return
	}
	w.u8(0)
	switch v.T {
	case types.Bigint, types.Date:
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v.I))
	case types.Double:
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v.F))
	case types.Boolean:
		if v.B {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case types.Varchar:
		w.str(v.S)
	case types.Array:
		w.uvarint(uint64(len(v.A)))
		for _, e := range v.A {
			w.value(e, depth+1)
		}
	}
}

// --- block decode ---

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.pos }

func (r *byteReader) u8() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, corruptf("truncated input")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, corruptf("bad varint")
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corruptf("truncated input: want %d bytes, have %d", n, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func decodeBlock(r *byteReader, depth int) (Block, error) {
	if depth > maxBlockDepth {
		return nil, corruptf("block nesting exceeds %d", maxBlockDepth)
	}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case blockFlat:
		return decodeFlatBlock(r)
	case blockRLE:
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if count > maxCodecRows {
			return nil, corruptf("RLE run %d exceeds limit", count)
		}
		val, err := decodeBlock(r, depth+1)
		if err != nil {
			return nil, err
		}
		if val.Len() != 1 {
			return nil, corruptf("RLE value block has %d rows", val.Len())
		}
		return &RLEBlock{Val: val, Count: int(count)}, nil
	case blockDict:
		nIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Each index costs at least one wire byte.
		if nIdx > uint64(r.remaining()) {
			return nil, corruptf("dictionary index count %d exceeds payload", nIdx)
		}
		indices := make([]int32, nIdx)
		for i := range indices {
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if v > math.MaxInt32 {
				return nil, corruptf("dictionary index %d out of range", v)
			}
			indices[i] = int32(v)
		}
		dict, err := decodeBlock(r, depth+1)
		if err != nil {
			return nil, err
		}
		n := dict.Len()
		for _, ix := range indices {
			if int(ix) >= n {
				return nil, corruptf("dictionary index %d out of range (dict has %d rows)", ix, n)
			}
		}
		return &DictionaryBlock{Dict: dict, Indices: indices}, nil
	default:
		return nil, corruptf("unknown block kind 0x%x", kind)
	}
}

func decodeFlatBlock(r *byteReader) (Block, error) {
	tb, err := r.u8()
	if err != nil {
		return nil, err
	}
	t := types.Type(tb)
	if t > types.Array {
		return nil, corruptf("unknown type code 0x%x", tb)
	}
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n64 > maxCodecRows {
		return nil, corruptf("block length %d exceeds limit", n64)
	}
	n := int(n64)
	hasNulls, err := r.u8()
	if err != nil {
		return nil, err
	}
	if hasNulls > 1 {
		return nil, corruptf("bad null-bitmap marker 0x%x", hasNulls)
	}
	var nulls []bool
	if hasNulls == 1 {
		bitmap, err := r.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		nulls = unpackBits(bitmap, n)
	}
	switch t {
	case types.Bigint, types.Date:
		data, err := r.bytes(n * 8)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
		return &LongBlock{T: t, Vals: vals, Nulls: nulls}, nil
	case types.Double:
		data, err := r.bytes(n * 8)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		return &DoubleBlock{Vals: vals, Nulls: nulls}, nil
	case types.Boolean:
		bitmap, err := r.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		return &BoolBlock{Vals: unpackBits(bitmap, n), Nulls: nulls}, nil
	case types.Varchar:
		// Each value costs at least one wire byte (its length varint).
		if n > r.remaining() {
			return nil, corruptf("varchar block length %d exceeds payload", n)
		}
		// One pass validates the lengths and finds the end of the block; the
		// block's wire bytes are then copied once into a backing string, and
		// a second pass slices the values out of it.
		start := r.pos
		for i := 0; i < n; i++ {
			l, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if l > uint64(r.remaining()) {
				return nil, corruptf("varchar value length %d exceeds payload", l)
			}
			r.pos += int(l)
		}
		wire := r.data[start:r.pos]
		backing := string(wire)
		vals := make([]string, n)
		off := 0
		for i := range vals {
			l, k := binary.Uvarint(wire[off:])
			off += k
			vals[i] = backing[off : off+int(l)]
			off += int(l)
		}
		return &VarcharBlock{Vals: vals, Nulls: nulls}, nil
	case types.Array:
		if n > r.remaining() {
			return nil, corruptf("array block length %d exceeds payload", n)
		}
		vals := make([][]types.Value, n)
		for i := range vals {
			arr, err := decodeValueList(r, 0)
			if err != nil {
				return nil, err
			}
			vals[i] = arr
		}
		return &ArrayBlock{Vals: vals, Nulls: nulls}, nil
	default:
		return nil, corruptf("flat block of unsupported type %v", t)
	}
}

func decodeValueList(r *byteReader, depth int) ([]types.Value, error) {
	m, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each boxed value costs at least two wire bytes (type + null marker).
	if m > uint64(r.remaining()/2)+1 {
		return nil, corruptf("array length %d exceeds payload", m)
	}
	out := make([]types.Value, m)
	for i := range out {
		v, err := decodeValue(r, depth)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func decodeValue(r *byteReader, depth int) (types.Value, error) {
	if depth > maxValueDepth {
		return types.Value{}, corruptf("array value nesting exceeds %d", maxValueDepth)
	}
	tb, err := r.u8()
	if err != nil {
		return types.Value{}, err
	}
	t := types.Type(tb)
	if t > types.Array {
		return types.Value{}, corruptf("unknown value type code 0x%x", tb)
	}
	isNull, err := r.u8()
	if err != nil {
		return types.Value{}, err
	}
	if isNull > 1 {
		return types.Value{}, corruptf("bad null marker 0x%x", isNull)
	}
	v := types.Value{T: t}
	if isNull == 1 {
		v.Null = true
		return v, nil
	}
	switch t {
	case types.Bigint, types.Date:
		data, err := r.bytes(8)
		if err != nil {
			return types.Value{}, err
		}
		v.I = int64(binary.LittleEndian.Uint64(data))
	case types.Double:
		data, err := r.bytes(8)
		if err != nil {
			return types.Value{}, err
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(data))
	case types.Boolean:
		b, err := r.u8()
		if err != nil {
			return types.Value{}, err
		}
		if b > 1 {
			return types.Value{}, corruptf("bad boolean value 0x%x", b)
		}
		v.B = b == 1
	case types.Varchar:
		l, err := r.uvarint()
		if err != nil {
			return types.Value{}, err
		}
		if l > uint64(r.remaining()) {
			return types.Value{}, corruptf("varchar value length %d exceeds payload", l)
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return types.Value{}, err
		}
		v.S = string(b)
	case types.Array:
		arr, err := decodeValueList(r, depth+1)
		if err != nil {
			return types.Value{}, err
		}
		v.A = arr
	}
	return v, nil
}

func unpackBits(bitmap []byte, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}
