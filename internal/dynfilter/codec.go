package dynfilter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/types"
)

// The wire form of a summary: one small binary frame, which carries all of
// it, so a union delivered over HTTP filters and narrows a scan exactly as
// one shared in process does. At most 8 KB of Bloom: the ≤ 200 keys a
// row-tested build holds on the benchmark set ≤ 400 of BloomBits bits, and at
// two probes pass ≈ 4 × 10⁻⁵ of absent keys (4 096 keys would pass ≈ 1.4 %).
//
//	byte   type (types.Type)
//	byte   flags
//	uvarint rows
//	bounds (flagBounds): min then max — 8 bytes little-endian for
//	       BIGINT/DATE (the int64) and DOUBLE (its IEEE bits, so -0.0 stays
//	       -0.0), uvarint length + bytes for VARCHAR
//	points (flagPoints): uvarint count (≤ MaxPushdownPoints), then each
//	       value ascending, as a bound is, a BOOLEAN as one byte 0 or 1
//	bloom  (absent when flagDisabled): bloomWords little-endian words, or
//	       with flagSparse a uint16 count of (uint16 index, word) pairs — the
//	       build of a 25-row dimension table sets 50 bits, not 1 024 words
//
// A Disabled summary is its type and flags: nothing else is read. One that
// says nothing about membership (collected for pruning only, never relayed)
// crosses as Disabled unless it is empty.
const (
	flagDisabled = 1 << iota
	flagBounds
	flagPoisoned
	flagSparse
	flagPoints
)

// sparseWord is what one non-zero Bloom word costs in the sparse form.
const sparseWord = 2 + 8

// AppendSummary appends s's wire frame to dst.
func AppendSummary(dst []byte, s *Summary) []byte {
	if s.Disabled || (s.Bloom == nil && s.Rows > 0) {
		return append(dst, byte(s.T), flagDisabled)
	}
	var flags byte
	if s.HasBounds {
		flags |= flagBounds
	}
	if s.BoundsPoisoned {
		flags |= flagPoisoned
	}
	if s.points != nil {
		flags |= flagPoints
	}
	nonZero := 0
	for _, w := range s.Bloom {
		if w != 0 {
			nonZero++
		}
	}
	if 2+nonZero*sparseWord < bloomWords*8 {
		flags |= flagSparse
	}
	dst = append(dst, byte(s.T), flags)
	dst = binary.AppendUvarint(dst, uint64(s.Rows))
	if s.HasBounds {
		dst = appendBound(appendBound(dst, s.Min), s.Max)
	}
	if s.points != nil {
		dst = binary.AppendUvarint(dst, uint64(len(s.points)))
		for _, v := range s.points {
			dst = appendBound(dst, v)
		}
	}
	if flags&flagSparse == 0 {
		for _, w := range s.Bloom {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(nonZero))
	for i, w := range s.Bloom {
		if w != 0 {
			dst = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(dst, uint16(i)), w)
		}
	}
	return dst
}

func appendBound(dst []byte, v types.Value) []byte {
	switch v.T {
	case types.Double:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case types.Varchar:
		return append(binary.AppendUvarint(dst, uint64(len(v.S))), v.S...)
	case types.Boolean:
		if v.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
}

var errShortSummary = errors.New("dynfilter: truncated summary frame")

// DecodeSummary reads one frame. Every length is checked against the bytes
// that remain before anything is allocated, and a frame with bytes left over
// is rejected, and so are points out of order.
func DecodeSummary(b []byte) (*Summary, error) {
	if len(b) < 2 {
		return nil, errShortSummary
	}
	t, flags := types.Type(b[0]), b[1]
	b = b[2:]
	s := &Summary{T: t}
	if flags&flagDisabled != 0 {
		s.Disabled = true
		return s, nil
	}
	ordered := t == types.Bigint || t == types.Date || t == types.Double || t == types.Varchar
	if !ordered && t != types.Boolean {
		return nil, fmt.Errorf("dynfilter: a filtering summary of type %d", t)
	}
	rows, n := binary.Uvarint(b)
	if n <= 0 || rows > math.MaxInt64 {
		return nil, errShortSummary
	}
	s.Rows, b = int64(rows), b[n:]
	var err error
	s.BoundsPoisoned = flags&flagPoisoned != 0
	if flags&flagBounds != 0 {
		if s.BoundsPoisoned || !ordered {
			return nil, fmt.Errorf("dynfilter: bounds on a poisoned or unordered (%s) summary", t)
		}
		s.HasBounds = true
		if s.Min, b, err = decodeBound(b, t); err != nil {
			return nil, err
		}
		if s.Max, b, err = decodeBound(b, t); err != nil {
			return nil, err
		}
	}
	if flags&flagPoints != 0 {
		if s.BoundsPoisoned {
			return nil, errors.New("dynfilter: points on a poisoned summary")
		}
		if s.points, b, err = decodePoints(b, t); err != nil {
			return nil, err
		}
	}
	if flags&flagSparse == 0 {
		if len(b) != bloomWords*8 {
			return nil, fmt.Errorf("dynfilter: bloom has %d bytes, want %d", len(b), bloomWords*8)
		}
		s.Bloom = make([]uint64, bloomWords)
		for i := range s.Bloom {
			s.Bloom[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		return s, nil
	}
	if len(b) < 2 || len(b) != 2+int(binary.LittleEndian.Uint16(b))*sparseWord {
		return nil, errShortSummary
	}
	s.Bloom = make([]uint64, bloomWords)
	for b = b[2:]; len(b) > 0; b = b[sparseWord:] {
		i := binary.LittleEndian.Uint16(b)
		if i >= bloomWords {
			return nil, fmt.Errorf("dynfilter: bloom word %d out of range", i)
		}
		s.Bloom[i] = binary.LittleEndian.Uint64(b[2:])
	}
	return s, nil
}

// decodePoints reads a count of points and the points, ascending and, on a
// DOUBLE summary, none NaN.
func decodePoints(b []byte, t types.Type) ([]types.Value, []byte, error) {
	n, w := binary.Uvarint(b)
	switch {
	case w <= 0 || n > uint64(len(b)-w):
		return nil, nil, errShortSummary
	case n > MaxPushdownPoints:
		return nil, nil, fmt.Errorf("dynfilter: %d points, at most %d", n, MaxPushdownPoints)
	}
	points, b := make([]types.Value, n), b[w:]
	for i := range points {
		var err error
		if points[i], b, err = decodeBound(b, t); err != nil {
			return nil, nil, err
		}
		if p := points[i]; p.F != p.F || i > 0 && points[i-1].Compare(p) >= 0 {
			return nil, nil, fmt.Errorf("dynfilter: point %d out of order", i)
		}
	}
	return points, b, nil
}

func decodeBound(b []byte, t types.Type) (types.Value, []byte, error) {
	if t == types.Boolean {
		if len(b) < 1 || b[0] > 1 {
			return types.Value{}, nil, errShortSummary
		}
		return types.BooleanValue(b[0] == 1), b[1:], nil
	}
	if t == types.Varchar {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return types.Value{}, nil, errShortSummary
		}
		return types.VarcharValue(string(b[w : w+int(n)])), b[w+int(n):], nil
	}
	if len(b) < 8 {
		return types.Value{}, nil, errShortSummary
	}
	bits := binary.LittleEndian.Uint64(b)
	if t == types.Double {
		return types.DoubleValue(math.Float64frombits(bits)), b[8:], nil
	}
	return types.Value{T: t, I: int64(bits)}, b[8:], nil
}
