package dynfilter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/types"
)

// The wire form of a summary: one small binary frame. Across a process
// boundary a summary is its bounds and its Bloom — at most 8 KB, where
// ≤ DefaultMaxSet keys in BloomBits bits at two probes is ≈ 1.4 % false
// positives — and the exact set stays in the process that built it
// (in-process delivery shares the *Summary itself, exact set included).
//
//	byte   type (types.Type)
//	byte   flags
//	uvarint rows
//	bounds (flagBounds): min then max — 8 bytes little-endian for
//	       BIGINT/DATE (the int64) and DOUBLE (its IEEE bits, so -0.0 stays
//	       -0.0), uvarint length + bytes for VARCHAR
//	bloom  (absent when flagDisabled): bloomWords little-endian words, or
//	       with flagSparse a uint16 count of (uint16 index, word) pairs — the
//	       build of a 25-row dimension table sets 50 bits, not 1 024 words
//
// A Disabled summary is its type and flags: nothing else is read.
const (
	flagDisabled = 1 << iota
	flagBounds
	flagPoisoned
	flagSparse
)

// sparseWord is what one non-zero Bloom word costs in the sparse form.
const sparseWord = 2 + 8

// AppendSummary appends s's wire frame to dst.
func AppendSummary(dst []byte, s *Summary) []byte {
	if s.Disabled {
		return append(dst, byte(s.T), flagDisabled)
	}
	var flags byte
	if s.HasBounds {
		flags |= flagBounds
	}
	if s.BoundsPoisoned {
		flags |= flagPoisoned
	}
	nonZero := 0
	for _, w := range s.Bloom {
		if w != 0 {
			nonZero++
		}
	}
	if 2+nonZero*sparseWord < len(s.Bloom)*8 {
		flags |= flagSparse
	}
	dst = append(dst, byte(s.T), flags)
	dst = binary.AppendUvarint(dst, uint64(s.Rows))
	if s.HasBounds {
		dst = appendBound(appendBound(dst, s.Min), s.Max)
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
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
}

var errShortSummary = errors.New("dynfilter: truncated summary frame")

// DecodeSummary reads one frame. Every length is checked against the bytes
// that remain before anything is allocated, and a frame with bytes left over
// is rejected. The result carries no exact set: membership is the Bloom's.
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
	s.BoundsPoisoned = flags&flagPoisoned != 0
	if flags&flagBounds != 0 {
		if s.BoundsPoisoned || !ordered {
			return nil, fmt.Errorf("dynfilter: bounds on a poisoned or unordered (%s) summary", t)
		}
		s.HasBounds = true
		var err error
		if s.Min, b, err = decodeBound(b, t); err != nil {
			return nil, err
		}
		if s.Max, b, err = decodeBound(b, t); err != nil {
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

func decodeBound(b []byte, t types.Type) (types.Value, []byte, error) {
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
