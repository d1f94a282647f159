package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/types"
)

// inflateBombFrame is a compressed frame of at most 64 bytes whose header
// claims the full 64 MiB payload. The checksum covers only the stored bytes,
// so the lie costs the sender nothing.
func inflateBombFrame(tb testing.TB) []byte {
	tb.Helper()
	frame, err := EncodePage(NewPage(&LongBlock{T: types.Bigint, Vals: make([]int64, 200)}), true)
	if err != nil {
		tb.Fatal(err)
	}
	if frame[4] != flagCompressed || len(frame) > 64 {
		tb.Fatalf("want a compressed frame of at most 64 bytes, got flags %d, %d bytes", frame[4], len(frame))
	}
	binary.LittleEndian.PutUint32(frame[9:], maxFramePayload)
	return frame
}

// reseal rewrites a frame's stored length and checksum after its stored
// bytes were tampered with, the way a hostile peer would.
func reseal(frame []byte) []byte {
	stored := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(stored)))
	binary.LittleEndian.PutUint32(frame[13:], crc32.Checksum(stored, crcTable))
	return frame
}

func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsDeclaredSizeByInput: a tiny compressed frame declaring a
// 64 MiB payload is rejected before anything is allocated for that claim.
func TestDecodeBoundsDeclaredSizeByInput(t *testing.T) {
	frame := inflateBombFrame(t)
	decoders := map[string]func() error{
		"DecodePage": func() error { _, _, err := DecodePage(frame); return err },
		"PageReader": func() error { _, err := NewPageReader(bytes.NewReader(frame)).Next(); return err },
	}
	for name, decode := range decoders {
		var err error
		got := allocatedDuring(func() { err = decode() })
		if !errors.Is(err, ErrCorruptPage) {
			t.Errorf("%s: want ErrCorruptPage, got %v", name, err)
		}
		if got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes rejecting a %d-byte frame", name, got, len(frame))
		}
	}
}

// cutReader yields data and then fails with err.
type cutReader struct {
	data []byte
	err  error
}

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestPageReaderKeepsReadErrorCause: a transport failure mid-frame surfaces
// as itself, not as a short read.
func TestPageReaderKeepsReadErrorCause(t *testing.T) {
	frame, err := EncodePage(widePage(64), false)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("connection reset by peer")
	for _, cut := range []int{5, frameHeaderLen + 3} {
		_, err := NewPageReader(&cutReader{data: frame[:cut], err: cause}).Next()
		if !errors.Is(err, cause) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream failing after %d bytes: got %v, want an error wrapping %q", cut, err, cause)
		}
		_, err = NewPageReader(bytes.NewReader(frame[:cut])).Next()
		if err != io.ErrUnexpectedEOF {
			t.Errorf("stream ending after %d bytes: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestCodecPoolsUnderConcurrency drives the shared scratch, compressor and
// decompressor pools from 8 goroutines with pages from one row to over a
// megabyte, mixing in encodes that fail (payload over the frame limit) and
// decodes that fail mid-stream. Whatever a failure leaves behind must not
// reach the next caller: every good page still round-trips exactly.
func TestCodecPoolsUnderConcurrency(t *testing.T) {
	var pages []*Page
	var wantRaw [][]byte
	for _, rows := range []int{1, 17, 562, 4096, 40000} {
		p := widePage(rows)
		raw, err := EncodePage(p, false)
		if err != nil {
			t.Fatal(err)
		}
		pages, wantRaw = append(pages, p), append(wantRaw, raw)
	}
	if n := len(wantRaw[len(wantRaw)-1]); n < 1<<20 {
		t.Fatalf("largest page encodes to %d bytes, want over 1 MiB", n)
	}
	tooBig := NewPage(&LongBlock{T: types.Bigint, Vals: make([]int64, maxFramePayload/8+1)})

	packed, err := EncodePage(pages[3], true)
	if err != nil {
		t.Fatal(err)
	}
	if packed[4] != flagCompressed {
		t.Fatal("want a compressed frame to corrupt")
	}
	truncated := reseal(bytes.Clone(packed[:frameHeaderLen+(len(packed)-frameHeaderLen)/2]))
	overlong := bytes.Clone(packed)
	binary.LittleEndian.PutUint32(overlong[9:], binary.LittleEndian.Uint32(overlong[9:])-1)
	garbled := bytes.Clone(packed)
	for i := len(garbled) / 2; i < len(garbled)/2+8; i++ {
		garbled[i] ^= 0x5a
	}
	reseal(garbled)

	roundTrips := func(i int, frame []byte, err error) error {
		if err != nil {
			return err
		}
		got, n, err := DecodePage(frame)
		if err != nil {
			return err
		}
		if n != len(frame) {
			return errors.New("frame not fully consumed")
		}
		back, err := EncodePage(got, false)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, wantRaw[i]) {
			return errors.New("decoded page re-encodes differently")
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var stream bytes.Buffer
			for iter := 0; iter < 6; iter++ {
				compress := (g+iter)%2 == 0
				for i, p := range pages {
					frame, err := EncodePage(p, compress)
					if err := roundTrips(i, frame, err); err != nil {
						t.Errorf("goroutine %d page %d compress=%v: %v", g, i, compress, err)
					}
					stream.Reset()
					err = WritePage(&stream, p, !compress)
					if err == nil {
						var got *Page
						if got, err = NewPageReader(&stream).Next(); err == nil {
							frame, err = EncodePage(got, false)
						}
					}
					if err != nil || !bytes.Equal(frame, wantRaw[i]) {
						t.Errorf("goroutine %d page %d compress=%v: stream round trip failed: %v", g, i, !compress, err)
					}
				}
				if _, err := EncodePage(tooBig, compress); err == nil {
					t.Errorf("goroutine %d: page over the frame limit encoded", g)
				}
				for name, bad := range map[string][]byte{"truncated": truncated, "overlong": overlong} {
					if _, _, err := DecodePage(bad); !errors.Is(err, ErrCorruptPage) {
						t.Errorf("goroutine %d: %s stream: got %v, want ErrCorruptPage", g, name, err)
					}
				}
				// Garbled deflate data may or may not inflate to something
				// that parses; it must only not poison the pools.
				DecodePage(garbled)
			}
		}(g)
	}
	wg.Wait()
}

// TestCodecAllocationCeilings holds the steady-state cost of a shuffle-sized
// page to what the page itself needs: writing one allocates next to nothing
// (the parent commit: 46 KB raw, 1.26 MB compressed), decoding one allocates
// per column, not per value (the parent: 572 allocations).
func TestCodecAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	p := widePage(562)
	// The least of three batches: a collection in the middle of one empties
	// the pools and charges that batch a compressor it does not usually pay.
	bytesPerWrite := func(compress bool) uint64 {
		const runs = 200
		least := ^uint64(0)
		for batch := 0; batch < 3; batch++ {
			WritePage(io.Discard, p, compress)
			got := allocatedDuring(func() {
				for i := 0; i < runs; i++ {
					if err := WritePage(io.Discard, p, compress); err != nil {
						t.Fatal(err)
					}
				}
			}) / runs
			least = min(least, got)
		}
		return least
	}
	if got := bytesPerWrite(false); got >= 1<<10 {
		t.Errorf("raw WritePage allocates %d bytes per page, want < 1 KB", got)
	}
	if got := bytesPerWrite(true); got >= 4<<10 {
		t.Errorf("compressed WritePage allocates %d bytes per page, want < 4 KB", got)
	}
	// compress/flate builds its Huffman tables afresh for every block of a
	// stream, pooled reader or not, so a compressed frame gets that many more.
	for compress, ceiling := range map[bool]float64{false: 16, true: 48} {
		frame, err := EncodePage(p, compress)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodePage(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("DecodePage (compressed=%v) makes %.0f allocations, want <= %.0f", compress, allocs, ceiling)
		}
	}
}

func benchmarkEncode(b *testing.B, compress bool) {
	p := widePage(562)
	raw, err := EncodePage(p, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePage(io.Discard, p, compress); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecode(b *testing.B, compress bool) {
	p := widePage(562)
	raw, err := EncodePage(p, false)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := EncodePage(p, compress)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePage(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeRaw(b *testing.B)   { benchmarkEncode(b, false) }
func BenchmarkCodecEncodeFlate(b *testing.B) { benchmarkEncode(b, true) }
func BenchmarkCodecDecodeRaw(b *testing.B)   { benchmarkDecode(b, false) }
func BenchmarkCodecDecodeFlate(b *testing.B) { benchmarkDecode(b, true) }
