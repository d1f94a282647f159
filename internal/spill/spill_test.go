package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

func testPage(t *testing.T, base int64) *block.Page {
	t.Helper()
	pb := block.NewPageBuilder([]types.Type{types.Bigint, types.Varchar})
	for i := int64(0); i < 10; i++ {
		pb.AppendRow([]types.Value{
			types.BigintValue(base + i),
			types.VarcharValue(strings.Repeat("x", int(i))),
		})
	}
	return pb.Build()
}

func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]*block.Page{}
	for i := 0; i < 8; i++ {
		part := i % 3
		p := testPage(t, int64(i*100))
		if err := w.WritePage(part, p); err != nil {
			t.Fatal(err)
		}
		want[part] = append(want[part], p)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := map[int][]*block.Page{}
	for {
		part, frame, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p, n, err := block.DecodePage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frame) {
			t.Fatalf("frame consumed %d of %d bytes", n, len(frame))
		}
		got[part] = append(got[part], p)
	}
	for part, pages := range want {
		if len(got[part]) != len(pages) {
			t.Fatalf("partition %d: got %d pages, want %d", part, len(got[part]), len(pages))
		}
		for i, p := range pages {
			samePage(t, got[part][i], p)
		}
	}
}

func TestSpillRemoveDeletesFile(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(0, testPage(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	before := CurrentStats()
	Remove(w.Path())
	if _, err := os.Stat(w.Path()); !os.IsNotExist(err) {
		t.Fatalf("spill file still exists after Remove: %v", err)
	}
	if CurrentStats().FilesDeleted != before.FilesDeleted+1 {
		t.Fatalf("FilesDeleted not incremented")
	}
	// The spill dir must hold no engine spill files afterwards.
	ents, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("leftover spill files: %v", ents)
	}
}

func TestSpillAbortDeletesFile(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(1, testPage(t, 0)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := os.Stat(w.Path()); !os.IsNotExist(err) {
		t.Fatalf("spill file still exists after Abort")
	}
}

func TestSpillRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(2, testPage(t, 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeAll(data[:len(data)-3]); err == nil {
			t.Fatal("truncated file accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[0] ^= 0xff
		if _, err := DecodeAll(bad); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("got %v, want ErrCorruptFile", err)
		}
	})
	t.Run("flipped frame byte", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(bad)/2] ^= 0xff
		if _, err := DecodeAll(bad); err == nil {
			t.Fatal("corrupted frame accepted")
		}
	})
	// A record header that lies, under an index that covers it honestly.
	footed := func(record ...byte) []byte {
		bad := append(append([]byte(nil), magic[:]...), record...)
		only := extent{partition: 0, offset: int64(len(magic)), length: int64(len(record))}
		return appendIndex(bad, []extent{only}, int64(len(bad)))
	}
	t.Run("huge partition tag", func(t *testing.T) {
		// uvarint(1<<20) exceeds MaxPartitions.
		if _, err := DecodeAll(footed(0x80, 0x80, 0x40, 0x01, 0x00)); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("got %v, want ErrCorruptFile", err)
		}
	})
	t.Run("huge frame length", func(t *testing.T) {
		// Partition 0, then a ~34 GiB frame.
		if _, err := DecodeAll(footed(0x00, 0xff, 0xff, 0xff, 0xff, 0x7f)); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("got %v, want ErrCorruptFile", err)
		}
	})
	t.Run("frame longer than its extent", func(t *testing.T) {
		// Under both caps, but the span holds two more bytes, not 100.
		if _, err := DecodeAll(footed(0x00, 100, 0x00, 0x00)); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("got %v, want ErrCorruptFile", err)
		}
	})
	t.Run("valid round trip", func(t *testing.T) {
		recs, err := DecodeAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Partition != 2 || recs[0].Page.RowCount() != 10 {
			t.Fatalf("unexpected records: %+v", recs)
		}
	})
}

func samePage(t *testing.T, got, want *block.Page) {
	t.Helper()
	if got.RowCount() != want.RowCount() || got.ColCount() != want.ColCount() {
		t.Fatalf("page shape %dx%d, want %dx%d", got.RowCount(), got.ColCount(), want.RowCount(), want.ColCount())
	}
	for r := 0; r < want.RowCount(); r++ {
		wr, gr := want.Row(r), got.Row(r)
		for c := range wr {
			if !wr[c].Equal(gr[c]) {
				t.Fatalf("row %d col %d: got %v want %v", r, c, gr[c], wr[c])
			}
		}
	}
}

// writeFile writes pages under the given partition tags, in order, and
// returns the finished file's path and the pages by partition.
func writeFile(t *testing.T, parts []int) (string, map[int][]*block.Page) {
	t.Helper()
	w, err := NewWriter(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]*block.Page{}
	for i, part := range parts {
		p := testPage(t, int64(i*100))
		if err := w.WritePage(part, p); err != nil {
			t.Fatal(err)
		}
		want[part] = append(want[part], p)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return w.Path(), want
}

// drainPartition reads partition part to io.EOF and returns its pages and the
// bytes the reads counted.
func drainPartition(t *testing.T, r *Reader, part int) ([]*block.Page, int64) {
	t.Helper()
	before := CurrentStats().BytesRead
	var got []*block.Page
	for {
		p, err := r.NextPage(part)
		if err == io.EOF {
			return got, CurrentStats().BytesRead - before
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
}

// TestSpillIndexReadsEachPartitionOnce: whatever order partitions were
// written in — bucket by bucket (the aggregation's revoke), interleaved (the
// join's page-at-a-time split), with partitions that hold nothing — a
// partition drain sees exactly its own pages in write order and takes only
// their bytes off the file, one open reader can drain every partition in
// turn, and Next still yields every record in write order and then io.EOF
// where the index starts.
func TestSpillIndexReadsEachPartitionOnce(t *testing.T) {
	const parts = 16
	interleaved := make([]int, 0, 3*parts+5)
	for i := 0; i < 3*parts+5; i++ {
		interleaved = append(interleaved, i%parts)
	}
	for name, tc := range map[string]struct {
		tags    []int
		extents int
	}{
		"bucketed":    {[]int{0, 0, 0, 3, 3, 15, 15, 15, 15}, 3},
		"interleaved": {interleaved, len(interleaved)},
		"mixed runs":  {[]int{2, 2, 7, 2, 2, 2, 7, 7, 9}, 5},
		"one record":  {[]int{11}, 1},
		"no records":  {nil, 0},
	} {
		t.Run(name, func(t *testing.T) {
			path, want := writeFile(t, tc.tags)

			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.extents) != tc.extents {
				t.Errorf("index has %d extents, want %d: %+v", len(r.extents), tc.extents, r.extents)
			}
			before := CurrentStats().BytesRead
			seen := map[int]int{}
			for i := 0; ; i++ {
				part, frame, err := r.Next()
				if err == io.EOF {
					if i != len(tc.tags) {
						t.Fatalf("Next hit io.EOF after %d of %d records", i, len(tc.tags))
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if part != tc.tags[i] {
					t.Fatalf("record %d: partition %d, written as %d", i, part, tc.tags[i])
				}
				if frame[4] != 0 {
					t.Fatalf("spill frame has flags %#x, want a raw frame", frame[4])
				}
				p, _, err := block.DecodePage(frame)
				if err != nil {
					t.Fatal(err)
				}
				samePage(t, p, want[part][seen[part]])
				seen[part]++
			}
			if _, _, err := r.Next(); err != io.EOF {
				t.Errorf("Next after io.EOF: %v, want io.EOF again", err)
			}
			fullPass := CurrentStats().BytesRead - before
			r.Close()

			r, err = OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			var drained int64
			for part := 0; part < parts; part++ {
				got, read := drainPartition(t, r, part)
				drained += read
				if len(got) != len(want[part]) {
					t.Fatalf("partition %d: got %d pages, want %d", part, len(got), len(want[part]))
				}
				if len(got) == 0 && read != 0 {
					t.Errorf("empty partition %d read %d bytes", part, read)
				}
				// Compared only now: a page must not alias the reused frame buffer.
				for i := range got {
					samePage(t, got[i], want[part][i])
				}
			}
			if drained != fullPass {
				t.Errorf("draining all %d partitions read %d bytes, one full pass reads %d", parts, drained, fullPass)
			}
			// A partition asked for again starts over.
			if got, _ := drainPartition(t, r, 2); len(got) != len(want[2]) {
				t.Errorf("second drain of partition 2: %d pages, want %d", len(got), len(want[2]))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.NextPage(0); !errors.Is(err, os.ErrClosed) {
				t.Errorf("NextPage on a closed reader: %v, want os.ErrClosed", err)
			}
			if _, _, err := r.Next(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("Next on a closed reader: %v, want os.ErrClosed", err)
			}
		})
	}
}

// TestSpillRejectsLyingFooter: a trailer or index that is cut short or that
// lies — about where the index is, where an extent is, which partition it
// holds or how many there are — is ErrCorruptFile, and nothing is allocated
// on the word of the lie.
func TestSpillRejectsLyingFooter(t *testing.T) {
	path, _ := writeFile(t, []int{1, 1, 4, 1})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := newReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	good := append([]extent(nil), probe.extents...)
	probe.Close()
	if len(good) != 3 {
		t.Fatalf("want 3 extents, got %+v", good)
	}
	end := good[2].offset + good[2].length // where the index starts
	records := data[:end]
	refoot := func(extents []extent, indexOff int64) []byte {
		return appendIndex(append([]byte(nil), records...), extents, indexOff)
	}
	edit := func(f func(e []extent)) []byte {
		e := append([]extent(nil), good...)
		f(e)
		return refoot(e, end)
	}
	if _, err := DecodeAll(refoot(good, end)); err != nil {
		t.Fatalf("rebuilt honest footer rejected: %v", err)
	}
	hugeCount := append([]byte(nil), records...)
	hugeCount = binary.AppendUvarint(hugeCount, 1<<40)
	hugeCount = binary.LittleEndian.AppendUint64(hugeCount, uint64(end))
	hugeCount = append(hugeCount, tailMagic[:]...)

	for name, bad := range map[string][]byte{
		"trailer cut":            data[:len(data)-1],
		"index cut":              append(append([]byte(nil), data[:len(data)-trailerLen-2]...), data[len(data)-trailerLen:]...),
		"no trailer":             records,
		"index offset past EOF":  refoot(good, int64(len(data))+100),
		"index offset huge":      refoot(good, 1<<62),
		"index offset in magic":  refoot(good, 2),
		"index offset early":     refoot(good, end-1),
		"extent past EOF":        edit(func(e []extent) { e[2].length = 1 << 40 }),
		"extent offset past EOF": edit(func(e []extent) { e[2].offset = 1 << 40 }),
		"overlapping extents":    edit(func(e []extent) { e[1].offset -= 3; e[1].length += 3 }),
		"gap between extents":    edit(func(e []extent) { e[1].offset++; e[1].length-- }),
		"zero-length extent":     edit(func(e []extent) { e[1].length = 0 }),
		"records not covered":    refoot(good[:2], end),
		"partition too large":    edit(func(e []extent) { e[0].partition = MaxPartitions }),
		"extent count huge":      hugeCount,
	} {
		t.Run(name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := DecodeAll(bad)
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("got %v, want ErrCorruptFile", err)
			}
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
				t.Errorf("rejecting a %d-byte file allocated %d bytes", len(bad), got)
			}
		})
	}

	// Lies the index validation cannot see surface when the extent is read.
	for name, bad := range map[string][]byte{
		"extent holds another partition": edit(func(e []extent) { e[1].partition = 9 }),
		"extent boundary inside a record": edit(func(e []extent) {
			e[0].length -= 5
			e[1].offset -= 5
			e[1].length += 5
		}),
	} {
		t.Run(name, func(t *testing.T) {
			r, err := newReader(bytes.NewReader(bad), int64(len(bad)))
			if err != nil {
				if !errors.Is(err, ErrCorruptFile) {
					t.Fatalf("open: %v", err)
				}
				return
			}
			defer r.Close()
			for _, e := range r.extents {
				for {
					_, err := r.NextPage(e.partition)
					if err == io.EOF {
						break
					}
					if err != nil {
						if !errors.Is(err, ErrCorruptFile) && !errors.Is(err, block.ErrCorruptPage) {
							t.Fatalf("partition %d: %v, want a corruption error", e.partition, err)
						}
						return
					}
				}
			}
			t.Fatal("every extent drained cleanly")
		})
	}
}

// TestSpillReaderAcceptsCompressedFrames: the writer stores raw frames, but a
// record is whatever frame the page codec reads.
func TestSpillReaderAcceptsCompressedFrames(t *testing.T) {
	pb := block.NewPageBuilder([]types.Type{types.Varchar})
	for i := 0; i < 500; i++ {
		pb.AppendRow([]types.Value{types.VarcharValue("the same value every row")})
	}
	p := pb.Build()
	frame, err := block.EncodePage(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != 1 {
		t.Fatalf("want a compressed frame, got flags %#x", frame[4])
	}
	data := append([]byte(nil), magic[:]...)
	data = binary.AppendUvarint(data, 3)
	data = binary.AppendUvarint(data, uint64(len(frame)))
	data = append(data, frame...)
	only := extent{partition: 3, offset: int64(len(magic)), length: int64(len(data) - len(magic))}
	data = appendIndex(data, []extent{only}, int64(len(data)))
	path := filepath.Join(t.TempDir(), "flate.bin")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.NextPage(3)
	if err != nil {
		t.Fatal(err)
	}
	samePage(t, got, p)
	if _, err := r.NextPage(3); err != io.EOF {
		t.Fatalf("want io.EOF after the only record, got %v", err)
	}
}

// TestSpillWriterClosedIsInert: the write buffer goes back to a pool on
// Finish, so a finished writer must refuse writes rather than scribble on a
// buffer someone else now holds, and a second Finish must not delete the file.
func TestSpillWriterClosedIsInert(t *testing.T) {
	w, err := NewWriter(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(0, testPage(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(0, testPage(t, 0)); err == nil {
		t.Error("write to a finished writer succeeded")
	}
	w.Finish()
	if _, err := os.Stat(w.Path()); err != nil {
		t.Errorf("finished spill file gone after a second Finish: %v", err)
	}
}

// TestSpillRecordTagMatchesItsExtent: a record whose tag disagrees with the
// extent its offset lies in is ErrCorruptFile to both readers — Next, which
// reads the records in write order, as well as NextPage, which reads one
// partition's extents — so the two never return different pages.
func TestSpillRecordTagMatchesItsExtent(t *testing.T) {
	relabelled := imageOf(t, 48, 48, 49)
	probe, err := newReader(bytes.NewReader(relabelled), int64(len(relabelled)))
	if err != nil {
		t.Fatal(err)
	}
	extents := append([]extent(nil), probe.extents...)
	probe.Close()
	extents[1].partition = 47
	end := extents[1].offset + extents[1].length
	relabelled = appendIndex(relabelled[:end:end], extents, end)

	for name, c := range map[string]struct {
		image []byte
		part  int // the partition whose extent holds a record of another
	}{
		"an index entry relabelled":      {relabelled, 47},
		"an extent split and relabelled": {splitExtentImage(t), 49},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeAll(c.image); !errors.Is(err, ErrCorruptFile) {
				t.Errorf("reading in write order: %v, want ErrCorruptFile", err)
			}
			r, err := newReader(bytes.NewReader(c.image), int64(len(c.image)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.NextPage(c.part); !errors.Is(err, ErrCorruptFile) {
				t.Errorf("draining partition %d: %v, want ErrCorruptFile", c.part, err)
			}
		})
	}
}

// TestPartitionTakesTheTopBits: the partition of a hash is its top bits, so
// hashes that agree in their low bits — one exchange partition's, or one
// table slot's — still reach every partition.
func TestPartitionTakesTheTopBits(t *testing.T) {
	seen := map[int]bool{}
	for top := uint64(0); top < Partitions; top++ {
		h := top<<(64-partitionBits) | 0x5 // same low bits every time
		if got := Partition(h); got != int(top) {
			t.Fatalf("Partition(%#x) = %d, want %d", h, got, top)
		}
		seen[Partition(h)] = true
	}
	if len(seen) != Partitions {
		t.Fatalf("%d partitions reached, want %d", len(seen), Partitions)
	}
	if Partitions > MaxPartitions {
		t.Fatalf("Partitions %d exceeds the file format's %d", Partitions, MaxPartitions)
	}
}

// TestSetDrainsEachPartitionAcrossFiles: a set opens a file on the first write
// after a seal, a partition's pages come back across every file in write
// order, and Remove deletes every file, the open one too.
func TestSetDrainsEachPartitionAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	s := Set{Dir: dir, Label: "test"}
	if !s.Empty() {
		t.Fatal("a new set is not empty")
	}
	want := map[int][]*block.Page{}
	for file := 0; file < 2; file++ {
		for i := 0; i < 6; i++ {
			part := i % 3
			p := testPage(t, int64(100*file+10*i))
			if err := s.WritePage(part, p); err != nil {
				t.Fatal(err)
			}
			want[part] = append(want[part], p)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Empty() {
		t.Fatal("a set with two files reports empty")
	}
	for part := 0; part < 4; part++ {
		it := s.Pages(part)
		var got []*block.Page
		for {
			p, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			got = append(got, p)
		}
		it.Close()
		if len(got) != len(want[part]) {
			t.Fatalf("partition %d: %d pages, want %d", part, len(got), len(want[part]))
		}
		for i := range got {
			samePage(t, got[i], want[part][i])
		}
	}
	if err := s.WritePage(0, testPage(t, 0)); err != nil { // a third file, left open
		t.Fatal(err)
	}
	before := CurrentStats()
	s.Remove()
	if !s.Empty() {
		t.Fatal("a removed set is not empty")
	}
	if d := CurrentStats().FilesDeleted - before.FilesDeleted; d != 3 {
		t.Fatalf("Remove deleted %d files, want 3", d)
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, FilePrefix+"*")); len(ents) != 0 {
		t.Fatalf("leftover spill files: %v", ents)
	}
}
