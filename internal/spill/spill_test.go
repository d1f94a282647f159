package spill

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
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
	if w.Bytes() <= 4 {
		t.Fatalf("writer byte count %d not tracked", w.Bytes())
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
	t.Run("huge partition tag", func(t *testing.T) {
		bad := append([]byte(nil), data[:4]...)
		// uvarint(1<<20) exceeds MaxPartitions.
		bad = append(bad, 0x80, 0x80, 0x40)
		if _, err := DecodeAll(bad); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("got %v, want ErrCorruptFile", err)
		}
	})
	t.Run("huge frame length", func(t *testing.T) {
		bad := append([]byte(nil), data[:4]...)
		bad = append(bad, 0x00)                         // partition 0
		bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~34 GiB frame
		if _, err := DecodeAll(bad); !errors.Is(err, ErrCorruptFile) {
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

// TestSpillNextPageFiltersByPartition: a partition drain sees exactly its own
// pages in order, out of a frame buffer it reuses, and the records it skips
// still count as read — they come off the file all the same, so the drain's
// read amplification is what it was.
func TestSpillNextPageFiltersByPartition(t *testing.T) {
	const parts = 16
	w, err := NewWriter(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]*block.Page{}
	for i := 0; i < 3*parts+5; i++ {
		p := testPage(t, int64(i*100))
		if err := w.WritePage(i%parts, p); err != nil {
			t.Fatal(err)
		}
		want[i%parts] = append(want[i%parts], p)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	before := CurrentStats().BytesRead
	for {
		_, frame, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if frame[4] != 0 {
			t.Fatalf("spill frame has flags %#x, want a raw frame", frame[4])
		}
	}
	r.Close()
	fullPass := CurrentStats().BytesRead - before
	if fullPass == 0 {
		t.Fatal("a full pass read no bytes")
	}

	for part := 0; part < parts; part++ {
		r, err := OpenReader(w.Path())
		if err != nil {
			t.Fatal(err)
		}
		before := CurrentStats().BytesRead
		var got []*block.Page
		for {
			p, err := r.NextPage(part)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p)
		}
		if read := CurrentStats().BytesRead - before; read != fullPass {
			t.Errorf("partition %d drain counted %d bytes read, a full pass counts %d", part, read, fullPass)
		}
		if len(got) != len(want[part]) {
			t.Fatalf("partition %d: got %d pages, want %d", part, len(got), len(want[part]))
		}
		// Compared only now: a page must not alias the reused frame buffer.
		for i := range got {
			samePage(t, got[i], want[part][i])
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.NextPage(part); !errors.Is(err, os.ErrClosed) {
			t.Errorf("NextPage on a closed reader: %v, want os.ErrClosed", err)
		}
	}
}

// TestSpillReaderAcceptsCompressedFrames: files written before frames went
// raw still drain.
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
	path := filepath.Join(t.TempDir(), "old.bin")
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
