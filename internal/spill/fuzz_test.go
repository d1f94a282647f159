package spill

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// seedFile is a real spill file: two records of partition 0, then one of
// partition 15 — two extents.
func seedFile(f *testing.F) []byte {
	w, err := NewWriter(f.TempDir(), "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	for _, part := range []int{0, 0, 15} {
		if err := w.WritePage(part, pageOfInts(3)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// checkImage opens a spill file image the way a drain does. It must never
// panic and never allocate on the word of the file (frame length, partition
// and extent count are checked against caps and against the bytes actually
// there first). An image that opens, reads through Next and drains through
// the index without error must give the same pages, partition by partition,
// both ways.
func checkImage(t *testing.T, data []byte) {
	recs, err := DecodeAll(data)
	if err != nil {
		return
	}
	byPart := map[int]int{}
	for _, rec := range recs {
		if rec.Partition < 0 || rec.Partition >= MaxPartitions {
			t.Fatalf("accepted out-of-range partition %d", rec.Partition)
		}
		byPart[rec.Partition]++
		p := rec.Page
		for c := 0; c < p.ColCount(); c++ {
			col := p.Col(c)
			for i := 0; i < col.Len(); i++ {
				_ = col.Value(i)
			}
		}
	}
	r, err := newReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("DecodeAll accepted an image newReader rejects: %v", err)
	}
	defer r.Close()
	for _, e := range r.extents {
		if byPart[e.partition] < 0 {
			continue // drained under an earlier extent of the same partition
		}
		n := 0
		for {
			_, err := r.NextPage(e.partition)
			if err == io.EOF {
				break
			}
			if err != nil {
				return // a lie about which records an extent holds
			}
			n++
		}
		if n != byPart[e.partition] {
			t.Fatalf("partition %d: %d pages through the index, %d through Next", e.partition, n, byPart[e.partition])
		}
		byPart[e.partition] = -1
	}
	for part, n := range byPart {
		if n > 0 {
			t.Fatalf("partition %d has %d records and no extent", part, n)
		}
	}
}

// FuzzSpillFileDecode feeds arbitrary bytes to the spill-file reader.
func FuzzSpillFileDecode(f *testing.F) {
	data := seedFile(f)
	f.Add(data)
	f.Add(data[:4])
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-1])
	f.Add(appendIndex([]byte("PSP2"), nil, 4)) // a file of no records
	f.Add([]byte("PSP2"))
	f.Add([]byte{})
	f.Fuzz(checkImage)
}

// FuzzSpillIndex keeps a real record region and fuzzes what follows it: the
// index and the trailer, which is where a whole-file fuzzer rarely gets to.
func FuzzSpillIndex(f *testing.F) {
	data := seedFile(f)
	probe, err := newReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		f.Fatal(err)
	}
	extents := append([]extent(nil), probe.extents...)
	probe.Close()
	end := extents[1].offset + extents[1].length
	records := data[:end]
	f.Add(data[end:])
	f.Add(appendIndex(nil, extents[:1], end))
	f.Add(appendIndex(nil, extents, end+1))
	f.Add(appendIndex(nil, []extent{{partition: 0, offset: 4, length: end - 4}}, end))
	f.Add(appendIndex(nil, []extent{extents[1], extents[0]}, end))
	f.Add(appendIndex(nil, nil, 4))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, footer []byte) {
		checkImage(t, append(append([]byte(nil), records...), footer...))
	})
}

func pageOfInts(n int) *block.Page {
	pb := block.NewPageBuilder([]types.Type{types.Bigint})
	for i := 0; i < n; i++ {
		pb.AppendRow([]types.Value{types.BigintValue(int64(i))})
	}
	return pb.Build()
}
