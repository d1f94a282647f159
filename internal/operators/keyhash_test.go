package operators

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/spill"
	"repro/internal/types"
)

// keyHashPages is 20 pages of 1 000 distinct keys each: a BIGINT column, a
// VARCHAR column, and the VARCHAR column dictionary-encoded.
func keyHashPages() []*block.Page {
	var pages []*block.Page
	for pg := range 20 {
		longs, strs, idx := make([]int64, 1000), make([]string, 1000), make([]int32, 1000)
		for r := range longs {
			k := pg*1000 + r
			longs[r], strs[r], idx[r] = int64(k)*7919, fmt.Sprintf("key-%d", k), int32(r)
		}
		dict := block.NewVarcharBlock(strs, nil)
		pages = append(pages, block.NewPage(block.NewLongBlock(longs, nil), dict, block.NewDictionaryBlock(dict, idx)))
	}
	return pages
}

// TestKeyHashBitsIndependent: the keys an exchange over n consumers sends to
// consumer 0 still fill every spill partition and spread over a key table's
// slots, whatever the key's type — the exchange, the spill partitions and the
// table's slots read disjoint bits of the one key hash. Each of the four
// low-bit slot classes of the table hash holds at least 20 % of the keys.
func TestKeyHashBitsIndependent(t *testing.T) {
	pages := keyHashPages()
	for _, key := range []struct {
		name string
		cols []int
		ts   []types.Type
	}{
		{"BIGINT", []int{0}, []types.Type{types.Bigint}},
		{"VARCHAR", []int{1}, []types.Type{types.Varchar}},
		{"(BIGINT, VARCHAR)", []int{0, 1}, []types.Type{types.Bigint, types.Varchar}},
	} {
		for _, n := range []int{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s, consumer 0 of %d", key.name, n), func(t *testing.T) {
				var parts [spill.Partitions]int
				var slots [4]int
				total := 0
				for _, p := range pages {
					var keep []int
					for r, c := range hashPartitionPage(nil, new(batchKeys), p, key.cols, n) {
						if c == 0 {
							keep = append(keep, r)
						}
					}
					var bk batchKeys
					bk.reset(nil, p.FilterPositions(keep), key.cols, fixedWidthKeys(key.ts))
					for _, h := range bk.hashes {
						parts[spill.Partition(h)]++
						slots[h&3]++
						total++
					}
				}
				for part, k := range parts {
					if k == 0 {
						t.Errorf("spill partition %d holds none of %d keys (all: %v)", part, total, parts)
					}
				}
				for class, k := range slots {
					if 5*k < total {
						t.Errorf("slot class %d holds %d of %d keys, want at least 20 %% (all: %v)", class, k, total, slots)
					}
				}
			})
		}
	}
}

var routed []int

// BenchmarkHashPartitionPage routes pages of 1 000 keys to one of two
// consumers: a flat BIGINT key, a flat VARCHAR key and a dictionary VARCHAR
// key.
func BenchmarkHashPartitionPage(b *testing.B) {
	pages := keyHashPages()
	for _, key := range []struct {
		name string
		col  int
	}{{"bigint", 0}, {"varchar", 1}, {"dict-varchar", 2}} {
		b.Run(key.name, func(b *testing.B) {
			var a block.Arena
			var bk batchKeys
			cols := []int{key.col}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Rewind()
				routed = hashPartitionPage(&a, &bk, pages[i%len(pages)], cols, 2)
			}
			b.ReportMetric(float64(b.N)*1000/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
