package operators

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// fuzzJoinPages turns fuzz bytes into (key BIGINT, payload BIGINT) pages: a
// byte is a row whose key is NULL (one byte in eleven) or one of thirteen
// values, so keys repeat; the payload numbers the side's rows in arrival
// order. Page sizes cycle through sizes, 0 to 8 rows a page, with at most
// three empty pages.
func fuzzJoinPages(data, sizes []byte, base int64) []*block.Page {
	if len(sizes) == 0 {
		sizes = []byte{8}
	}
	var pages []*block.Page
	empty := 0
	for at, i := 0, 0; at < len(data); i++ {
		n := int(sizes[i%len(sizes)] % 9)
		if n == 0 && empty < 3 {
			empty++
			pages = append(pages, twoColPage(nil, nil))
			continue
		}
		n = min(max(n, 1), len(data)-at)
		keys, nulls, payload := make([]int64, n), make([]bool, n), make([]int64, n)
		for r, b := range data[at : at+n] {
			keys[r], nulls[r], payload[r] = int64(b%13), b%11 == 0, base+int64(at+r)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(keys, nulls), block.NewLongBlock(payload, nil)))
		at += n
	}
	return pages
}

// FuzzJoinIndex holds the position table against the per-row reference:
// random BIGINT keys with duplicates and NULLs, split into random page sizes
// (empty pages among them), built and probed under every join type, return
// refJoinRows' rows, and every probe row's matches come out in build arrival
// order.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 0, 14, 27}, []byte{1, 3, 5, 0, 22, 14}, []byte{2, 0, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, []byte{7, 20, 8}, []byte{1})
	f.Add([]byte{}, []byte{4, 5}, []byte{0})
	f.Fuzz(func(t *testing.T, build, probe, sizes []byte) {
		if len(build) > 512 || len(probe) > 512 {
			t.Skip("sides past 512 rows add time, not shapes")
		}
		buildPages, probePages := fuzzJoinPages(build, sizes, 0), fuzzJoinPages(probe, sizes[min(1, len(sizes)):], 1000)
		ts := []types.Type{types.Bigint, types.Bigint}
		for _, tc := range allJoinTypes {
			bridge := NewJoinBridge()
			bridge.AddBuilder()
			hb := NewHashBuild(NopContext(), bridge, []int{0}, ts[:1])
			for _, p := range buildPages {
				if err := hb.AddInput(p); err != nil {
					t.Fatal(err)
				}
			}
			hb.Finish()
			bridge.NoMoreBuilders()
			bridge.AddProbe()
			bridge.NoMoreProbes()
			op := NewLookupJoin(NopContext(), bridge, tc.jt, []int{0}, nil, ts, ts, 5)
			rows := drainRows(t, op, probePages...)
			got := map[string]int{}
			for _, row := range rows {
				got[rowText(row)]++
			}
			name := fmt.Sprintf("%s, %d build pages, %d probe pages", tc.name, len(buildPages), len(probePages))
			assertSameCounts(t, name, got, refJoin(t, tc.jt, buildPages, probePages, []int{0}, []int{0}, nil, ts, ts))
			if tc.jt != plan.SemiJoin && tc.jt != plan.AntiJoin {
				arrivalOrderPairs(t, name, rows, 1, 3)
			}
		}
	})
}
