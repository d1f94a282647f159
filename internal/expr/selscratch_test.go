package expr

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// selectedBytes is what one selectRows call over p allocates.
func selectedBytes(pp *PageProcessor, p *block.Page) (rows int, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows = len(pp.selectRows(p))
	runtime.ReadMemStats(&after)
	return rows, after.TotalAlloc - before.TotalAlloc
}

// TestSelectionScratchSizedBySurvivors: a selection pays for the rows that
// pass, not for the page. The identity vector every chain starts from is one
// read-only vector for the process; the output buffers are grown by the
// kernels' appends and kept.
func TestSelectionScratchSizedBySurvivors(t *testing.T) {
	const n = 4096
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	page := block.NewPage(block.NewLongBlock(ids, nil))
	point := &Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(4)}
	// Two predicates, so the chain alternates between both output buffers.
	all := &And{L: &Compare{Op: CmpGe, L: colRef(0, types.Bigint), R: longConst(0)},
		R: &Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(n)}}
	identityRows(n) // a process pays for the identity vector once

	t.Run("bytes", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector changes what allocates")
		}
		if rows, bytes := selectedBytes(NewPageProcessor(point, nil), page); rows != 4 || bytes >= 1024 {
			t.Errorf("a fresh processor selecting %d of %d rows allocated %d bytes, want 4 rows in < 1024", rows, n, bytes)
		}
		full := NewPageProcessor(all, nil)
		if rows, _ := selectedBytes(full, page); rows != n {
			t.Fatalf("selected %d rows, want all %d", rows, n)
		}
		if rows, bytes := selectedBytes(full, page); rows != n || bytes != 0 {
			t.Errorf("the second full page selected %d rows and allocated %d bytes, want %d and 0", rows, bytes, n)
		}
	})

	t.Run("shared identity", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pp := NewPageProcessor(point, nil)
				for i := 0; i < 200; i++ {
					if got := pp.selectRows(page); len(got) != 4 || got[3] != 3 {
						t.Errorf("selected %v, want rows 0..3", got)
						return
					}
				}
			}()
		}
		wg.Wait()
		a, b := identityRows(n), identityRows(n/2)
		if &a[0] != &b[0] {
			t.Error("two identity prefixes do not share one vector")
		}
		for i, r := range a {
			if r != i {
				t.Fatalf("identity[%d] = %d: a kernel wrote its input", i, r)
			}
		}
	})
}
