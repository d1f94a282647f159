package expr

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/block"
	"repro/internal/types"
)

// selectedBytes is what starting page p and selecting its rows allocates.
func selectedBytes(pp *PageProcessor, p *block.Page) (rows int, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pp.start(p)
	rows = len(pp.selectRows())
	runtime.ReadMemStats(&after)
	return rows, after.TotalAlloc - before.TotalAlloc
}

// TestSelectionScratchSizedBySurvivors: a selection's buffers are leases. The
// identity vector every chain starts from is one read-only vector for the
// process; the output buffers are leased from the processor's arena, with
// room for every row they could receive, so a kernel's append never grows
// them. On a warm pool — the vectors a finished driver released — a point
// selection and a full one allocate nothing from their first page: a point
// read still pays no page-sized buffer of its own.
func TestSelectionScratchSizedBySurvivors(t *testing.T) {
	const n = 4096
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	page := block.NewPage(block.NewLongBlock(ids, nil))
	point := &Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(4)}
	// Two predicates, so the chain leases a buffer between them.
	all := &And{L: &Compare{Op: CmpGe, L: colRef(0, types.Bigint), R: longConst(0)},
		R: &Compare{Op: CmpLt, L: colRef(0, types.Bigint), R: longConst(n)}}
	identityRows(n) // a process pays for the identity vector once

	t.Run("bytes", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector changes what allocates, and drops pooled vectors")
		}
		// Warm the pool as finished drivers do, with a few processors' worth:
		// each pool keeps one vector per thread that only that thread sees.
		// A collection after the warm-up gives its vectors back empties the
		// pool the measurement leases from (one forced there costs the point
		// selection 536 bytes, two 35 184), so none may start until the
		// measurement ends.
		alloctest.HoldCollections(t)
		var warm []*PageProcessor
		for i := 0; i < 4; i++ {
			for _, pred := range []Expr{point, all} {
				pp := NewPageProcessor(pred, nil)
				selectedBytes(pp, page)
				warm = append(warm, pp)
			}
		}
		for _, pp := range warm {
			pp.Scratch().Release()
		}
		for _, c := range []struct {
			name string
			pred Expr
			rows int
		}{{"point", point, 4}, {"full", all, n}} {
			pp := NewPageProcessor(c.pred, nil)
			if rows, bytes := selectedBytes(pp, page); rows != c.rows || bytes != 0 {
				t.Errorf("%s: a fresh processor's first page selected %d of %d rows and allocated %d bytes, want %d rows and 0", c.name, rows, n, bytes, c.rows)
			}
			pp.Scratch().Release()
		}
	})

	t.Run("shared identity", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pp := NewPageProcessor(point, nil)
				defer pp.Scratch().Release()
				for i := 0; i < 200; i++ {
					pp.start(page)
					if got := pp.selectRows(); len(got) != 4 || got[3] != 3 {
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
