package operators

import (
	"container/heap"
	"slices"

	"repro/internal/block"
)

// sortBuffer holds an operator's input pages, reserved as user memory, and
// orders their rows by position: the one sort under Sort and Window.
type sortBuffer struct {
	ctx   *OpContext
	pages []*block.Page
	bytes int64
}

func (b *sortBuffer) add(p *block.Page) error {
	b.ctx.recordIn(p)
	p = p.LoadLazy()
	b.pages = append(b.pages, p)
	b.bytes += p.SizeBytes()
	return b.ctx.Mem.SetBytes(b.bytes)
}

// sorted returns every row's position — row row[i] of page pg[i] — ordered
// by keys; rows that tie keep their arrival order.
func (b *sortBuffer) sorted(keys []sortKey) (pg, row []int32) {
	var pos []int64 // page<<32 | row
	for i, p := range b.pages {
		for r := 0; r < p.RowCount(); r++ {
			pos = append(pos, int64(i)<<32|int64(r))
		}
	}
	slices.SortStableFunc(pos, func(x, y int64) int {
		return compareRows(b.pages[x>>32], int(uint32(x)), b.pages[y>>32], int(uint32(y)), keys)
	})
	pg, row = make([]int32, len(pos)), make([]int32, len(pos))
	for i, x := range pos {
		pg[i], row[i] = int32(x>>32), int32(uint32(x))
	}
	return pg, row
}

// SortOperator fully sorts its input. It accumulates pages, reserves user
// memory for them, and emits sorted output after Finish.
type SortOperator struct {
	buf      sortBuffer
	keys     []sortKey
	finished bool
	out      []*block.Page
	outPos   int
	pageSize int
}

// NewSort builds a sort operator over the given key columns.
func NewSort(ctx *OpContext, keyCols []int, desc []bool, pageSize int) *SortOperator {
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &SortOperator{buf: sortBuffer{ctx: ctx}, keys: sortKeys(keyCols, desc), pageSize: pageSize}
}

// sortKeys pairs key columns with their directions.
func sortKeys(cols []int, desc []bool) []sortKey {
	keys := make([]sortKey, len(cols))
	for i, c := range cols {
		keys[i] = sortKey{col: c, desc: desc[i]}
	}
	return keys
}

func (o *SortOperator) NeedsInput() bool { return !o.finished }

func (o *SortOperator) AddInput(p *block.Page) error { return o.buf.add(p) }

func (o *SortOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	pg, row := o.buf.sorted(o.keys)
	o.out = gatherSorted(o.buf.pages, pg, row, o.pageSize)
	o.buf.pages = nil
}

// gatherSorted gathers the rows of pages at the sorted positions into pages
// of at most pageSize rows.
func gatherSorted(pages []*block.Page, pg, row []int32, pageSize int) []*block.Page {
	var out []*block.Page
	chans := pageChans(pages)
	for start := 0; start < len(pg); start += pageSize {
		end := min(start+pageSize, len(pg))
		out = append(out, gatherPage(chans, pg[start:end], row[start:end]))
	}
	return out
}

func (o *SortOperator) Output() (*block.Page, error) {
	if o.outPos >= len(o.out) {
		return nil, nil
	}
	p := o.out[o.outPos]
	o.outPos++
	o.buf.ctx.recordOut(p)
	return p, nil
}

func (o *SortOperator) IsFinished() bool { return o.finished && o.outPos >= len(o.out) }
func (o *SortOperator) IsBlocked() bool  { return false }
func (o *SortOperator) Close() error {
	o.buf.pages, o.out = nil, nil
	o.buf.ctx.Mem.Close()
	return nil
}

// TopNOperator keeps the top N rows under the ordering using a bounded heap —
// the fused Sort+Limit the optimizer produces for ORDER BY ... LIMIT.
type TopNOperator struct {
	ctx      *OpContext
	keys     []sortKey
	n        int
	h        *topHeap
	seq      int64 // arrival order for heap stability, per operator
	finished bool
	emitted  bool
}

// NewTopN builds a top-N operator.
func NewTopN(ctx *OpContext, keyCols []int, desc []bool, n int64) *TopNOperator {
	keys := sortKeys(keyCols, desc)
	return &TopNOperator{ctx: ctx, keys: keys, n: int(n), h: &topHeap{keys: keys}}
}

type heapRow struct {
	page *block.Page
	row  int
	seq  int64 // arrival order for stability
}

type topHeap struct {
	rows []heapRow
	keys []sortKey
}

func (h *topHeap) Len() int { return len(h.rows) }
func (h *topHeap) Less(i, j int) bool {
	// Max-heap on sort order: the root is the worst row, evicted first.
	c := compareRows(h.rows[i].page, h.rows[i].row, h.rows[j].page, h.rows[j].row, h.keys)
	if c != 0 {
		return c > 0
	}
	return h.rows[i].seq > h.rows[j].seq
}
func (h *topHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topHeap) Push(x interface{}) { h.rows = append(h.rows, x.(heapRow)) }
func (h *topHeap) Pop() interface{} {
	last := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return last
}

func (o *TopNOperator) NeedsInput() bool { return !o.finished }

func (o *TopNOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	p = p.LoadLazy()
	for r := 0; r < p.RowCount(); r++ {
		o.seq++
		if o.h.Len() < o.n {
			heap.Push(o.h, heapRow{page: p, row: r, seq: o.seq})
			continue
		}
		if o.n == 0 {
			break
		}
		worst := o.h.rows[0]
		if compareRows(p, r, worst.page, worst.row, o.keys) < 0 {
			o.h.rows[0] = heapRow{page: p, row: r, seq: o.seq}
			heap.Fix(o.h, 0)
		}
	}
	var bytes int64
	seen := map[*block.Page]bool{}
	for _, hr := range o.h.rows {
		if !seen[hr.page] {
			seen[hr.page] = true
			bytes += hr.page.SizeBytes()
		}
	}
	return o.ctx.Mem.SetBytes(bytes)
}

func (o *TopNOperator) Finish() { o.finished = true }

func (o *TopNOperator) Output() (*block.Page, error) {
	if !o.finished || o.emitted {
		return nil, nil
	}
	o.emitted = true
	rows := make([]heapRow, o.h.Len())
	for i := len(rows) - 1; i >= 0; i-- {
		rows[i] = heap.Pop(o.h).(heapRow)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	var pages []*block.Page
	pageIdx := map[*block.Page]int32{}
	pg, row := make([]int32, len(rows)), make([]int32, len(rows))
	for i, hr := range rows {
		idx, ok := pageIdx[hr.page]
		if !ok {
			idx = int32(len(pages))
			pageIdx[hr.page] = idx
			pages = append(pages, hr.page)
		}
		pg[i], row[i] = idx, int32(hr.row)
	}
	out := gatherPage(pageChans(pages), pg, row)
	o.ctx.recordOut(out)
	return out, nil
}

func (o *TopNOperator) IsFinished() bool { return o.finished && o.emitted }
func (o *TopNOperator) IsBlocked() bool  { return false }
func (o *TopNOperator) Close() error {
	o.h = nil
	o.ctx.Mem.Close()
	return nil
}
