package operators

import (
	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// WindowOperator evaluates window functions. It sorts its input by the
// partition keys and then the order keys, on the sort the Sort operator uses,
// and makes one pass over the sorted rows, where a partition and a peer group
// (rows equal under the order keys) are each a contiguous range. Ranking
// functions write int64 vectors. An aggregate folds its frames into the hash
// aggregation's state (aggVec), through its kernels and with its arithmetic,
// and its column is that state's result: a frame is the whole partition
// without ORDER BY, and with one the default RANGE UNBOUNDED
// PRECEDING..CURRENT ROW, each peer group starting from its predecessor's
// state. The output is the input rows in partition/order sequence, gathered
// by the typed row gather, then one column per window function (the engine
// adds an explicit Sort above if the query orders differently).
type WindowOperator struct {
	buf      sortBuffer
	keys     []sortKey // the partition keys, then the order keys
	nPart    int       // how many of keys partition
	funcs    []plan.WindowExpr
	argEvals []*expr.Evaluator
	params   []types.Value // what a Param of an argument reads (SetParams)

	finished bool
	out      []*block.Page
	outPos   int
	prepared bool
	pageSize int
}

// NewWindow builds a window operator.
func NewWindow(ctx *OpContext, partCols []int, orderCols []int, desc []bool, funcs []plan.WindowExpr, pageSize int) *WindowOperator {
	if pageSize <= 0 {
		pageSize = 4096
	}
	keys := sortKeys(partCols, make([]bool, len(partCols)))
	o := &WindowOperator{buf: sortBuffer{ctx: ctx}, keys: append(keys, sortKeys(orderCols, desc)...), nPart: len(partCols),
		funcs: funcs, pageSize: pageSize}
	for _, f := range funcs {
		var ev *expr.Evaluator
		if f.Arg != nil {
			ev = expr.Compile(f.Arg)
		}
		o.argEvals = append(o.argEvals, ev)
	}
	return o
}

// SetParams hands the operator, before its first page, the parameters its
// functions' arguments read.
func (o *WindowOperator) SetParams(params []types.Value) { o.params = params }

func (o *WindowOperator) NeedsInput() bool { return !o.finished }

func (o *WindowOperator) AddInput(p *block.Page) error { return o.buf.add(p) }

func (o *WindowOperator) Finish() { o.finished = true }

// frames is the pass over the sorted rows: frame[i] numbers row i's frame,
// starts holds each frame's first row, and cont marks the frames that
// continue their predecessor's state — a peer group after its partition's
// first. ranks holds the ranking functions' columns.
type frames struct {
	frame  []int32
	starts []int
	cont   []bool
	ranks  [][]int64
}

func (o *WindowOperator) walk(pg, row []int32) frames {
	pages, n := o.buf.pages, len(pg)
	part, order := o.keys[:o.nPart], o.keys[o.nPart:]
	differ := func(i int, keys []sortKey) bool {
		return compareRows(pages[pg[i-1]], int(row[i-1]), pages[pg[i]], int(row[i]), keys) != 0
	}
	w := frames{frame: make([]int32, n), ranks: make([][]int64, len(o.funcs))}
	for fi, f := range o.funcs {
		switch f.Func {
		case plan.WinRowNumber, plan.WinRank, plan.WinDenseRank:
			w.ranks[fi] = make([]int64, n)
		}
	}
	var partStart, peerStart, dense int
	for i := range n {
		newPart := i == 0 || differ(i, part)
		newPeer := newPart || differ(i, order)
		if newPart {
			partStart, dense = i, 0
		}
		if newPeer {
			peerStart, dense = i, dense+1
		}
		if newPart || newPeer && len(order) > 0 {
			w.starts, w.cont = append(w.starts, i), append(w.cont, !newPart)
		}
		w.frame[i] = int32(len(w.starts) - 1)
		for fi, f := range o.funcs {
			switch f.Func {
			case plan.WinRowNumber:
				w.ranks[fi][i] = int64(i - partStart + 1)
			case plan.WinRank:
				w.ranks[fi][i] = int64(peerStart - partStart + 1)
			case plan.WinDenseRank:
				w.ranks[fi][i] = int64(dense)
			}
		}
	}
	return w
}

func (o *WindowOperator) prepare() error {
	if o.prepared {
		return nil
	}
	o.prepared = true
	pg, row := o.buf.sorted(o.keys)
	out := gatherSorted(o.buf.pages, pg, row, o.pageSize)
	w := o.walk(pg, row)
	o.buf.pages = nil

	// One aggregation state an aggregate, a group a frame, leased through
	// the operator's ledger until the results are out.
	mem := o.buf.ctx.Mem
	accs := make([]aggVec, len(o.funcs))
	defer func() {
		for i := range accs {
			accs[i].release()
		}
		_ = mem.SetBytes(o.buf.bytes) // a lower reservation releases and cannot fail
	}()
	for fi, f := range o.funcs {
		if w.ranks[fi] == nil {
			spec := AggSpec{Func: plan.AggFunc(f.Func), Out: f.Out}
			if f.Arg == nil {
				spec.Func = plan.AggCountAll
			}
			accs[fi] = aggVec{spec: spec, l: mem, floatSum: spec.Func == plan.AggAvg || spec.Out == types.Double, mm: valueVec{t: spec.Out, l: mem}}
			accs[fi].grow(len(w.starts))
		}
	}
	if err := mem.SetBytes(o.buf.bytes + mem.Leased()); err != nil {
		return err
	}
	for fi := range o.funcs {
		if w.ranks[fi] == nil {
			if err := fold(&accs[fi], o.argEvals[fi], o.params, out, w); err != nil {
				return err
			}
		}
	}
	at := 0
	for _, p := range out {
		frame := w.frame[at : at+p.RowCount()]
		for fi := range o.funcs {
			if r := w.ranks[fi]; r != nil {
				p.Cols = append(p.Cols, &block.LongBlock{T: types.Bigint, Vals: r[at : at+p.RowCount()]})
			} else {
				p.Cols = append(p.Cols, accs[fi].resultBlock(nil, frame))
			}
		}
		at += p.RowCount()
	}
	o.out = out
	return nil
}

// fold runs aggregate a over its frames, page by page of the sorted rows
// out: each frame's rows on a page are one run of its argument (ev; nil for
// COUNT(*)), and a frame that continues its predecessor starts from its
// state.
func fold(a *aggVec, ev *expr.Evaluator, params []types.Value, out []*block.Page, w frames) error {
	at := 0
	for _, p := range out {
		var arg block.Block
		if ev != nil {
			b, err := ev.EvalPage(p, params)
			if err != nil {
				return err
			}
			arg = loadCol(b)
		}
		end := at + p.RowCount()
		for s := at; s < end; {
			f := int(w.frame[s])
			e := end
			if f+1 < len(w.starts) {
				e = min(e, w.starts[f+1])
			}
			if s == w.starts[f] && w.cont[f] {
				a.carry(f-1, f)
			}
			if arg == nil {
				a.count[f] += int64(e - s)
			} else {
				a.foldRun(f, block.Slice(arg, s-at, e-at))
			}
			s = e
		}
		at = end
	}
	return nil
}

func (o *WindowOperator) Output() (*block.Page, error) {
	if !o.finished {
		return nil, nil
	}
	if err := o.prepare(); err != nil {
		return nil, err
	}
	if o.outPos >= len(o.out) {
		return nil, nil
	}
	p := o.out[o.outPos]
	o.outPos++
	o.buf.ctx.recordOut(p)
	return p, nil
}

func (o *WindowOperator) IsFinished() bool { return o.finished && o.prepared && o.outPos >= len(o.out) }
func (o *WindowOperator) IsBlocked() bool  { return false }
func (o *WindowOperator) Close() error {
	o.buf.pages, o.out = nil, nil
	o.buf.ctx.Mem.Close()
	return nil
}
