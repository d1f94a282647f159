package operators

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// ValuesOperator is a source producing a fixed literal relation.
type ValuesOperator struct {
	pages []*block.Page
	pos   int
}

// NewValuesOperator builds a source over literal rows.
func NewValuesOperator(rows [][]types.Value, colTypes []types.Type) *ValuesOperator {
	if len(rows) == 0 {
		return &ValuesOperator{}
	}
	if len(colTypes) == 0 {
		// Zero-column relation (e.g. a FROM-less SELECT's single empty
		// row): the page carries only a row count.
		return &ValuesOperator{pages: []*block.Page{block.NewEmptyPage(len(rows))}}
	}
	b := block.NewPageBuilder(colTypes)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return &ValuesOperator{pages: []*block.Page{b.Build()}}
}

func (o *ValuesOperator) NeedsInput() bool             { return false }
func (o *ValuesOperator) AddInput(p *block.Page) error { return fmt.Errorf("values: unexpected input") }
func (o *ValuesOperator) Finish()                      {}
func (o *ValuesOperator) IsFinished() bool             { return o.pos >= len(o.pages) }
func (o *ValuesOperator) IsBlocked() bool              { return false }
func (o *ValuesOperator) Close() error                 { return nil }
func (o *ValuesOperator) Output() (*block.Page, error) {
	if o.pos >= len(o.pages) {
		return nil, nil
	}
	p := o.pages[o.pos]
	o.pos++
	return p, nil
}

// FilterProjectOperator applies a page processor (filter + projections).
type FilterProjectOperator struct {
	ctx      *OpContext
	proc     *expr.PageProcessor
	consumer Operator // who takes the output, when it is lent (LendOutput)
	scan     *OpStats // the scan whose dynamic filters the processor applies, if any
	pending  *block.Page
	finished bool
	done     bool
	flushed  expr.ProcessorStats // kernel counters already flushed to OpStats
}

// NewFilterProject builds the fused filter/project operator.
func NewFilterProject(ctx *OpContext, proc *expr.PageProcessor) *FilterProjectOperator {
	return &FilterProjectOperator{ctx: ctx, proc: proc}
}

// Processor exposes the underlying page processor (for experiment stats).
func (o *FilterProjectOperator) Processor() *expr.PageProcessor { return o.proc }

// SetDynamicFilters makes the operator — the one placed directly on a scan
// that subscribes to dynamic join filters — apply them ahead of its own filter
// (expr.PageProcessor.SetDynamicFilters). The rows they drop are counted on
// scan, the subscribed scan's stats: it is the scan's filter, whoever runs it.
func (o *FilterProjectOperator) SetDynamicFilters(sels func() []expr.SelVector, scan *OpStats) {
	o.proc.SetDynamicFilters(sels)
	o.scan = scan
}

// LendOutput tells the operator, once and before its first page, that
// consumer — the operator it feeds — releases its input (ReleasesInput), so
// the processor may write its output into vectors it owns and reuses
// (expr.PageProcessor.BorrowOutput).
func (o *FilterProjectOperator) LendOutput(consumer Operator) {
	o.proc.BorrowOutput()
	o.consumer = consumer
}

// ReleasesInput reports whether the operator is done with an input page, and
// with every array under it, by the next time NeedsInput is true: exactly
// when its own output is lent. An unfiltered pass-through column is the input
// block, so the output page may carry a column the operator in front lent;
// the consumer of a lent page releases it in turn, and NeedsInput waits for
// that. A processor whose output is owned hands it to a consumer that may
// keep it forever, and so must not be lent anything.
func (o *FilterProjectOperator) ReleasesInput() bool { return o.consumer != nil }

// NeedsInput holds a lending processor back until its consumer wants input
// again: AddInput overwrites the lent vectors, and a consumer that emits one
// input page over several outputs (a join) reads them until then.
func (o *FilterProjectOperator) NeedsInput() bool {
	return !o.finished && o.pending == nil && (o.consumer == nil || o.consumer.NeedsInput())
}

func (o *FilterProjectOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	out, err := o.proc.Process(p)
	o.flushKernelStats()
	if err != nil {
		return err
	}
	if out != nil && out.RowCount() > 0 {
		o.pending = out
	}
	return nil
}

func (o *FilterProjectOperator) Output() (*block.Page, error) {
	p := o.pending
	o.pending = nil
	if p == nil && o.finished {
		o.done = true
	}
	o.ctx.recordOut(p)
	return p, nil
}

// flushKernelStats forwards vectorized-projection counter deltas from the
// (single-threaded) page processor into the shared atomic OpStats.
func (o *FilterProjectOperator) flushKernelStats() {
	if o.ctx == nil || o.ctx.Stats == nil {
		return
	}
	st := o.proc.Stats
	o.scan.RecordDynFiltered(st.DynFiltered - o.flushed.DynFiltered)
	o.ctx.Stats.RecordProjKernels(
		st.VecProjEvals-o.flushed.VecProjEvals,
		st.CSEHits-o.flushed.CSEHits,
		st.DictEvictions-o.flushed.DictEvictions,
	)
	o.ctx.Stats.RecordDictRows(st.DictRows - o.flushed.DictRows)
	o.flushed = st
}

func (o *FilterProjectOperator) Finish()          { o.finished = true }
func (o *FilterProjectOperator) IsFinished() bool { return o.done && o.pending == nil }
func (o *FilterProjectOperator) IsBlocked() bool  { return false }
func (o *FilterProjectOperator) Close() error     { return nil }

// LimitOperator truncates its input to n rows after skipping offset rows.
type LimitOperator struct {
	ctx      *OpContext
	remain   int64
	offset   int64
	pending  *block.Page
	finished bool
}

// NewLimit builds a limit operator.
func NewLimit(ctx *OpContext, n, offset int64) *LimitOperator {
	return &LimitOperator{ctx: ctx, remain: n, offset: offset}
}

func (o *LimitOperator) NeedsInput() bool {
	return !o.finished && o.remain > 0 && o.pending == nil
}

func (o *LimitOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	rows := int64(p.RowCount())
	if o.offset > 0 {
		if rows <= o.offset {
			o.offset -= rows
			return nil
		}
		p = p.SlicePage(int(o.offset), int(rows))
		o.offset = 0
		rows = int64(p.RowCount())
	}
	if rows > o.remain {
		p = p.SlicePage(0, int(o.remain))
	}
	o.remain -= int64(p.RowCount())
	o.pending = p
	return nil
}

func (o *LimitOperator) Output() (*block.Page, error) {
	p := o.pending
	o.pending = nil
	o.ctx.recordOut(p)
	return p, nil
}

func (o *LimitOperator) Finish() { o.finished = true }
func (o *LimitOperator) IsFinished() bool {
	return o.pending == nil && (o.finished || o.remain <= 0)
}
func (o *LimitOperator) IsBlocked() bool { return false }
func (o *LimitOperator) Close() error    { return nil }

// DistinctOperator removes duplicate rows using a hash set of row keys: an
// open-addressing keyTable fed by the batch hashing kernels.
type DistinctOperator struct {
	ctx      *OpContext
	table    *keyTable
	batch    batchKeys
	keyCols  []int
	pending  *block.Page
	finished bool
}

// NewDistinct builds a distinct operator over all columns. ts are the
// planner column types: the key-table layout (fixed cells vs byte arena) is
// decided here, up front, because input block types can under-report (an
// all-NULL literal column arrives as an untyped block).
func NewDistinct(ctx *OpContext, ts []types.Type) *DistinctOperator {
	cols := make([]int, len(ts))
	for i := range cols {
		cols[i] = i
	}
	return &DistinctOperator{ctx: ctx, keyCols: cols, table: newKeyTable(fixedWidthKeys(ts), len(cols), 0)}
}

func (o *DistinctOperator) NeedsInput() bool { return !o.finished && o.pending == nil }

func (o *DistinctOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	var keep []int
	o.batch.reset(p, o.keyCols, o.table.fixed)
	for r := 0; r < p.RowCount(); r++ {
		var fresh bool
		if o.table.fixed {
			cells, tags := o.batch.row(r)
			_, fresh = o.table.getOrInsertFixed(o.batch.hashes[r], cells, tags)
		} else {
			o.batch.buf = encodeRowKey(o.batch.buf[:0], p, r, o.keyCols)
			_, fresh = o.table.getOrInsertBytes(o.batch.hashes[r], o.batch.buf)
		}
		if fresh {
			keep = append(keep, r)
		}
	}
	if err := o.ctx.Mem.SetBytes(o.table.memBytes()); err != nil {
		return err
	}
	if len(keep) > 0 {
		o.pending = p.FilterPositions(keep)
	}
	return nil
}

func (o *DistinctOperator) Output() (*block.Page, error) {
	p := o.pending
	o.pending = nil
	o.ctx.recordOut(p)
	return p, nil
}

func (o *DistinctOperator) Finish()          { o.finished = true }
func (o *DistinctOperator) IsFinished() bool { return o.finished && o.pending == nil }
func (o *DistinctOperator) IsBlocked() bool  { return false }
func (o *DistinctOperator) Close() error {
	o.table = nil
	o.ctx.Mem.Close()
	return nil
}

// EnforceSingleRowOperator implements scalar subquery semantics: exactly one
// input row passes through; zero rows produce one all-NULL row; more than
// one row fails the query.
type EnforceSingleRowOperator struct {
	ctx      *OpContext
	schema   []types.Type
	row      *block.Page
	count    int64
	finished bool
	emitted  bool
}

// NewEnforceSingleRow builds the operator for the given output types.
func NewEnforceSingleRow(ctx *OpContext, schema []types.Type) *EnforceSingleRowOperator {
	return &EnforceSingleRowOperator{ctx: ctx, schema: schema}
}

func (o *EnforceSingleRowOperator) NeedsInput() bool { return !o.finished }

func (o *EnforceSingleRowOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.count += int64(p.RowCount())
	if o.count > 1 {
		return fmt.Errorf("scalar subquery returned more than one row")
	}
	if p.RowCount() == 1 {
		o.row = p
	}
	return nil
}

func (o *EnforceSingleRowOperator) Output() (*block.Page, error) {
	if !o.finished || o.emitted {
		return nil, nil
	}
	o.emitted = true
	if o.row != nil {
		o.ctx.recordOut(o.row)
		return o.row, nil
	}
	// No rows: a single all-NULL row.
	b := block.NewPageBuilder(o.schema)
	nulls := make([]types.Value, len(o.schema))
	for i, t := range o.schema {
		nulls[i] = types.NullValue(t)
	}
	b.AppendRow(nulls)
	p := b.Build()
	o.ctx.recordOut(p)
	return p, nil
}

func (o *EnforceSingleRowOperator) Finish()          { o.finished = true }
func (o *EnforceSingleRowOperator) IsFinished() bool { return o.finished && o.emitted }
func (o *EnforceSingleRowOperator) IsBlocked() bool  { return false }
func (o *EnforceSingleRowOperator) Close() error     { return nil }
