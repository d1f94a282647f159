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
	pending  *block.Page
	finished bool
	done     bool
	flushed  expr.ProcessorStats // kernel counters already flushed to OpStats
}

// NewFilterProject builds the fused filter/project operator.
func NewFilterProject(ctx *OpContext, proc *expr.PageProcessor) *FilterProjectOperator {
	return &FilterProjectOperator{ctx: ctx, proc: proc}
}

// Processor exposes the underlying page processor (for experiment stats, and
// for the task to set a scan's dynamic filters on).
func (o *FilterProjectOperator) Processor() *expr.PageProcessor { return o.proc }

// LendOutput tells the operator, once and before its first page, that
// consumer — the operator it feeds — releases its input (ReleasesInput), so
// the processor may write its output into vectors it owns and reuses
// (expr.PageProcessor.BorrowOutput). A hash aggregation reads a page through
// the filter's selection besides (expr.PageProcessor.LendSelection); every
// other consumer gets its rows gathered.
func (o *FilterProjectOperator) LendOutput(consumer Operator) {
	o.proc.BorrowOutput()
	if _, ok := consumer.(*HashAggregationOperator); ok {
		o.proc.LendSelection()
	}
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
	o.ctx.Stats.RecordProjKernels(
		st.VecProjEvals-o.flushed.VecProjEvals,
		st.CSEHits-o.flushed.CSEHits,
		st.DictEvictions-o.flushed.DictEvictions,
	)
	o.ctx.Stats.RecordDictRows(st.DictRows - o.flushed.DictRows)
	o.flushed = st
}

// Scratch implements ScratchHolder: the processor's arena.
func (o *FilterProjectOperator) Scratch() *block.Arena { return o.proc.Scratch() }

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
