package operators

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/connector"
)

// MorselSource is one driver's view of a shared scan work queue: no driver
// owns a split; fixed-size batches are pulled (and stolen) from a
// per-pipeline queue. The exec package implements it; this operator only maps
// the pull protocol onto the driver loop.
type MorselSource interface {
	// NextMorsel returns the next batch, or nil when none is available
	// right now (starved) or ever again (drained).
	NextMorsel() (*block.Page, error)
	// Drained reports that the queue will never produce another morsel.
	Drained() bool
	// Starved reports that no work is available now but more may appear.
	Starved() bool
}

// MorselScanOperator is the source operator of every leaf scan pipeline. It
// owns no split: every Output pulls one morsel from the scan's shared queue,
// and an empty queue that is not yet drained parks the driver as blocked
// until the queue signals new work.
//
// In front of an operator that releases its input the scan lends its pages
// (LendOutput): the lazy columns of a page the queue hands on whole — a lazy
// lake stripe — decode into vectors leased from the scan's arena, which its
// next Output takes back.
type MorselScanOperator struct {
	ctx  *OpContext
	src  MorselSource
	done bool

	lends   bool
	scratch block.Arena
	leased  *block.Page // the last page handed on with columns leasing from scratch
}

// NewMorselScan wraps one driver's stripe of a shared morsel queue.
func NewMorselScan(ctx *OpContext, src MorselSource) *MorselScanOperator {
	return &MorselScanOperator{ctx: ctx, src: src}
}

func (o *MorselScanOperator) NeedsInput() bool { return false }
func (o *MorselScanOperator) AddInput(p *block.Page) error {
	return fmt.Errorf("morsel scan: unexpected input")
}
func (o *MorselScanOperator) Finish()          { o.done = true }
func (o *MorselScanOperator) IsFinished() bool { return o.done }
func (o *MorselScanOperator) IsBlocked() bool  { return !o.done && o.src.Starved() }

func (o *MorselScanOperator) Output() (*block.Page, error) {
	if o.done {
		return nil, nil
	}
	o.takeBack()
	p, err := o.src.NextMorsel()
	if err != nil {
		return nil, err
	}
	if p == nil {
		if o.src.Drained() {
			o.done = true
		}
		return nil, nil
	}
	if o.lends && p.LeaseLazy(&o.scratch) {
		o.leased = p
	}
	o.ctx.recordScanOut(p)
	return p, nil
}

// LendOutput tells the scan, before its first page, that the operator behind
// it releases its input (DESIGN.md "Who owns a page"): the driver calls
// Output only when that operator needs input, which is when it has let go of
// the last page, so Output may take back what that page leased.
func (o *MorselScanOperator) LendOutput(Operator) { o.lends = true }

// takeBack ends the last page's leases. A column nobody loaded goes back to
// the heap, so that a late load cannot lease what the next page is given.
func (o *MorselScanOperator) takeBack() {
	if o.leased != nil {
		o.leased.LeaseLazy(nil)
		o.leased = nil
		o.scratch.Rewind()
	}
}

// Close takes back the last page's leases; the shared queue owns the page
// sources.
func (o *MorselScanOperator) Close() error {
	o.takeBack()
	return nil
}

// Scratch implements ScratchHolder: the arena lazy columns decode into.
func (o *MorselScanOperator) Scratch() *block.Arena { return &o.scratch }

// TableWriterOperator writes its input through a connector page sink and
// emits a single row count (paper §IV-E3). The adaptive writer-scaling
// experiment measures how many of these run concurrently.
type TableWriterOperator struct {
	ctx      *OpContext
	sink     connector.PageSink
	rows     int64
	finished bool
	emitted  bool
	// WriteDelay simulates per-page remote storage latency for the
	// adaptive-writers experiment (0 in normal operation).
	WriteDelay func()
}

// NewTableWriter wraps a connector sink.
func NewTableWriter(ctx *OpContext, sink connector.PageSink) *TableWriterOperator {
	return &TableWriterOperator{ctx: ctx, sink: sink}
}

func (o *TableWriterOperator) NeedsInput() bool { return !o.finished }

func (o *TableWriterOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	if o.WriteDelay != nil {
		o.WriteDelay()
	}
	if err := o.sink.Append(p); err != nil {
		return err
	}
	o.rows += int64(p.RowCount())
	return nil
}

func (o *TableWriterOperator) Output() (*block.Page, error) {
	if !o.finished || o.emitted {
		return nil, nil
	}
	o.emitted = true
	n, err := o.sink.Finish()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = o.rows
	}
	p := block.NewPage(block.NewLongBlock([]int64{n}, nil))
	o.ctx.recordOut(p)
	return p, nil
}

func (o *TableWriterOperator) Finish()          { o.finished = true }
func (o *TableWriterOperator) IsFinished() bool { return o.finished && o.emitted }
func (o *TableWriterOperator) IsBlocked() bool  { return false }
func (o *TableWriterOperator) Close() error     { return nil }
