package operators

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/connector"
)

// TableScanOperator is a source operator reading one split through the
// Connector Data Source API. Each driver of a leaf pipeline owns one split
// (paper §IV-D3).
type TableScanOperator struct {
	ctx    *OpContext
	source connector.PageSource
	done   bool
}

// NewTableScan wraps a connector page source.
func NewTableScan(ctx *OpContext, source connector.PageSource) *TableScanOperator {
	return &TableScanOperator{ctx: ctx, source: source}
}

func (o *TableScanOperator) NeedsInput() bool { return false }
func (o *TableScanOperator) AddInput(p *block.Page) error {
	return fmt.Errorf("scan: unexpected input")
}
func (o *TableScanOperator) Finish()          { o.done = true }
func (o *TableScanOperator) IsFinished() bool { return o.done }
func (o *TableScanOperator) IsBlocked() bool  { return false }

func (o *TableScanOperator) Output() (*block.Page, error) {
	if o.done {
		return nil, nil
	}
	p, err := o.source.NextPage()
	if err != nil {
		return nil, err
	}
	if p == nil {
		o.done = true
		return nil, nil
	}
	o.ctx.recordScanOut(p)
	return p, nil
}

func (o *TableScanOperator) Close() error {
	o.ctx.Stats.RecordSourceClosed(o.source)
	o.source.Close()
	return nil
}

// MorselSource is one driver's view of a shared scan work queue: the morsel
// execution mode replaces per-driver split ownership with fixed-size batches
// pulled (and stolen) from a per-pipeline queue. The exec package implements
// it; this operator only maps the pull protocol onto the driver loop.
type MorselSource interface {
	// NextMorsel returns the next batch, or nil when none is available
	// right now (starved) or ever again (drained).
	NextMorsel() (*block.Page, error)
	// Drained reports that the queue will never produce another morsel.
	Drained() bool
	// Starved reports that no work is available now but more may appear.
	Starved() bool
}

// MorselScanOperator is the source operator of a morsel-driven leaf pipeline.
// Unlike TableScanOperator it owns no split: every Output pulls one morsel
// from the shared queue, and an empty queue that is not yet drained parks the
// driver as blocked until the queue signals new work.
type MorselScanOperator struct {
	ctx  *OpContext
	src  MorselSource
	done bool
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
	o.ctx.recordScanOut(p)
	return p, nil
}

// Close releases nothing: the shared queue owns the page sources.
func (o *MorselScanOperator) Close() error { return nil }

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
