package operators

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/shuffle"
)

// PartitionedOutputOperator is the sink of a task's root pipeline: it routes
// pages into the task's partitioned output buffer according to the
// fragment's output partitioning. A full buffer blocks the operator, which
// stalls the driver and yields the thread (backpressure, §IV-E2).
type PartitionedOutputOperator struct {
	ctx      *OpContext
	buf      *shuffle.OutputBuffer
	hashCols []int // empty = single/round-robin/broadcast
	mode     OutputMode
	rr       int
	scratch  block.Arena // a page's partition vectors (hash mode)
	batch    batchKeys
	finished bool
	// tail is set once the pipeline's source has finished (Tail); from
	// then on held keeps each partition's newest page, queued when the next
	// one comes and staged by Finish, so that a task's last page reaches the
	// fetch together with the end of its stream (one request, not two).
	tail bool
	held []*block.Page
}

// OutputMode selects how pages are routed across partitions.
type OutputMode int

// Output modes.
const (
	OutputSingle OutputMode = iota
	OutputHash
	OutputRoundRobin
	OutputBroadcast
)

// NewPartitionedOutput creates the sink.
func NewPartitionedOutput(ctx *OpContext, buf *shuffle.OutputBuffer, mode OutputMode, hashCols []int) *PartitionedOutputOperator {
	return &PartitionedOutputOperator{ctx: ctx, buf: buf, hashCols: hashCols, mode: mode}
}

func (o *PartitionedOutputOperator) NeedsInput() bool {
	return !o.finished && o.buf.CanAdd()
}

func (o *PartitionedOutputOperator) IsBlocked() bool {
	return !o.finished && !o.buf.CanAdd()
}

func (o *PartitionedOutputOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	// Lazy columns must not cross the shuffle: their loaders reference
	// reader state owned by this task. Compressed encodings survive.
	p = p.LoadLazy()
	n := o.buf.Partitions()
	switch {
	case n == 1 || o.mode == OutputSingle:
		o.add(0, p)
	case o.mode == OutputBroadcast:
		for i := 0; i < n; i++ {
			o.add(i, p)
		}
	case o.mode == OutputRoundRobin:
		o.add(o.rr%n, p)
		o.rr++
	default: // OutputHash
		// Split the page by target partition, batch-hashing the key columns.
		o.scratch.Rewind()
		rows, offs := partitionRows(&o.scratch, hashPartitionPage(&o.scratch, &o.batch, p, o.hashCols, n), n)
		for t := 0; t < n; t++ {
			if rows := rows[offs[t]:offs[t+1]]; len(rows) > 0 {
				o.add(t, p.FilterPositions(rows))
			}
		}
	}
	return nil
}

// Tail tells the sink that its pipeline's source has finished: every page
// still to come is drained from state the operators between hold, with no
// call into a connector or an exchange in between that could block, so
// holding the newest page until the next one (or Finish) delays no reader.
func (o *PartitionedOutputOperator) Tail() { o.tail = true }

// add queues p on partition i; in the tail it queues the page held for the
// partition instead and holds p in its place.
func (o *PartitionedOutputOperator) add(i int, p *block.Page) {
	if !o.tail {
		o.buf.Add(i, p)
		return
	}
	if o.held == nil {
		o.held = make([]*block.Page, o.buf.Partitions())
	}
	if prev := o.held[i]; prev != nil {
		o.buf.Add(i, prev)
	}
	o.held[i] = p
}

// ReleasesInput declares to the pipeline compiler that the sink is done with
// a page, and with every array under it, when AddInput returns — exactly when
// it copies: hash mode over more than one partition, where each row is copied
// into its partition's page (FilterPositions; a dictionary keeps its
// dictionary and a run its value, which nobody lends). Single, broadcast and
// round-robin modes, and hash mode over one partition, queue the page itself.
func (o *PartitionedOutputOperator) ReleasesInput() bool {
	return o.mode == OutputHash && o.buf.Partitions() > 1
}

func (o *PartitionedOutputOperator) Output() (*block.Page, error) { return nil, nil }

// Scratch implements ScratchHolder.
func (o *PartitionedOutputOperator) Scratch() *block.Arena { return &o.scratch }

// Finish marks this driver's sink complete and stages its held pages. The
// buffer's no-more-pages signal, which publishes them, is issued by the task
// once ALL its drivers are done, since several drivers of one task share the
// output buffer.
func (o *PartitionedOutputOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	for i, p := range o.held {
		if p != nil {
			o.buf.AddLast(i, p)
		}
	}
	o.held = nil
}

func (o *PartitionedOutputOperator) IsFinished() bool { return o.finished }
func (o *PartitionedOutputOperator) Close() error     { return nil }

// ExchangeSourceOperator is the source of an intermediate-stage pipeline: it
// reads pages pulled by an exchange client from upstream tasks.
type ExchangeSourceOperator struct {
	ctx    *OpContext
	client *shuffle.ExchangeClient
	stash  *block.Page // page consumed while probing IsBlocked
	done   bool
}

// NewExchangeSource wraps an exchange client (which must be Started).
func NewExchangeSource(ctx *OpContext, client *shuffle.ExchangeClient) *ExchangeSourceOperator {
	return &ExchangeSourceOperator{ctx: ctx, client: client}
}

func (o *ExchangeSourceOperator) NeedsInput() bool { return false }
func (o *ExchangeSourceOperator) AddInput(p *block.Page) error {
	return fmt.Errorf("exchange source: unexpected input")
}

func (o *ExchangeSourceOperator) Output() (*block.Page, error) {
	if o.stash != nil {
		p := o.stash
		o.stash = nil
		o.ctx.recordOut(p)
		return p, nil
	}
	if o.done {
		return nil, nil
	}
	p, ok, done, err := o.client.Poll()
	if err != nil {
		return nil, err
	}
	if done {
		o.done = true
	}
	if !ok {
		return nil, nil
	}
	o.ctx.recordOut(p)
	return p, nil
}

func (o *ExchangeSourceOperator) IsBlocked() bool {
	if o.done || o.stash != nil {
		return false
	}
	// Poll is cheap; a page consumed while probing is stashed for Output.
	p, ok, done, err := o.client.Poll()
	if err != nil || done {
		return false
	}
	if ok {
		o.stash = p
		return false
	}
	return true
}

func (o *ExchangeSourceOperator) Finish()          { o.done = true }
func (o *ExchangeSourceOperator) IsFinished() bool { return o.done }
func (o *ExchangeSourceOperator) Close() error {
	o.client.Close()
	return nil
}
