package operators

import (
	"fmt"
	"sync"

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
	parts    []int // per-row partition scratch, reused across pages
	rows     []int // partitionRows scratch
	offs     []int
	finished bool
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
	// Materialized-exchange writes are void at the buffer API; a sticky
	// segment-write failure (full disk) must fail the task promptly here.
	if err := o.buf.Err(); err != nil {
		return err
	}
	o.ctx.recordIn(p)
	// Lazy columns must not cross the shuffle: their loaders reference
	// reader state owned by this task. Compressed encodings survive.
	p = p.LoadLazy()
	n := o.buf.Partitions()
	switch {
	case n == 1 || o.mode == OutputSingle:
		o.buf.Add(0, p)
	case o.mode == OutputBroadcast:
		for i := 0; i < n; i++ {
			o.buf.Add(i, p)
		}
	case o.mode == OutputRoundRobin:
		o.buf.Add(o.rr%n, p)
		o.rr++
	default: // OutputHash
		// Split the page by target partition, batch-hashing the key columns.
		o.parts = HashPartitionPage(p, o.hashCols, n, o.parts)
		o.rows, o.offs = partitionRows(o.parts, n, o.rows, o.offs)
		for t := 0; t < n; t++ {
			if rows := o.rows[o.offs[t]:o.offs[t+1]]; len(rows) > 0 {
				o.buf.Add(t, p.FilterPositions(rows))
			}
		}
	}
	return nil
}

func (o *PartitionedOutputOperator) Output() (*block.Page, error) { return nil, nil }

// Finish marks this driver's sink complete. The buffer's no-more-pages
// signal is issued by the task once ALL its drivers are done, since several
// drivers of one task share the output buffer.
func (o *PartitionedOutputOperator) Finish()          { o.finished = true }
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

// LocalExchangeOperator pair: a sink distributing pages to in-task buffers
// and sources reading them, joining pipelines inside one task (paper Fig. 4).
type LocalExchange struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue [][]*block.Page
	done  bool
	hash  []int
	parts []int // per-row partition scratch, reused across pages
	rows  []int // partitionRows scratch
	offs  []int
	rr    int
	cap   int

	// notify fires (outside mu) when pages arrive, space frees, or the
	// exchange finishes — the transitions that can unblock a parked sink or
	// source driver. The executor registers its Kick here.
	notify func()
}

// SetNotify installs the unblock callback; set before drivers start.
func (l *LocalExchange) SetNotify(fn func()) {
	l.mu.Lock()
	l.notify = fn
	l.mu.Unlock()
}

// notifyLocked returns the callback to run after the caller releases mu.
func (l *LocalExchange) notifyLocked() func() {
	if l.notify == nil {
		return func() {}
	}
	return l.notify
}

// NewLocalExchange creates a ways-way in-task exchange.
func NewLocalExchange(ways int, hashCols []int) *LocalExchange {
	l := &LocalExchange{queue: make([][]*block.Page, ways), hash: hashCols, cap: 64}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// LocalExchangeSink is the producing end.
type LocalExchangeSink struct {
	ctx      *OpContext
	ex       *LocalExchange
	finished bool
}

// NewLocalExchangeSink creates the sink operator.
func NewLocalExchangeSink(ctx *OpContext, ex *LocalExchange) *LocalExchangeSink {
	return &LocalExchangeSink{ctx: ctx, ex: ex}
}

func (o *LocalExchangeSink) NeedsInput() bool {
	return !o.finished && !o.ex.full()
}
func (o *LocalExchangeSink) IsBlocked() bool { return !o.finished && o.ex.full() }

func (o *LocalExchangeSink) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.ex.add(p)
	return nil
}
func (o *LocalExchangeSink) Output() (*block.Page, error) { return nil, nil }
func (o *LocalExchangeSink) Finish() {
	if !o.finished {
		o.finished = true
		o.ex.finish()
	}
}
func (o *LocalExchangeSink) IsFinished() bool { return o.finished }
func (o *LocalExchangeSink) Close() error     { return nil }

// LocalExchangeSource is consumer i of the exchange.
type LocalExchangeSource struct {
	ctx  *OpContext
	ex   *LocalExchange
	idx  int
	done bool
}

// NewLocalExchangeSource creates consumer idx.
func NewLocalExchangeSource(ctx *OpContext, ex *LocalExchange, idx int) *LocalExchangeSource {
	return &LocalExchangeSource{ctx: ctx, ex: ex, idx: idx}
}

func (o *LocalExchangeSource) NeedsInput() bool { return false }
func (o *LocalExchangeSource) AddInput(p *block.Page) error {
	return fmt.Errorf("local exchange source: unexpected input")
}

func (o *LocalExchangeSource) Output() (*block.Page, error) {
	if o.done {
		return nil, nil
	}
	p, fin := o.ex.poll(o.idx)
	if fin {
		o.done = true
	}
	if p != nil {
		o.ctx.recordOut(p)
	}
	return p, nil
}

func (o *LocalExchangeSource) IsBlocked() bool {
	if o.done {
		return false
	}
	return o.ex.empty(o.idx)
}
func (o *LocalExchangeSource) Finish()          { o.done = true }
func (o *LocalExchangeSource) IsFinished() bool { return o.done }
func (o *LocalExchangeSource) Close() error     { return nil }

func (l *LocalExchange) add(p *block.Page) {
	l.mu.Lock()
	defer func() {
		notify := l.notifyLocked()
		l.mu.Unlock()
		notify()
	}()
	n := len(l.queue)
	if len(l.hash) > 0 && n > 1 {
		l.parts = HashPartitionPage(p, l.hash, n, l.parts)
		l.rows, l.offs = partitionRows(l.parts, n, l.rows, l.offs)
		for t := 0; t < n; t++ {
			if rows := l.rows[l.offs[t]:l.offs[t+1]]; len(rows) > 0 {
				l.queue[t] = append(l.queue[t], p.FilterPositions(rows))
			}
		}
	} else {
		l.queue[l.rr%n] = append(l.queue[l.rr%n], p)
		l.rr++
	}
	l.cond.Broadcast()
}

func (l *LocalExchange) poll(i int) (*block.Page, bool) {
	l.mu.Lock()
	if len(l.queue[i]) > 0 {
		p := l.queue[i][0]
		l.queue[i] = l.queue[i][1:]
		l.cond.Broadcast()
		notify := l.notifyLocked()
		l.mu.Unlock()
		notify() // space freed: a sink blocked on full() may resume
		return p, false
	}
	done := l.done
	l.mu.Unlock()
	return nil, done
}

func (l *LocalExchange) empty(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue[i]) == 0 && !l.done
}

func (l *LocalExchange) full() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range l.queue {
		if len(q) >= l.cap {
			return true
		}
	}
	return false
}

// Cancel marks the exchange done so consumers drain the queue and exit
// during task teardown, regardless of producer state.
func (l *LocalExchange) Cancel() { l.finish() }

func (l *LocalExchange) finish() {
	l.mu.Lock()
	l.done = true
	l.cond.Broadcast()
	notify := l.notifyLocked()
	l.mu.Unlock()
	notify()
}
