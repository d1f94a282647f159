// Package shuffle implements the engine's inter-task data exchange
// (paper §IV-E2): producing tasks store pages in partitioned in-memory
// output buffers; consumers pull them with a token-acknowledged long-poll
// protocol (the server retains data until the client requests the next
// segment, making the acknowledgement implicit). Buffer utilization is
// monitored to provide end-to-end backpressure: full output buffers stall
// split execution, and the engine lowers effective concurrency when
// utilization stays high.
package shuffle

import (
	"sync"
	"time"

	"repro/internal/block"
)

// OutputBuffer is one task's partitioned output. Partition i is consumed by
// task i of the downstream stage (or the coordinator for the root).
type OutputBuffer struct {
	parts []*PartitionBuffer
}

// NewOutputBuffer creates a buffer with n partitions, each holding up to
// capacityBytes before backpressure engages.
func NewOutputBuffer(n int, capacityBytes int64) *OutputBuffer {
	if capacityBytes <= 0 {
		capacityBytes = 16 << 20
	}
	b := &OutputBuffer{}
	for i := 0; i < n; i++ {
		b.parts = append(b.parts, newPartitionBuffer(capacityBytes))
	}
	return b
}

// Partitions returns the partition count.
func (b *OutputBuffer) Partitions() int { return len(b.parts) }

// SetNotify installs a callback fired (outside buffer locks) whenever space
// is freed or the buffer is destroyed — the events that can unblock a
// producer stalled on backpressure. The executor registers its Kick here so
// parked drivers resume promptly instead of waiting out a poll interval.
func (b *OutputBuffer) SetNotify(fn func()) {
	for _, p := range b.parts {
		p.mu.Lock()
		p.notify = fn
		p.mu.Unlock()
	}
}

// Partition returns partition i's buffer.
func (b *OutputBuffer) Partition(i int) *PartitionBuffer { return b.parts[i] }

// CanAdd reports whether every partition has room; producers stall when it
// is false (backpressure).
func (b *OutputBuffer) CanAdd() bool {
	for _, p := range b.parts {
		if p.full() {
			return false
		}
	}
	return true
}

// Utilization returns the max partition fill fraction, the signal the engine
// uses to tune split concurrency (§IV-E2) and writer scaling (§IV-E3).
func (b *OutputBuffer) Utilization() float64 {
	var worst float64
	for _, p := range b.parts {
		u := p.utilization()
		if u > worst {
			worst = u
		}
	}
	return worst
}

// Add enqueues a page to partition i.
func (b *OutputBuffer) Add(i int, p *block.Page) {
	b.parts[i].add(p)
}

// AddLast stages a producer's last page for partition i: a fetch sees it
// with the next Add to the partition or, when it is the task's last, together
// with the end of the stream, so the fetch that returns it also reports the
// stream complete.
func (b *OutputBuffer) AddLast(i int, p *block.Page) {
	b.parts[i].stage(p)
}

// SetNoMorePages publishes the staged pages and marks all partitions
// finished: it is the only way a stream ends.
func (b *OutputBuffer) SetNoMorePages() {
	for _, p := range b.parts {
		p.finish()
	}
}

// Destroy drops all buffered data: the producer failed or was aborted with err.
// Every fetch then fails with err, a parked one included, except of a
// finished partition whose every page was acknowledged, which stays complete.
func (b *OutputBuffer) Destroy(err error) {
	for _, p := range b.parts {
		p.destroy(err)
	}
}

// PartitionBuffer is a single partition's page queue with token-based reads.
type PartitionBuffer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pages    []*block.Page
	firstSeq int64 // sequence number of pages[0]
	bytes    int64
	capacity int64
	done     bool   // the producer published its end (finish)
	err      error  // the producer failed (destroy); fetches fail with it
	notify   func() // space-freed callback, invoked outside mu
	// staged holds last pages (AddLast) not yet visible to Fetch; they count
	// towards bytes only once published, so they never hold back a producer.
	staged []*block.Page
}

func newPartitionBuffer(capacity int64) *PartitionBuffer {
	p := &PartitionBuffer{capacity: capacity}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *PartitionBuffer) add(page *block.Page) {
	p.mu.Lock()
	if p.err == nil { // else a driver winding down after a destroy: nobody reads it
		p.publishLocked()
		p.pages = append(p.pages, page)
		p.bytes += page.SizeBytes()
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *PartitionBuffer) stage(page *block.Page) {
	p.mu.Lock()
	p.staged = append(p.staged, page)
	p.mu.Unlock()
}

// publishLocked moves staged pages, in order, to the fetchable queue.
func (p *PartitionBuffer) publishLocked() {
	for _, pg := range p.staged {
		p.pages = append(p.pages, pg)
		p.bytes += pg.SizeBytes()
	}
	p.staged = nil
}

func (p *PartitionBuffer) finish() {
	p.mu.Lock()
	p.publishLocked()
	p.done = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *PartitionBuffer) destroy(err error) {
	p.mu.Lock()
	if p.err == nil && !(p.done && len(p.pages) == 0) {
		p.err = err
	}
	p.pages, p.staged = nil, nil
	p.bytes = 0
	p.cond.Broadcast()
	notify := p.notify
	p.mu.Unlock()
	if notify != nil {
		notify()
	}
}

func (p *PartitionBuffer) full() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes >= p.capacity
}

func (p *PartitionBuffer) utilization() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity == 0 {
		return 0
	}
	u := float64(p.bytes) / float64(p.capacity)
	if u > 1 {
		u = 1
	}
	return u
}

// Fetch implements the long-poll protocol: the caller passes the token from
// the previous response (0 initially); pages before the token are discarded
// (implicit acknowledgement) and the call blocks up to wait for new data.
// It returns buffered pages from token onward, the next token, and whether
// the stream is complete; or the producer's error once Destroy failed the
// stream.
func (p *PartitionBuffer) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	deadline := time.Now().Add(wait)
	p.mu.Lock()
	defer p.mu.Unlock()

	// Acknowledge: drop pages the client has confirmed.
	freed := false
	for token > p.firstSeq && len(p.pages) > 0 {
		p.bytes -= p.pages[0].SizeBytes()
		p.pages = p.pages[1:]
		p.firstSeq++
		freed = true
	}
	p.cond.Broadcast() // space may have been freed
	if notify := p.notify; freed && notify != nil {
		// The callback must not run under mu: the executor holds its own
		// lock while probing p.full(), so mu → executor-lock would cycle.
		// It runs before the long poll, so that the producer it wakes can
		// fill what this fetch waits for.
		p.mu.Unlock()
		notify()
		p.mu.Lock()
	}

	// Long-poll for data.
	for len(p.pages) == 0 && !p.done && p.err == nil {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, p.firstSeq, false, nil
		}
		waitCond(p.cond, remaining)
	}
	if p.err != nil {
		return nil, token, false, p.err
	}
	if len(p.pages) == 0 {
		return nil, p.firstSeq, true, nil
	}
	var out []*block.Page
	var outBytes int64
	next := p.firstSeq
	for _, pg := range p.pages {
		out = append(out, pg)
		outBytes += pg.SizeBytes()
		next++
		if maxBytes > 0 && outBytes >= maxBytes {
			break
		}
	}
	complete := p.done && int(next-p.firstSeq) == len(p.pages)
	return out, next, complete, nil
}

// waitCond waits on a condition variable (whose lock the caller holds) with
// a timeout. The timer broadcasts under the lock so it cannot fire before
// Wait has queued the caller and be lost.
func waitCond(c *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	})
	defer timer.Stop()
	c.Wait()
}
