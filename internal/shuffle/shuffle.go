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
	parts    []*PartitionBuffer
	capacity int64
	entry    *StoreEntry // materialized mode (nil = in-memory)
}

// NewOutputBuffer creates a buffer with n partitions, each holding up to
// capacityBytes before backpressure engages.
func NewOutputBuffer(n int, capacityBytes int64) *OutputBuffer {
	if capacityBytes <= 0 {
		capacityBytes = 16 << 20
	}
	b := &OutputBuffer{capacity: capacityBytes}
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

// AttachEntry switches the buffer to materialized mode: pages go to the store
// entry's disk segments instead of memory, backpressure is disabled (disk is
// the buffer), and fetches are served from the sealed entry. Call before any
// page is added.
func (b *OutputBuffer) AttachEntry(e *StoreEntry) {
	b.entry = e
	for i, p := range b.parts {
		p.mu.Lock()
		p.entry, p.part = e, i
		p.mu.Unlock()
	}
}

// Err surfaces a sticky materialized-exchange write failure, checked by the
// producing operator so a full disk fails the task promptly (Add is void).
func (b *OutputBuffer) Err() error {
	if b.entry == nil {
		return nil
	}
	return b.entry.Err()
}

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

// SetNoMorePages marks all partitions finished.
func (b *OutputBuffer) SetNoMorePages() {
	for _, p := range b.parts {
		p.finish()
	}
}

// Destroy drops all buffered data (query cancelled).
func (b *OutputBuffer) Destroy() {
	for _, p := range b.parts {
		p.destroy()
	}
}

// PartitionBuffer is a single partition's page queue with token-based reads.
// With a store entry attached (materialized exchange) every operation
// delegates to the entry's disk segment; the entry pointer is stable across
// producer re-placement, so consumers holding this buffer follow a restarted
// producer transparently.
type PartitionBuffer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pages    []*block.Page
	firstSeq int64 // sequence number of pages[0]
	bytes    int64
	capacity int64
	done     bool
	notify   func() // space-freed callback, invoked outside mu
	entry    *StoreEntry
	part     int
}

func newPartitionBuffer(capacity int64) *PartitionBuffer {
	p := &PartitionBuffer{capacity: capacity}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *PartitionBuffer) add(page *block.Page) {
	p.mu.Lock()
	if e := p.entry; e != nil {
		part := p.part
		p.mu.Unlock()
		e.append(part, page)
		return
	}
	p.pages = append(p.pages, page)
	p.bytes += page.SizeBytes()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *PartitionBuffer) finish() {
	p.mu.Lock()
	if e := p.entry; e != nil {
		part := p.part
		p.mu.Unlock()
		e.finishPart(part)
		return
	}
	p.done = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *PartitionBuffer) destroy() {
	p.mu.Lock()
	if p.entry != nil {
		// Materialized output outlives the task: an aborted producer's
		// unsealed entry is reset by its replacement or deleted at query
		// cleanup, and consumers park on the entry, not this buffer.
		p.mu.Unlock()
		return
	}
	p.pages = nil
	p.bytes = 0
	p.done = true
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
	if p.entry != nil {
		return false // disk is the buffer: no backpressure
	}
	return p.bytes >= p.capacity
}

func (p *PartitionBuffer) utilization() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entry != nil || p.capacity == 0 {
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
// the stream is complete.
func (p *PartitionBuffer) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool) {
	p.mu.Lock()
	if e := p.entry; e != nil {
		part := p.part
		p.mu.Unlock()
		// This signature cannot carry an error; a sticky read failure ends
		// the stream and the coordinator's final verdict consults the
		// producer's StoreEntry.Err before declaring success.
		pages, next, done, _ := e.fetch(part, token, maxBytes, wait)
		return pages, next, done
	}
	p.mu.Unlock()

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
	if freed && p.notify != nil {
		// The callback must not run under mu (the executor holds its own
		// lock while probing p.full(), so mu → executor-lock would cycle),
		// and this function holds mu until it returns; hand off instead.
		go p.notify()
	}

	// Long-poll for data.
	for len(p.pages) == 0 && !p.done {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, p.firstSeq, false
		}
		waitCond(p.cond, remaining)
	}
	if len(p.pages) == 0 && p.done {
		return nil, p.firstSeq, true
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
	return out, next, complete
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
