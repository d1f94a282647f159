package shuffle

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
)

// Fetcher abstracts the source of a remote exchange: in-process it wraps a
// PartitionBuffer; over HTTP it wraps long-poll requests to a worker.
type Fetcher interface {
	// Fetch returns pages from token onward plus the next token; done
	// reports stream completion.
	Fetch(token int64, maxBytes int64, wait time.Duration) (pages []*block.Page, next int64, done bool, err error)
}

// LocalFetcher adapts a PartitionBuffer as a Fetcher.
type LocalFetcher struct{ Buf *PartitionBuffer }

// Fetch implements Fetcher; a destroyed buffer's error is the producer's
// failure (TaskFailedError).
func (f *LocalFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	pages, next, done, err := f.Buf.Fetch(token, maxBytes, wait)
	if err != nil {
		return nil, token, false, &TaskFailedError{Err: err}
	}
	return pages, next, done, nil
}

// InProcess declares the fetcher in-process.
func (f *LocalFetcher) InProcess() {}

// InProcess is implemented by a Fetcher whose Fetch only calls into this
// process and returns within its wait: it cannot hang, so the exchange
// client calls it directly, without the goroutine and the watchdog timer a
// fetch that crosses a network gets (fetchOnce).
type InProcess interface {
	Fetcher
	InProcess()
}

// fetchWait is the long-poll window passed to each Fetch attempt.
const fetchWait = 200 * time.Millisecond

// RetryPolicy controls how the exchange client recovers from failed fetches.
// The token protocol is idempotent — the producer retains pages until the
// consumer advances the token — so a failed or timed-out request can be
// reissued with the same token without duplicating or reordering rows. This
// is the client-visible half of the paper's failure model (§III): Presto
// 0.211 has no mid-query fault recovery, so transient transport errors must
// be absorbed at the fetch layer or surface as query failure.
type RetryPolicy struct {
	// MaxRetries bounds consecutive failed attempts for one token before
	// the stream is declared failed (0 = default 8, negative = no retries).
	MaxRetries int
	// BaseBackoff is the delay before the first retry; subsequent retries
	// double it (0 = default 5ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = default 250ms).
	MaxBackoff time.Duration
	// FetchTimeout bounds one fetch attempt; an attempt exceeding it counts
	// as a failed attempt and is retried with the same token (0 = default
	// 2s, negative = disabled).
	FetchTimeout time.Duration
}

// normalized fills defaults, mapping the zero policy to sane production
// values and negative knobs to "off".
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 8
	} else if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.FetchTimeout == 0 {
		p.FetchTimeout = 2 * time.Second
	} else if p.FetchTimeout < 0 {
		p.FetchTimeout = 0
	}
	return p
}

// ExchangeClient pulls pages from the producing tasks of upstream stages
// into a bounded local queue. Request concurrency is sized from the moving
// average of data received per request (§IV-E2): enough parallel requests in
// flight to fill the input buffer, never more than one per source. Fetching
// stops while the input buffer is full — propagating backpressure upstream —
// and failed fetches are retried with capped exponential backoff and
// per-attempt timeouts under the idempotent token protocol, except one whose
// producer failed, which fails the stream at once.
type ExchangeClient struct {
	// Retry configures fetch recovery; set before Start (the zero value
	// selects defaults).
	Retry RetryPolicy

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*block.Page
	bytes     int64
	capacity  int64
	remaining int // sources still open
	inflight  int // fetches currently issued
	err       error
	started   bool
	sources   []Fetcher
	closed    bool
	closedCh  chan struct{}
	retry     RetryPolicy // normalized copy, fixed at Start

	// avgBytesPerFetch is the moving average of bytes per response, the
	// §IV-E2 concurrency signal; exposed for tests.
	avgBytesPerFetch float64

	// notify fires (outside mu) when pages arrive, a stream completes, or
	// the client fails or closes — every event that can unblock a consumer
	// parked on an empty queue. The executor registers its Kick here.
	notify func()
}

// SetNotify installs the data-arrival callback; set before Start.
func (c *ExchangeClient) SetNotify(fn func()) {
	c.mu.Lock()
	c.notify = fn
	c.mu.Unlock()
}

// notifyLocked returns the callback to run after the caller releases mu.
func (c *ExchangeClient) notifyLocked() func() {
	if c.notify == nil {
		return func() {}
	}
	return c.notify
}

// NewExchangeClient creates a client over the given sources with an input
// buffer of capacityBytes.
func NewExchangeClient(sources []Fetcher, capacityBytes int64) *ExchangeClient {
	if capacityBytes <= 0 {
		capacityBytes = 16 << 20
	}
	c := &ExchangeClient{
		capacity:  capacityBytes,
		sources:   sources,
		remaining: len(sources),
		closedCh:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Start launches one fetch loop per source; the concurrency gate decides how
// many may have a request in flight at once.
func (c *ExchangeClient) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.retry = c.Retry.normalized()
	c.mu.Unlock()
	for _, s := range c.sources {
		go c.fetchLoop(s)
	}
}

// targetConcurrencyLocked sizes request concurrency from the moving average
// (§IV-E2): with avg bytes arriving per response, capacity/avg concurrent
// requests keep the input buffer full without overshooting it. Before any
// data has arrived (avg < 1) every source may fetch.
func (c *ExchangeClient) targetConcurrencyLocked() int {
	if c.avgBytesPerFetch < 1 {
		return len(c.sources)
	}
	t := int(float64(c.capacity) / c.avgBytesPerFetch)
	if t < 1 {
		t = 1
	}
	if t > len(c.sources) {
		t = len(c.sources)
	}
	return t
}

func (c *ExchangeClient) fetchLoop(src Fetcher) {
	var token int64
	failures := 0
	for {
		// Backpressure and concurrency gate: wait for input-buffer space
		// and an in-flight slot.
		c.mu.Lock()
		for (c.bytes >= c.capacity || c.inflight >= c.targetConcurrencyLocked()) &&
			c.err == nil && !c.closed {
			waitCond(c.cond, 20*time.Millisecond)
		}
		if c.err != nil || c.closed {
			c.mu.Unlock()
			return
		}
		c.inflight++
		c.mu.Unlock()

		pages, next, done, err := fetchOnce(src, token, c.capacity/4, fetchWait, c.retry.FetchTimeout)

		c.mu.Lock()
		c.inflight--
		if err != nil {
			c.cond.Broadcast() // free the slot for other sources
			c.mu.Unlock()
			failures++
			if failures > c.retry.MaxRetries || producerFailed(err) {
				c.fail(fmt.Errorf("exchange fetch failed after %d attempts: %w", failures, err))
				return
			}
			// The token was not advanced, so the retry re-requests the
			// same pages — safe under the idempotent protocol.
			if !c.sleepBackoff(failures) {
				return // closed while backing off
			}
			continue
		}
		failures = 0
		var got int64
		for _, p := range pages {
			c.queue = append(c.queue, p)
			c.bytes += p.SizeBytes()
			got += p.SizeBytes()
		}
		c.avgBytesPerFetch = 0.8*c.avgBytesPerFetch + 0.2*float64(got)
		token = next
		notify := c.notifyLocked()
		if done {
			c.remaining--
			c.cond.Broadcast()
			c.mu.Unlock()
			notify()
			return
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if len(pages) > 0 {
			notify()
		}
	}
}

// fetchOnce issues one fetch attempt, bounded by the per-attempt timeout
// (<= 0 disables it) unless src is InProcess. On timeout the attempt counts
// as failed; the in-flight request's eventual response is discarded (its
// goroutine exits once the underlying fetch returns, which the long-poll wait
// bounds).
func fetchOnce(src Fetcher, token, maxBytes int64, wait, timeout time.Duration) ([]*block.Page, int64, bool, error) {
	if _, local := src.(InProcess); local || timeout <= 0 {
		return src.Fetch(token, maxBytes, wait)
	}
	type result struct {
		pages []*block.Page
		next  int64
		done  bool
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		pages, next, done, err := src.Fetch(token, maxBytes, wait)
		ch <- result{pages, next, done, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.pages, r.next, r.done, r.err
	case <-timer.C:
		return nil, token, false, fmt.Errorf("fetch timed out after %v", timeout)
	}
}

// producerFailed reports whether a fetch failed because its producer did
// (TaskFailedError), which no retry can mend.
func producerFailed(err error) bool {
	var failed *TaskFailedError
	return errors.As(err, &failed)
}

// backoff is the capped exponential delay before retry number failures.
func (p RetryPolicy) backoff(failures int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < failures && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// sleepBackoff waits the backoff for the given failure count; false means the
// client closed while waiting.
func (c *ExchangeClient) sleepBackoff(failures int) bool {
	timer := time.NewTimer(c.retry.backoff(failures))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.closedCh:
		return false
	}
}

// RetryFetcher absorbs failed fetches of one source for a consumer that
// fetches in a loop and must stay interruptible between attempts (the
// coordinator's read of a remote root stage): a failed attempt backs off and
// reports "no pages yet" with the token unadvanced, so the caller's next Fetch
// is the retry; only MaxRetries consecutive failures, or a failed producer,
// surface as an error. Not safe for concurrent use.
type RetryFetcher struct {
	Src Fetcher

	failures int
}

// Fetch implements Fetcher, under the default RetryPolicy.
func (f *RetryFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	p := RetryPolicy{}.normalized()
	pages, next, done, err := fetchOnce(f.Src, token, maxBytes, wait, p.FetchTimeout)
	if err == nil {
		f.failures = 0
		return pages, next, done, nil
	}
	f.failures++
	if f.failures > p.MaxRetries || producerFailed(err) {
		return nil, token, false, fmt.Errorf("exchange fetch failed after %d attempts: %w", f.failures, err)
	}
	time.Sleep(p.backoff(f.failures))
	return nil, token, false, nil
}

// fail records a terminal stream failure.
func (c *ExchangeClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.remaining--
	c.cond.Broadcast()
	notify := c.notifyLocked()
	c.mu.Unlock()
	notify()
}

// Poll returns the next page without blocking; ok=false means none is
// currently available. done reports that all sources are exhausted.
func (c *ExchangeClient) Poll() (p *block.Page, ok bool, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, false, true, c.err
	}
	if len(c.queue) > 0 {
		p = c.queue[0]
		c.queue = c.queue[1:]
		c.bytes -= p.SizeBytes()
		c.cond.Broadcast()
		return p, true, false, nil
	}
	// A closed client reports done: the task is winding down, and drivers
	// draining this source must exit rather than wait for pages that will
	// never arrive (the fetch loop has stopped and the queue is dropped).
	if c.closed {
		return nil, false, true, nil
	}
	return nil, false, c.remaining == 0, nil
}

// Close stops fetching and drops buffered pages.
func (c *ExchangeClient) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closedCh)
	}
	c.queue = nil
	c.bytes = 0
	c.cond.Broadcast()
	notify := c.notifyLocked()
	c.mu.Unlock()
	notify()
}

// BufferedBytes reports current input-buffer occupancy (for tests).
func (c *ExchangeClient) BufferedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
