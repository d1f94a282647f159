package shuffle

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// drain polls the client until done or the deadline, returning total rows.
func drain(t *testing.T, c *ExchangeClient, timeout time.Duration) int {
	t.Helper()
	rows := 0
	deadline := time.Now().Add(timeout)
	for {
		p, ok, done, err := c.Poll()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if ok {
			rows += p.RowCount()
		}
		if done {
			return rows
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timed out with %d rows", rows)
		}
		if !ok {
			time.Sleep(time.Millisecond)
		}
	}
}

// flakyFetcher fails the first failuresPerToken attempts at each token, with
// err (nil: a plain error).
type flakyFetcher struct {
	inner Fetcher
	err   error

	mu               sync.Mutex
	failuresPerToken int
	failed           map[int64]int
	totalFailures    int
}

func (f *flakyFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	f.mu.Lock()
	if f.failed == nil {
		f.failed = map[int64]int{}
	}
	if f.failed[token] < f.failuresPerToken {
		f.failed[token]++
		f.totalFailures++
		f.mu.Unlock()
		if f.err != nil {
			return nil, token, false, f.err
		}
		return nil, token, false, errors.New("transient fetch failure")
	}
	f.mu.Unlock()
	return f.inner.Fetch(token, maxBytes, wait)
}

func TestExchangeClientRetriesTransientFailures(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1, 2))
	b.Add(0, page(3))
	b.SetNoMorePages()

	flaky := &flakyFetcher{inner: &LocalFetcher{Buf: b.Partition(0)}, failuresPerToken: 2}
	c := NewExchangeClient([]Fetcher{flaky}, 1<<20)
	c.Retry = RetryPolicy{MaxRetries: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	c.Start()
	defer c.Close()

	if rows := drain(t, c, 5*time.Second); rows != 3 {
		t.Errorf("rows: %d", rows)
	}
	flaky.mu.Lock()
	failures := flaky.totalFailures
	flaky.mu.Unlock()
	if failures == 0 {
		t.Error("flaky fetcher never failed — test exercised nothing")
	}
}

func TestExchangeClientGivesUpAfterMaxRetries(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1))
	b.SetNoMorePages()

	flaky := &flakyFetcher{inner: &LocalFetcher{Buf: b.Partition(0)}, failuresPerToken: 100}
	c := NewExchangeClient([]Fetcher{flaky}, 1<<20)
	c.Retry = RetryPolicy{MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	c.Start()
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, done, err := c.Poll()
		if err != nil {
			return // stream failed as it should
		}
		if done {
			t.Fatal("stream completed despite permanent fetch failure")
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never surfaced the failure")
		}
		time.Sleep(time.Millisecond)
	}
}

// hangOnceFetcher blocks far past the fetch timeout on its first attempt,
// then behaves normally.
type hangOnceFetcher struct {
	inner Fetcher
	mu    sync.Mutex
	hung  bool
}

func (h *hangOnceFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	h.mu.Lock()
	first := !h.hung
	h.hung = true
	h.mu.Unlock()
	if first {
		time.Sleep(300 * time.Millisecond)
	}
	return h.inner.Fetch(token, maxBytes, wait)
}

func TestExchangeClientFetchTimeoutRetries(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1, 2, 3))
	b.SetNoMorePages()

	hang := &hangOnceFetcher{inner: &LocalFetcher{Buf: b.Partition(0)}}
	c := NewExchangeClient([]Fetcher{hang}, 1<<20)
	c.Retry = RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, FetchTimeout: 30 * time.Millisecond}
	c.Start()
	defer c.Close()

	if rows := drain(t, c, 5*time.Second); rows != 3 {
		t.Errorf("rows after timeout retry: %d", rows)
	}
}

// slowLocal is an in-process fetcher slower than the fetch timeout.
type slowLocal struct{ hangOnceFetcher }

func (*slowLocal) InProcess() {}

// TestInProcessFetchHasNoWatchdog: a fetch that crosses no network is called
// directly, so a slow one is waited for and is not a failed attempt; any
// other fetcher — a fault-injecting wrapper too — keeps the timeout.
func TestInProcessFetchHasNoWatchdog(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1, 2, 3))
	b.SetNoMorePages()
	local := &slowLocal{hangOnceFetcher{inner: &LocalFetcher{Buf: b.Partition(0)}}}
	if _, _, _, err := fetchOnce(local, 0, 1<<20, 0, 30*time.Millisecond); err != nil {
		t.Fatalf("an in-process fetch timed out: %v", err)
	}
	remote := &hangOnceFetcher{inner: &LocalFetcher{Buf: b.Partition(0)}}
	if _, _, _, err := fetchOnce(remote, 0, 1<<20, 0, 30*time.Millisecond); err == nil {
		t.Fatal("a fetch past its timeout did not fail")
	}
}

func TestExchangeClientConcurrencySizing(t *testing.T) {
	c := NewExchangeClient(make([]Fetcher, 8), 1<<20)
	c.mu.Lock()
	if got := c.targetConcurrencyLocked(); got != 8 {
		t.Errorf("no data yet: target %d, want all 8 sources", got)
	}
	c.avgBytesPerFetch = 1 << 19 // half the buffer per response
	if got := c.targetConcurrencyLocked(); got != 2 {
		t.Errorf("avg=cap/2: target %d, want 2", got)
	}
	c.avgBytesPerFetch = 1 << 23 // responses bigger than the buffer
	if got := c.targetConcurrencyLocked(); got != 1 {
		t.Errorf("huge avg: target %d, want 1", got)
	}
	c.avgBytesPerFetch = 16 // tiny responses
	if got := c.targetConcurrencyLocked(); got != 8 {
		t.Errorf("tiny avg: target %d, want source count", got)
	}
	c.mu.Unlock()
}

func TestExchangeClientConcurrencyGateStillDrains(t *testing.T) {
	// Many sources with big pages and a small buffer: the gate throttles to
	// one or two in-flight requests, yet all data must still arrive.
	const sources = 6
	var fetchers []Fetcher
	for i := 0; i < sources; i++ {
		b := NewOutputBuffer(1, 1<<20)
		b.Add(0, page(make([]int64, 256)...))
		b.Add(0, page(make([]int64, 256)...))
		b.SetNoMorePages()
		fetchers = append(fetchers, &LocalFetcher{Buf: b.Partition(0)})
	}
	c := NewExchangeClient(fetchers, 8<<10)
	c.Start()
	defer c.Close()
	if rows := drain(t, c, 10*time.Second); rows != sources*2*256 {
		t.Errorf("rows: %d", rows)
	}
}

func TestExchangeClientCloseUnblocksBackoff(t *testing.T) {
	flaky := &flakyFetcher{inner: &LocalFetcher{Buf: NewOutputBuffer(1, 1<<20).Partition(0)}, failuresPerToken: 1000}
	c := NewExchangeClient([]Fetcher{flaky}, 1<<20)
	c.Retry = RetryPolicy{MaxRetries: 1 << 20, BaseBackoff: time.Hour, MaxBackoff: time.Hour}
	c.Start()
	time.Sleep(10 * time.Millisecond) // let the loop enter its hour-long backoff
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked")
	}
}

// TestFailedProducerIsTerminal: a fetch that failed because its producer did
// fails the exchange client and the retrying fetcher on its first attempt,
// while a transport error and a fetch timeout are still retried to the end
// of the stream.
func TestFailedProducerIsTerminal(t *testing.T) {
	cases := []struct {
		name     string
		fetcher  func(inner Fetcher) Fetcher
		terminal bool
	}{
		{"failed producer", func(inner Fetcher) Fetcher {
			return &flakyFetcher{inner: inner, err: &TaskFailedError{Err: errors.New("boom")}, failuresPerToken: 100}
		}, true},
		{"transport error", func(inner Fetcher) Fetcher {
			return &flakyFetcher{inner: inner, err: &TransportError{Op: "get", Err: errors.New("reset")}, failuresPerToken: 2}
		}, false},
		{"fetch timeout", func(inner Fetcher) Fetcher { return &hangOnceFetcher{inner: inner} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewOutputBuffer(1, 1<<20)
			b.Add(0, page(1, 2, 3))
			b.SetNoMorePages()
			src := tc.fetcher(&LocalFetcher{Buf: b.Partition(0)})
			c := NewExchangeClient([]Fetcher{src}, 1<<20)
			c.Retry = RetryPolicy{MaxRetries: 4, BaseBackoff: time.Millisecond, FetchTimeout: 30 * time.Millisecond}
			c.Start()
			defer c.Close()
			if !tc.terminal {
				if rows := drain(t, c, 5*time.Second); rows != 3 {
					t.Errorf("rows after retries: %d, want 3", rows)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			var err error
			for err == nil && time.Now().Before(deadline) {
				var done bool
				if _, _, done, err = c.Poll(); done && err == nil {
					t.Fatal("the stream of a failed producer completed")
				}
				time.Sleep(time.Millisecond)
			}
			var failed *TaskFailedError
			if !errors.As(err, &failed) {
				t.Fatalf("client error %v, want the producer's failure", err)
			}
			flaky := src.(*flakyFetcher)
			flaky.mu.Lock()
			defer flaky.mu.Unlock()
			if flaky.totalFailures != 1 {
				t.Errorf("a failed producer was fetched %d times, want once", flaky.totalFailures)
			}
		})
	}

	// The retrying fetcher (the coordinator's read of a remote root) reports
	// a failed producer at once and absorbs a transport error.
	failed := &RetryFetcher{Src: &flakyFetcher{err: &TaskFailedError{Err: errors.New("boom")}, failuresPerToken: 100}}
	if _, _, _, err := failed.Fetch(0, 1<<20, 0); err == nil {
		t.Error("RetryFetcher absorbed a failed producer")
	}
	transport := &RetryFetcher{Src: &flakyFetcher{err: &TransportError{Op: "get", Err: errors.New("reset")}, failuresPerToken: 100}}
	if _, _, _, err := transport.Fetch(0, 1<<20, 0); err != nil {
		t.Errorf("RetryFetcher surfaced a first transport error: %v", err)
	}
}
