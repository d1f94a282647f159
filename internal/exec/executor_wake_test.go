package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/operators"
)

// gateSource is a source operator that reports blocked until opened: the
// executor parks its driver, and only a Kick (or the BlockedPoll fallback)
// can bring it back. Opening the gate releases one page and finishes.
type gateSource struct {
	mu      sync.Mutex
	open    bool
	emitted bool
}

func (g *gateSource) Open() {
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
}

func (g *gateSource) NeedsInput() bool             { return false }
func (g *gateSource) AddInput(p *block.Page) error { return nil }
func (g *gateSource) Finish()                      {}
func (g *gateSource) Close() error                 { return nil }

func (g *gateSource) Output() (*block.Page, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open || g.emitted {
		return nil, nil
	}
	g.emitted = true
	return block.NewPage(block.NewLongBlock([]int64{1}, nil)), nil
}

func (g *gateSource) IsBlocked() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.open
}

func (g *gateSource) IsFinished() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.emitted
}

// TestExecutorWakeupOnKick is the regression test for the idle-wait busy
// poll: a parked blocked driver must resume when its unblock source kicks
// the executor, not when a fixed poll interval expires. BlockedPoll is set
// far above the asserted latency, so a missed notification fails loudly.
func TestExecutorWakeupOnKick(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond,
		BlockedPoll: 2 * time.Second})
	defer e.Close()

	g := &gateSource{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	// Wait until the driver is parked on the blocked list.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, blocked := e.QueueLengths(); blocked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never parked as blocked")
		}
		time.Sleep(time.Millisecond)
	}

	unblocked := time.Now()
	g.Open()
	e.Kick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("driver did not finish after unblock")
	}
	if lat := time.Since(unblocked); lat > 500*time.Millisecond {
		t.Fatalf("wakeup latency %v: driver waited out a poll interval instead of waking on Kick", lat)
	}
}

// TestExecutorBlockedPollFallback proves the safety net: a blocking
// condition with no Kick hook is still picked up within the poll interval.
func TestExecutorBlockedPollFallback(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond,
		BlockedPoll: 20 * time.Millisecond})
	defer e.Close()

	g := &gateSource{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, blocked := e.QueueLengths(); blocked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never parked as blocked")
		}
		time.Sleep(time.Millisecond)
	}

	g.Open() // no Kick: only the poll can notice
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BlockedPoll fallback never re-scanned the blocked list")
	}
}

// TestQueueLengthsSeparatesRunnableAndBlocked checks the counting semantics
// directly on a hand-built executor (no worker threads): blocked drivers and
// finished-but-not-reaped drivers must not inflate the runnable depth the
// scheduler uses for split placement.
func TestQueueLengthsSeparatesRunnableAndBlocked(t *testing.T) {
	e := &Executor{cfg: ExecutorConfig{Threads: 1}}
	e.cond = sync.NewCond(&e.mu)

	runnable := NewDriver([]operators.Operator{&gateSource{open: true}, &passthrough{}})
	blocked := NewDriver([]operators.Operator{&gateSource{}, &passthrough{}})

	finished := NewDriver([]operators.Operator{&gateSource{open: true}, &passthrough{}})
	for i := 0; i < 10 && !finished.Finished(); i++ {
		if _, err := finished.Process(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !finished.Finished() {
		t.Fatal("setup: driver did not finish")
	}

	th := NewTaskHandle("q")
	e.levels[0] = []*driverRunner{
		{driver: runnable, task: th},
		{driver: finished, task: th}, // awaiting its done callback only
	}
	e.blocked = []*driverRunner{
		{driver: blocked, task: th},
		{driver: finished, task: th},
	}

	r, b := e.QueueLengths()
	if r != 1 {
		t.Errorf("runnable = %d, want 1 (finished driver must not count)", r)
	}
	if b != 1 {
		t.Errorf("blocked = %d, want 1 (finished driver must not count)", b)
	}
}

// TestExecutorIdleNoBusyPoll asserts that an executor with one parked blocked
// driver does not spin: over a 100ms window the threads should accumulate
// almost no busy time.
func TestExecutorIdleNoBusyPoll(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 2, Quanta: time.Millisecond,
		BlockedPoll: 20 * time.Millisecond})
	defer e.Close()

	g := &gateSource{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	var doneFlag atomic.Bool
	e.Enqueue(d, NewTaskHandle("q"), func(error) { doneFlag.Store(true) })

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, blocked := e.QueueLengths(); blocked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never parked")
		}
		time.Sleep(time.Millisecond)
	}

	base := e.BusyNanos()
	time.Sleep(100 * time.Millisecond)
	idleBusy := e.BusyNanos() - base
	if idleBusy > int64(10*time.Millisecond) {
		t.Errorf("parked executor burned %v of thread time in a 100ms idle window", time.Duration(idleBusy))
	}
	g.Open()
	e.Kick()
	deadline = time.Now().Add(2 * time.Second)
	for !doneFlag.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !doneFlag.Load() {
		t.Fatal("driver did not finish")
	}
}

// TestWaitTimeoutKeepsItsWakeup: a deadline that expires before Wait has
// queued the caller must still wake it. The idle scheduling thread computes
// such deadlines (a starved driver's park time minus now can be nanoseconds),
// and a lost wakeup left every parked driver of the worker stranded — the
// "query stops making progress" hang of single-threaded workers.
func TestWaitTimeoutKeepsItsWakeup(t *testing.T) {
	var mu sync.Mutex
	c := sync.NewCond(&mu)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 20000; i++ {
			waitTimeout(c, time.Nanosecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("waitTimeout lost its wakeup and never returned")
	}
}

// starvedThenBlocked is a source that is starved at first (not blocked,
// nothing to give) and blocked from the moment block() is called, like an
// exchange source whose client has not started fetching yet.
type starvedThenBlocked struct {
	gateSource
	blocking atomic.Bool
}

func (s *starvedThenBlocked) IsBlocked() bool {
	return s.blocking.Load() && s.gateSource.IsBlocked()
}

// TestExecutorStarvedThenBlockedYieldsLock: a runner parked as starved whose
// driver turns blocked before the park deadline must not leave the scheduling
// thread spinning on the blocked list with the executor lock held — Kick,
// Enqueue and QueueLengths all need that lock, and the unblock arrives
// through them. BlockedPoll is far above the asserted latency.
func TestExecutorStarvedThenBlockedYieldsLock(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond,
		StarvedPark: 30 * time.Millisecond, BlockedPoll: 5 * time.Second})
	defer func() {
		if !t.Failed() { // a spinning thread never lets Close in
			e.Close()
		}
	}()

	s := &starvedThenBlocked{}
	d := NewDriver([]operators.Operator{s, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, parked := e.QueueLengths(); parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never parked as starved")
		}
		time.Sleep(time.Millisecond)
	}
	s.blocking.Store(true)
	time.Sleep(60 * time.Millisecond) // the park deadline passes while blocked

	// Still blocked: whatever unblocks it will need the lock first.
	locked := make(chan struct{})
	go func() {
		e.QueueLengths()
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(time.Second):
		t.Fatal("the executor lock is not available: the scheduling thread is spinning with it held")
	}
	s.Open()
	e.Kick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("driver did not finish after unblock")
	}
}
