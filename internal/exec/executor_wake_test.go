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
// executor parks its driver, and only a Kick can bring it back. Opening the
// gate releases one page and finishes.
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

// waitParked waits until the executor's one driver is parked.
func waitParked(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, parked := e.LevelOccupancy(); parked == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorWakeupOnKick: a parked blocked driver resumes as soon as its
// unblock source kicks the executor.
func TestExecutorWakeupOnKick(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond})
	defer e.Close()

	g := &gateSource{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	waitParked(t, e)

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
		t.Fatalf("wakeup latency %v: driver did not wake on Kick", lat)
	}
}

// countedGate is a gateSource that counts how often it is asked whether it
// is blocked.
type countedGate struct {
	gateSource
	looks atomic.Int64
}

func (g *countedGate) IsBlocked() bool {
	g.looks.Add(1)
	return g.gateSource.IsBlocked()
}

// TestParkedDriverWaitsForKick: the executor does not poll its parked
// drivers. Over 100ms with no Kick, a parked driver's source is asked at most
// once whether it is still blocked; a Kick then brings the driver back.
func TestParkedDriverWaitsForKick(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond})
	defer e.Close()

	g := &countedGate{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })
	waitParked(t, e)

	base := g.looks.Load()
	time.Sleep(100 * time.Millisecond)
	if looks := g.looks.Load() - base; looks > 1 {
		t.Errorf("a parked driver was looked at %d times in 100ms without a Kick: the executor polls", looks)
	}
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
}

// TestExecutorIdleNoBusyPoll asserts that an executor with one parked blocked
// driver does not spin: over a 100ms window the threads should accumulate
// almost no busy time.
func TestExecutorIdleNoBusyPoll(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 2, Quanta: time.Millisecond})
	defer e.Close()

	g := &gateSource{}
	d := NewDriver([]operators.Operator{g, &passthrough{}})
	var doneFlag atomic.Bool
	e.Enqueue(d, NewTaskHandle("q"), func(error) { doneFlag.Store(true) })

	waitParked(t, e)

	base := e.BusyNanos()
	time.Sleep(100 * time.Millisecond)
	idleBusy := e.BusyNanos() - base
	if idleBusy > int64(10*time.Millisecond) {
		t.Errorf("parked executor burned %v of thread time in a 100ms idle window", time.Duration(idleBusy))
	}
	g.Open()
	e.Kick()
	deadline := time.Now().Add(2 * time.Second)
	for !doneFlag.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !doneFlag.Load() {
		t.Fatal("driver did not finish")
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
// driver turns blocked while parked must not leave the scheduling thread
// spinning on the blocked list with the executor lock held — Kick, Enqueue
// and LevelOccupancy all need that lock, and the unblock arrives through them.
func TestExecutorStarvedThenBlockedYieldsLock(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond})
	defer func() {
		if !t.Failed() { // a spinning thread never lets Close in
			e.Close()
		}
	}()

	s := &starvedThenBlocked{}
	d := NewDriver([]operators.Operator{s, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	waitParked(t, e)
	s.blocking.Store(true)
	time.Sleep(60 * time.Millisecond)

	// Still blocked: whatever unblocks it will need the lock first.
	locked := make(chan struct{})
	go func() {
		e.LevelOccupancy()
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
