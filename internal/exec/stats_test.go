package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/operators"
)

// starvedSource makes no progress until released: it is not finished, not
// blocked, and produces nothing.
type starvedSource struct {
	release atomic.Bool
	polls   atomic.Int64
}

func (o *starvedSource) NeedsInput() bool             { return false }
func (o *starvedSource) AddInput(p *block.Page) error { return nil }
func (o *starvedSource) Output() (*block.Page, error) { o.polls.Add(1); return nil, nil }
func (o *starvedSource) Finish()                      {}
func (o *starvedSource) IsFinished() bool             { return o.release.Load() }
func (o *starvedSource) IsBlocked() bool              { return false }
func (o *starvedSource) Close() error                 { return nil }

// Regression test: a starved driver (no progress, Blocked() == false) must
// not busy-spin on its executor thread. When pick() re-admitted such runners
// immediately, a single starved driver pinned a thread at 100% polling its
// source tens of thousands of times. It is parked like a blocked driver, and
// the release, like every change a driver can wait on, Kicks.
func TestStarvedDriverDoesNotBusySpin(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Threads: 1, Quanta: time.Millisecond})
	defer e.Close()

	src := &starvedSource{}
	d := NewDriver([]operators.Operator{src, &passthrough{}})
	done := make(chan error, 1)
	e.Enqueue(d, NewTaskHandle("q"), func(err error) { done <- err })

	const wait = 150 * time.Millisecond
	time.Sleep(wait)
	src.release.Store(true)
	e.Kick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver did not finish after release")
	}

	// A parked runner polls its source about once; an immediately
	// re-admitted one polls tens of thousands of times.
	if polls := src.polls.Load(); polls > 2000 {
		t.Errorf("starved driver polled its source %d times in %v — busy spin", polls, wait)
	}
	if busy := e.BusyNanos(); busy > wait.Nanoseconds()/2 {
		t.Errorf("executor busy %v of %v wall while starved — busy spin",
			time.Duration(busy), wait)
	}
}

// slowSource produces a fixed number of pages, each costing ~delay of
// "compute", so pass-level timing attribution has something to measure.
type slowSource struct {
	pages int
	delay time.Duration
}

func (o *slowSource) NeedsInput() bool             { return false }
func (o *slowSource) AddInput(p *block.Page) error { return nil }
func (o *slowSource) Output() (*block.Page, error) {
	if o.pages == 0 {
		return nil, nil
	}
	o.pages--
	time.Sleep(o.delay)
	return block.NewPage(block.NewLongBlock([]int64{1, 2}, nil)), nil
}
func (o *slowSource) Finish()          {}
func (o *slowSource) IsFinished() bool { return o.pages == 0 }
func (o *slowSource) IsBlocked() bool  { return false }
func (o *slowSource) Close() error     { return nil }

func TestDriverAttributesOperatorStats(t *testing.T) {
	src := &slowSource{pages: 3, delay: 2 * time.Millisecond}
	srcStats := &operators.OpStats{Name: "SlowSource"}
	sinkStats := &operators.OpStats{Name: "Sink"}
	d := NewDriver([]operators.Operator{src, &passthrough{}}).WithStats(
		[]*operators.OpContext{{Stats: srcStats}, {Stats: sinkStats}})
	for i := 0; i < 100 && !d.Finished(); i++ {
		if _, err := d.Process(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Finished() {
		t.Fatal("driver did not finish")
	}
	snap := srcStats.Snapshot()
	// 3 pages × 2ms, split between the two touched operators: ≥ ~3ms each.
	if snap.CPUNanos < (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("source cpu = %v, want ≥ 1ms", time.Duration(snap.CPUNanos))
	}
	if snap.WallNanos < (6 * time.Millisecond).Nanoseconds() {
		t.Errorf("source wall = %v, want ≥ driver lifetime (≥6ms)", time.Duration(snap.WallNanos))
	}
	if sink := sinkStats.Snapshot(); sink.WallNanos != snap.WallNanos {
		t.Errorf("wall differs across pipeline: %d vs %d", sink.WallNanos, snap.WallNanos)
	}
}

// blockedSource reports blocked until released, then finishes.
type blockedSource struct{ release atomic.Bool }

func (o *blockedSource) NeedsInput() bool             { return false }
func (o *blockedSource) AddInput(p *block.Page) error { return nil }
func (o *blockedSource) Output() (*block.Page, error) { return nil, nil }
func (o *blockedSource) Finish()                      {}
func (o *blockedSource) IsFinished() bool             { return o.release.Load() }
func (o *blockedSource) IsBlocked() bool              { return !o.release.Load() }
func (o *blockedSource) Close() error                 { return nil }

func TestDriverChargesBlockedTime(t *testing.T) {
	src := &blockedSource{}
	srcStats := &operators.OpStats{Name: "BlockedSource"}
	d := NewDriver([]operators.Operator{src, &passthrough{}}).WithStats(
		[]*operators.OpContext{{Stats: srcStats}, nil})
	if _, err := d.Process(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	src.release.Store(true)
	if _, err := d.Process(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.BlockedNanos(); got < (15 * time.Millisecond).Nanoseconds() {
		t.Errorf("driver blocked = %v, want ≥ 15ms", time.Duration(got))
	}
	if got := srcStats.Snapshot().BlockedNanos; got < (15 * time.Millisecond).Nanoseconds() {
		t.Errorf("blocking operator charged %v, want ≥ 15ms", time.Duration(got))
	}
}
