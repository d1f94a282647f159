package exec

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
)

// Leak accounting for the morsel queue: every PageSource a queue opens must
// be closed exactly once on every exit path — normal exhaustion, mid-read
// errors, cancellation racing an in-flight NextPage, and open failures.

type leakSplit struct{ id int }

func (leakSplit) Connector() string     { return "leak" }
func (leakSplit) PreferredNodes() []int { return nil }
func (leakSplit) EstimatedRows() int64  { return 1 }

// leakSource serves a fixed number of single-row pages, counting closes.
type leakSource struct {
	tracker *leakTracker
	pages   int
	failOn  int // fail the Nth NextPage call (0 = never)
	calls   int
	closed  atomic.Int32
	block   chan struct{} // when set, NextPage parks until released
}

type leakTracker struct {
	mu      sync.Mutex
	opened  []*leakSource
	opens   int
	openErr error // when set, opens fail after openErrAfter successes
	after   int
}

func (tr *leakTracker) open(connector.Split) (connector.PageSource, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.opens++
	if tr.openErr != nil && tr.opens > tr.after {
		return nil, tr.openErr
	}
	s := &leakSource{tracker: tr, pages: 2}
	tr.opened = append(tr.opened, s)
	return s, nil
}

// leaked reports sources opened but not closed exactly once.
func (tr *leakTracker) leaked(t *testing.T) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, s := range tr.opened {
		if n := s.closed.Load(); n != 1 {
			t.Errorf("source %d closed %d times (want 1)", i, n)
		}
	}
}

func (s *leakSource) NextPage() (*block.Page, error) {
	if s.block != nil {
		<-s.block
	}
	s.calls++
	if s.failOn > 0 && s.calls >= s.failOn {
		return nil, errors.New("read failed")
	}
	if s.calls > s.pages {
		return nil, nil
	}
	return block.NewPage(block.NewLongBlock([]int64{int64(s.calls)}, nil)), nil
}

func (s *leakSource) BytesRead() int64 { return 0 }
func (s *leakSource) Close()           { s.closed.Add(1) }

// drainQueue pulls morsels for one driver until the queue is drained, returning
// the first error.
func drainQueue(q *morselQueue) error {
	for {
		p, err := q.next(0)
		if err != nil {
			return err
		}
		if p == nil {
			if q.drained() {
				return nil
			}
		}
	}
}

func TestMorselQueueClosesSourcesOnExhaustion(t *testing.T) {
	tr := &leakTracker{}
	q := newMorselQueue(4, tr.open)
	for i := 0; i < 6; i++ {
		q.addSplit(leakSplit{i})
	}
	q.noMoreSplits()
	if err := drainQueue(q); err != nil {
		t.Fatal(err)
	}
	if tr.opens != 6 {
		t.Fatalf("opened %d sources, want 6", tr.opens)
	}
	tr.leaked(t)
}

func TestMorselQueueClosesSourcesOnReadError(t *testing.T) {
	tr := &leakTracker{}
	q := newMorselQueue(4, func(s connector.Split) (connector.PageSource, error) {
		src, err := tr.open(s)
		if err != nil {
			return nil, err
		}
		src.(*leakSource).failOn = 2 // one good page, then fail
		return src, nil
	})
	for i := 0; i < 3; i++ {
		q.addSplit(leakSplit{i})
	}
	q.noMoreSplits()
	if err := drainQueue(q); err == nil {
		t.Fatal("expected read error")
	}
	// The task aborts on error: cancel as the driver teardown would.
	q.cancel()
	tr.leaked(t)
}

func TestMorselQueueCancelClosesIdleSources(t *testing.T) {
	tr := &leakTracker{}
	q := newMorselQueue(1, tr.open) // morselRows 1: sources stay open mid-drain
	for i := 0; i < 4; i++ {
		q.addSplit(leakSplit{i})
	}
	q.noMoreSplits()
	// Pull one morsel so at least one source is open (and idle) at cancel.
	if p, err := q.next(0); err != nil || p == nil {
		t.Fatalf("first morsel: %v %v", p, err)
	}
	q.cancel()
	if p, err := q.next(0); p != nil || err != nil {
		t.Fatalf("post-cancel next returned %v %v", p, err)
	}
	tr.leaked(t)
}

func TestMorselQueueCancelRacingBusyRead(t *testing.T) {
	tr := &leakTracker{}
	release := make(chan struct{})
	q := newMorselQueue(4, func(s connector.Split) (connector.PageSource, error) {
		src, err := tr.open(s)
		if err != nil {
			return nil, err
		}
		src.(*leakSource).block = release
		return src, nil
	})
	q.addSplit(leakSplit{0})
	q.noMoreSplits()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Parks inside NextPage with the source marked busy.
		if p, err := q.next(0); p != nil || err != nil {
			t.Errorf("canceled read returned %v %v", p, err)
		}
	}()
	for { // wait until the reader is parked inside NextPage (source busy)
		q.mu.Lock()
		busy := len(q.open) == 1 && q.open[0].busy
		q.mu.Unlock()
		if busy {
			break
		}
		runtime.Gosched()
	}
	q.cancel() // must NOT close the busy source: the reader does, on return
	close(release)
	<-done
	tr.leaked(t)
}

func TestMorselQueueOpenFailureLeaksNothing(t *testing.T) {
	tr := &leakTracker{openErr: errors.New("open failed"), after: 2}
	q := newMorselQueue(4, tr.open)
	for i := 0; i < 5; i++ {
		q.addSplit(leakSplit{i})
	}
	q.noMoreSplits()
	if err := drainQueue(q); err == nil {
		t.Fatal("expected open error")
	}
	q.cancel()
	tr.leaked(t)
}

func TestMorselQueueDropPendingKeepsOpenSources(t *testing.T) {
	tr := &leakTracker{}
	q := newMorselQueue(1, tr.open)
	for i := 0; i < 5; i++ {
		q.addSplit(leakSplit{i})
	}
	q.noMoreSplits()
	if p, err := q.next(0); err != nil || p == nil {
		t.Fatalf("first morsel: %v %v", p, err)
	}
	dropped := q.dropPending()
	if dropped != 4 {
		t.Fatalf("dropped %d pending splits, want 4", dropped)
	}
	// The already-open source keeps draining to completion.
	if err := drainQueue(q); err != nil {
		t.Fatal(err)
	}
	if tr.opens != 1 {
		t.Fatalf("opened %d sources after dropPending, want 1", tr.opens)
	}
	tr.leaked(t)
}
