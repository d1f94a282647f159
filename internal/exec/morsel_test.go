package exec

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
)

// fakePageSource replays a fixed page list.
type fakePageSource struct {
	pages  []*block.Page
	pos    int
	closed bool
}

func (f *fakePageSource) NextPage() (*block.Page, error) {
	if f.pos >= len(f.pages) {
		return nil, nil
	}
	p := f.pages[f.pos]
	f.pos++
	return p, nil
}
func (f *fakePageSource) BytesRead() int64 { return 0 }
func (f *fakePageSource) Close()           { f.closed = true }

// fakeSplit is a minimal split carrying an id into the open function.
type fakeSplit struct{ id int }

func (fakeSplit) Connector() string     { return "mem" }
func (fakeSplit) PreferredNodes() []int { return nil }
func (fakeSplit) EstimatedRows() int64  { return 1 }

func longPage(n int, base int64) *block.Page {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = base + int64(i)
	}
	return block.NewPage(block.NewLongBlock(vals, nil))
}

// drainDriver pulls morsels for one driver until the queue drains, returning
// the total row count seen and the morsel sizes.
func drainDriver(t *testing.T, q *morselQueue, driver int) (rows int, sizes []int) {
	t.Helper()
	for {
		p, err := q.next(driver)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			if q.drained() {
				return rows, sizes
			}
			if q.starved() {
				t.Fatal("queue starved with a single consumer: nothing can unblock it")
			}
			continue
		}
		rows += p.RowCount()
		sizes = append(sizes, p.RowCount())
	}
}

// TestMorselQueueStealsSiblingSplits: the queue is one FIFO, so any one
// driver drains every split — a sibling that never runs takes none with it —
// and split completion is counted at source exhaustion.
func TestMorselQueueStealsSiblingSplits(t *testing.T) {
	for driver := range 2 {
		opened := 0
		q := newMorselQueue(1024, func(s connector.Split) (connector.PageSource, error) {
			opened++
			return &fakePageSource{pages: []*block.Page{longPage(100, int64(s.(fakeSplit).id)*1000)}}, nil
		})
		if q.claimDriver() != 0 || q.claimDriver() != 1 {
			t.Fatal("driver ids are not handed out in order")
		}
		for i := 0; i < 4; i++ {
			q.addSplit(fakeSplit{id: i})
		}
		q.noMoreSplits()

		rows, _ := drainDriver(t, q, driver)
		if rows != 400 {
			t.Errorf("driver %d: rows = %d, want 400 (one driver drains every split)", driver, rows)
		}
		if opened != 4 {
			t.Errorf("driver %d: opened %d sources, want 4", driver, opened)
		}
		if _, _, done := q.splitStats(); done != 4 {
			t.Errorf("driver %d: done splits = %d, want 4", driver, done)
		}
		if !q.drained() {
			t.Errorf("driver %d: queue should be drained", driver)
		}
	}
}

// TestMorselQueueSlicesOversizedPages feeds one split whose single page far
// exceeds the morsel size: the queue must hand it out in morsel-sized runs.
func TestMorselQueueSlicesOversizedPages(t *testing.T) {
	q := newMorselQueue(10, func(connector.Split) (connector.PageSource, error) {
		return &fakePageSource{pages: []*block.Page{longPage(35, 0)}}, nil
	})
	q.addSplit(fakeSplit{})
	q.noMoreSplits()

	rows, sizes := drainDriver(t, q, 0)
	if rows != 35 {
		t.Errorf("rows = %d, want 35", rows)
	}
	if len(sizes) != 4 {
		t.Errorf("morsels = %v, want 4 slices of an oversized page", sizes)
	}
	for _, s := range sizes {
		if s > 10 {
			t.Errorf("morsel of %d rows exceeds the 10-row cap", s)
		}
	}
}

// TestMorselQueueSharesGiantSplit runs two concurrent consumers against a
// single split of many pages: both drivers must receive work (the whole point
// of morsel scheduling — one oversized split fans out across drivers).
func TestMorselQueueSharesGiantSplit(t *testing.T) {
	var pages []*block.Page
	for i := 0; i < 64; i++ {
		pages = append(pages, longPage(50, int64(i)*100))
	}
	q := newMorselQueue(1024, func(connector.Split) (connector.PageSource, error) {
		return &fakePageSource{pages: pages}, nil
	})
	q.addSplit(fakeSplit{})
	q.noMoreSplits()

	// Alternate pulls between the two drivers from one thread, so the
	// interleaving is deterministic: every driver must be served pages of
	// the single shared split.
	perDriver := map[int]int{}
	for d := 0; !q.drained(); d = 1 - d {
		p, err := q.next(d)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			perDriver[d] += p.RowCount()
		}
	}
	if total := perDriver[0] + perDriver[1]; total != 64*50 {
		t.Fatalf("total rows = %d, want %d", total, 64*50)
	}
	if perDriver[0] == 0 || perDriver[1] == 0 {
		t.Errorf("one driver starved on a shared split: %v", perDriver)
	}
}

// TestMorselQueueCancelClosesSources checks cancellation: open sources are
// closed, pending splits dropped, and consumers observe the drained state.
func TestMorselQueueCancelClosesSources(t *testing.T) {
	src := &fakePageSource{pages: []*block.Page{longPage(10, 0), longPage(10, 10)}}
	q := newMorselQueue(1024, func(connector.Split) (connector.PageSource, error) {
		return src, nil
	})
	q.addSplit(fakeSplit{})
	q.addSplit(fakeSplit{id: 1})

	// Pull one morsel so the first split's source is open.
	p, err := q.next(0)
	if err != nil || p == nil {
		t.Fatalf("first morsel: %v %v", p, err)
	}
	q.cancel()
	if !src.closed {
		t.Error("cancel should close open sources")
	}
	if !q.drained() {
		t.Error("canceled queue should report drained")
	}
	if p, err := q.next(0); p != nil || err != nil {
		t.Errorf("next after cancel = (%v, %v), want (nil, nil)", p, err)
	}
}

// TestMorselQueueOpenErrorPropagates surfaces split-open failures to the
// pulling driver rather than wedging the queue.
func TestMorselQueueOpenErrorPropagates(t *testing.T) {
	q := newMorselQueue(1024, func(connector.Split) (connector.PageSource, error) {
		return nil, errors.New("open failed")
	})
	q.addSplit(fakeSplit{})
	q.noMoreSplits()
	if _, err := q.next(0); err == nil {
		t.Fatal("open error should propagate to the consumer")
	}
}

// heldPageSource holds its first NextPage until released, then returns one
// page; it is exhausted after that.
type heldPageSource struct {
	entered, release chan struct{}
	served           bool
}

func (h *heldPageSource) NextPage() (*block.Page, error) {
	if h.served {
		return nil, nil
	}
	h.served = true
	close(h.entered)
	<-h.release
	return longPage(10, 0), nil
}
func (h *heldPageSource) BytesRead() int64 { return 0 }
func (h *heldPageSource) Close()           {}

// TestStarvedQueueWakesWhenSourceFreed: a driver is parked on a queue whose
// only source a sibling holds busy (its scan's IsBlocked is starved()). The
// sibling freeing the source must fire onReady, the Kick that is the parked
// driver's only way back.
func TestStarvedQueueWakesWhenSourceFreed(t *testing.T) {
	src := &heldPageSource{entered: make(chan struct{}), release: make(chan struct{})}
	q := newMorselQueue(1024, func(connector.Split) (connector.PageSource, error) {
		return src, nil
	})
	var ready atomic.Int64
	q.onReady = func() { ready.Add(1) }
	q.addSplit(fakeSplit{})

	got := make(chan *block.Page, 1)
	go func() {
		p, err := q.next(0)
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()
	<-src.entered // the source is busy under driver 0
	if !q.starved() {
		t.Fatal("driver 1 is not starved while the only source is busy")
	}
	before := ready.Load()
	close(src.release)
	if p := <-got; p == nil || p.RowCount() != 10 {
		t.Fatalf("driver 0 got %v, want its 10-row page", p)
	}
	if ready.Load() == before {
		t.Fatal("freeing the busy source fired no onReady: a driver parked as starved is never woken")
	}
}
