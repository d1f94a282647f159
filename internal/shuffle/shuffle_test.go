package shuffle

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

func page(vals ...int64) *block.Page {
	return block.NewPage(block.NewLongBlock(vals, nil))
}

func TestPartitionBufferFetchAndAck(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1))
	b.Add(0, page(2))

	pages, next, done, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	if len(pages) != 2 || done {
		t.Fatalf("fetch: %d pages done=%v", len(pages), done)
	}
	// Re-fetching with the same token re-delivers (at-least-once until
	// acknowledged by advancing the token — the long-poll protocol).
	again, _, _, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	if len(again) != 2 {
		t.Errorf("unacknowledged pages should be re-delivered, got %d", len(again))
	}
	// Advancing the token acknowledges; completion arrives after finish.
	b.SetNoMorePages()
	pages, _, done, _ = b.Partition(0).Fetch(next, 0, 10*time.Millisecond)
	if len(pages) != 0 || !done {
		t.Errorf("after ack: %d pages done=%v", len(pages), done)
	}
}

func TestPartitionBufferLongPollWakesOnData(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		b.Add(0, page(7))
	}()
	pages, _, _, _ := b.Partition(0).Fetch(0, 0, 2*time.Second)
	if len(pages) != 1 {
		t.Fatalf("long poll got %d pages", len(pages))
	}
	if time.Since(start) > time.Second {
		t.Error("long poll should wake promptly on data")
	}
}

func TestOutputBufferBackpressure(t *testing.T) {
	b := NewOutputBuffer(1, 100) // tiny capacity
	big := page(make([]int64, 64)...)
	b.Add(0, big)
	if b.CanAdd() {
		t.Error("full buffer should refuse more")
	}
	if b.Utilization() < 1 {
		t.Errorf("utilization: %f", b.Utilization())
	}
	// Consuming (ack) frees space.
	_, next, _, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	b.Partition(0).Fetch(next, 0, 10*time.Millisecond)
	if !b.CanAdd() {
		t.Error("acknowledged buffer should accept again")
	}
}

// Re-fetching with an unadvanced token must return the identical pages in
// the identical order — the idempotency that lets a consumer retry a lost
// response without duplicating or reordering rows (§IV-E2: the server keeps
// data until the client requests the next segment).
func TestPartitionBufferRefetchIdempotent(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1, 2))
	b.Add(0, page(3))

	first, next1, _, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	second, next2, _, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	if next1 != next2 {
		t.Errorf("re-fetch advanced the token: %d vs %d", next1, next2)
	}
	if len(first) != len(second) {
		t.Fatalf("re-fetch page counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("re-fetch page %d is a different page", i)
		}
		if first[i].Col(0).Long(0) != second[i].Col(0).Long(0) {
			t.Errorf("re-fetch page %d content differs", i)
		}
	}
}

// Acknowledging (advancing the token) must free buffer capacity and unblock
// a producer stalled on backpressure.
func TestAckFreesCapacityUnblocksProducer(t *testing.T) {
	b := NewOutputBuffer(1, 100) // tiny capacity
	b.Add(0, page(make([]int64, 64)...))
	if b.CanAdd() {
		t.Fatal("full buffer should refuse more")
	}

	// A producer parked on CanAdd, the way drivers block on the output sink.
	unblocked := make(chan struct{})
	go func() {
		for !b.CanAdd() {
			time.Sleep(time.Millisecond)
		}
		b.Add(0, page(9))
		close(unblocked)
	}()

	// Fetch without ack: data is retained, so capacity must NOT free yet.
	_, next, _, _ := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if b.CanAdd() {
		t.Error("unacknowledged fetch must not free capacity")
	}

	// Advancing the token acknowledges and frees the space.
	b.Partition(0).Fetch(next, 0, 10*time.Millisecond)
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after ack freed capacity")
	}
	if !b.CanAdd() {
		t.Error("buffer should accept pages again after ack")
	}
}

// TestOutputBufferDestroy: a destroy with unread pages fails the stream with
// the producer's error — the finished part of it too: a stream cut short is
// an error, never an end — and pages a winding-down driver adds afterwards
// are dropped.
func TestOutputBufferDestroy(t *testing.T) {
	boom := errors.New("producer blew up")
	for _, finished := range []bool{false, true} {
		b := NewOutputBuffer(2, 1<<20)
		b.Add(0, page(1))
		if finished {
			b.SetNoMorePages()
		}
		b.Destroy(boom)
		b.Add(0, page(2))
		for part := range 2 {
			pages, _, done, err := b.Partition(part).Fetch(0, 0, 10*time.Millisecond)
			if part == 1 && finished {
				// Partition 1 was finished with nothing in it: its reader
				// has the whole stream, so it stays complete.
				if len(pages) != 0 || !done || err != nil {
					t.Errorf("finished empty partition after destroy: %d pages, done=%v, err=%v", len(pages), done, err)
				}
				continue
			}
			if len(pages) != 0 || done || !errors.Is(err, boom) {
				t.Errorf("finished=%v partition %d after destroy: %d pages, done=%v, err=%v; want the producer's error",
					finished, part, len(pages), done, err)
			}
		}
		if b.Utilization() != 0 {
			t.Errorf("finished=%v: a destroyed buffer holds %v of its capacity", finished, b.Utilization())
		}
	}
}

// TestDestroyAfterStreamTakenStaysComplete: once the reader has acknowledged
// every page of a finished stream, a later destroy (the query's teardown)
// leaves it complete.
func TestDestroyAfterStreamTakenStaysComplete(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	b.Add(0, page(1))
	b.SetNoMorePages()
	pages, next, done, err := b.Partition(0).Fetch(0, 0, 10*time.Millisecond)
	if len(pages) != 1 || !done || err != nil {
		t.Fatalf("fetch: %d pages, done=%v, err=%v", len(pages), done, err)
	}
	b.Partition(0).Fetch(next, 0, 10*time.Millisecond) // acknowledge
	b.Destroy(errors.New("aborted at teardown"))
	if pages, _, done, err := b.Partition(0).Fetch(next, 0, 10*time.Millisecond); len(pages) != 0 || !done || err != nil {
		t.Errorf("after destroy: %d pages, done=%v, err=%v; want the complete stream", len(pages), done, err)
	}
}

// TestDestroyWakesParkedFetch: a reader parked in the long-poll returns with
// the producer's error as soon as the buffer is destroyed, not when its wait
// runs out; in process it is a TaskFailedError that unwraps to that error.
func TestDestroyWakesParkedFetch(t *testing.T) {
	boom := errors.New("worker lost")
	b := NewOutputBuffer(1, 1<<20)
	go func() {
		time.Sleep(20 * time.Millisecond)
		b.Destroy(boom)
	}()
	start := time.Now()
	_, _, done, err := (&LocalFetcher{Buf: b.Partition(0)}).Fetch(0, 0, 5*time.Second)
	var failed *TaskFailedError
	if done || !errors.As(err, &failed) || !errors.Is(err, boom) {
		t.Fatalf("parked fetch: done=%v, err=%v; want a TaskFailedError wrapping the producer's error", done, err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("parked fetch returned after %v: the destroy did not wake it", time.Since(start))
	}
}

func TestExchangeClientDrainsAllSources(t *testing.T) {
	b1 := NewOutputBuffer(1, 1<<20)
	b2 := NewOutputBuffer(1, 1<<20)
	b1.Add(0, page(1, 2))
	b2.Add(0, page(3))
	b1.SetNoMorePages()
	b2.SetNoMorePages()

	c := NewExchangeClient([]Fetcher{
		&LocalFetcher{Buf: b1.Partition(0)},
		&LocalFetcher{Buf: b2.Partition(0)},
	}, 1<<20)
	c.Start()
	defer c.Close()

	rows := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, ok, done, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			rows += p.RowCount()
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out draining exchange")
		}
		if !ok {
			time.Sleep(time.Millisecond)
		}
	}
	if rows != 3 {
		t.Errorf("rows: %d", rows)
	}
}

func TestExchangeClientBackpressureBounded(t *testing.T) {
	b := NewOutputBuffer(1, 1<<30)
	// Produce far more than the client's input capacity.
	var producedBytes int64
	for i := 0; i < 200; i++ {
		p := page(make([]int64, 512)...)
		producedBytes += p.SizeBytes()
		b.Add(0, p)
	}
	b.SetNoMorePages()
	capBytes := int64(16 << 10)
	c := NewExchangeClient([]Fetcher{&LocalFetcher{Buf: b.Partition(0)}}, capBytes)
	c.Start()
	defer c.Close()

	time.Sleep(50 * time.Millisecond) // let the fetch loop run without draining
	if got := c.BufferedBytes(); got > capBytes*2 {
		t.Errorf("input buffer exceeded cap: %d > %d", got, capBytes*2)
	}
	// Now drain; everything must arrive.
	rows := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, ok, done, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			rows += p.RowCount()
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain timeout")
		}
		if !ok {
			time.Sleep(time.Millisecond)
		}
	}
	if rows != 200*512 {
		t.Errorf("rows: %d", rows)
	}
}

func TestConcurrentProducersAndConsumer(t *testing.T) {
	b := NewOutputBuffer(1, 1<<20)
	var wg sync.WaitGroup
	const producers, pagesEach = 4, 50
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < pagesEach; j++ {
				b.Add(0, page(int64(j)))
			}
		}()
	}
	go func() {
		wg.Wait()
		b.SetNoMorePages()
	}()
	var token int64
	total := 0
	for {
		pages, next, done, _ := b.Partition(0).Fetch(token, 0, 100*time.Millisecond)
		total += len(pages)
		token = next
		if done {
			break
		}
	}
	if total != producers*pagesEach {
		t.Errorf("pages: %d", total)
	}
}
