package coordinator

import (
	"errors"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/shuffle"
	"repro/internal/types"
)

type connectorColumn = connector.Column

func toConnectorCols(cs []connectorColumn) []connector.Column { return cs }

// Result streams query output to the client. Pages become available as the
// root stage produces them, so clients see initial rows before the query
// completes (paper §III).
type Result struct {
	Columns []string
	// QueryID names the tracked query behind this result ("" for DDL and
	// other literal results), for the /v1/query/{id}/stats endpoint.
	QueryID string

	mu      sync.Mutex
	buf     shuffle.Fetcher // nil for literal results, and once finished
	token   int64
	pages   []*block.Page // literal results / readahead
	pos     int
	done    bool // every page is in pages: literal results are done at birth
	drained bool // clean end of stream delivered to the client
	err     error
	rows    int64
	onClose func(error)
	// tee observes every page as the client drains it (result-cache
	// capture); called with r.mu held, must not block.
	tee    func(*block.Page)
	closed bool

	// failure is the query's first failure: posted by the task monitor, by
	// a cancel, or by the root read, which a failed or aborted root task
	// fails with its error (it never ends early).
	failMu  sync.Mutex
	failure error
}

// literalResult wraps immediate (DDL/EXPLAIN) output.
func literalResult(columns []string, rows [][]types.Value) *Result {
	r := &Result{Columns: columns, done: true}
	if len(rows) > 0 {
		ts := make([]types.Type, len(columns))
		for i := range ts {
			ts[i] = rows[0][i].T
			if ts[i] == types.Unknown {
				ts[i] = types.Varchar
			}
		}
		b := block.NewPageBuilder(ts)
		for _, row := range rows {
			b.AppendRow(row)
		}
		r.pages = []*block.Page{b.Build()}
	}
	return r
}

// setFailure records an asynchronous task failure.
func (r *Result) setFailure(err error) {
	r.failMu.Lock()
	if r.failure == nil {
		r.failure = err
	}
	r.failMu.Unlock()
}

func (r *Result) takeFailure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failure
}

// NextPage returns the next result page, or (nil, nil) at end of stream.
func (r *Result) NextPage() (*block.Page, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, r.err // the terminal result: what the stream ended with
		}
		if err := r.takeFailure(); err != nil {
			r.err = err
			r.finishLocked()
			return nil, err
		}
		if r.pos < len(r.pages) {
			p := r.pages[r.pos]
			r.pos++
			r.rows += int64(p.RowCount())
			if r.tee != nil {
				r.tee(p)
			}
			return p, nil
		}
		if r.done {
			r.drained = true
			r.finishLocked()
			return nil, nil
		}
		// Long-poll the root task's output buffer.
		pages, next, complete, err := r.buf.Fetch(r.token, 4<<20, 100*time.Millisecond)
		var failed *shuffle.TaskFailedError
		if errors.As(err, &failed) {
			err = failed.Err // the query fails with what its root task did
		}
		if err != nil {
			r.setFailure(err)
			continue
		}
		r.token = next
		if len(pages) > 0 {
			r.pages = pages
			r.pos = 0
		}
		if complete {
			r.done = true
		}
	}
}

// Ready reports whether NextPage would return now without fetching: a page
// of the last fetch is still buffered, that fetch reported the stream
// complete, the result is closed, or a failure is posted. It neither fetches
// nor waits: a result another caller is fetching for is not ready.
func (r *Result) Ready() bool {
	if !r.mu.TryLock() {
		return false
	}
	defer r.mu.Unlock()
	return r.closed || r.pos < len(r.pages) || r.done || r.takeFailure() != nil
}

// finishLocked ends the result, once. It drops what reaches the query's
// tasks — the fetcher (the root task's output buffer, whose notify hook holds
// the task) and the capture tee — so that a finished query
// the coordinator still remembers pins none of its compiled pipelines or join
// tables; its stats live on in the Query.
func (r *Result) finishLocked() {
	if r.closed {
		return
	}
	r.closed = true
	r.buf, r.tee, r.pages = nil, nil, nil
	if r.onClose != nil {
		r.onClose(r.err)
		r.onClose = nil // it holds the plan and the capture; it runs once
	}
}

// Close abandons the result (cancelling the query if still running). A
// concurrent NextPage may hold r.mu through its 100ms long-poll loop for the
// life of the query, so Close first posts the cancellation on the failure
// channel — which NextPage checks between polls — and only then takes r.mu.
// Without that, DELETE /v1/statement/{id} would block behind an in-flight
// fetch until the query produced data or finished.
func (r *Result) Close() {
	r.setFailure(ErrCancelled)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed && !r.done && r.err == nil {
		// Client abandoned a running query: cancel it.
		r.err = ErrCancelled
	}
	r.finishLocked()
}

// ErrCancelled reports client-side cancellation.
var ErrCancelled = errCancelled{}

type errCancelled struct{}

func (errCancelled) Error() string { return "query cancelled by client" }

// All drains the result into rows (convenience for tests and examples).
func (r *Result) All() ([][]types.Value, error) {
	var out [][]types.Value
	for {
		p, err := r.NextPage()
		if err != nil {
			return out, err
		}
		if p == nil {
			return out, nil
		}
		for i := 0; i < p.RowCount(); i++ {
			out = append(out, p.Row(i))
		}
	}
}

// RowCount reports rows delivered so far.
func (r *Result) RowCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}
