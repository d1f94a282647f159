package shuffle

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/block"
)

// Wire protocol headers for the HTTP shuffle (paper §IV-E2: workers pull
// shuffle data from upstream tasks over HTTP long-poll with an acknowledged
// token). The next-token header acknowledges everything before it; the
// producer retains pages until the consumer advances the token, so any
// request may be reissued verbatim.
const (
	// HeaderNextToken carries the token the consumer should request next.
	HeaderNextToken = "X-Presto-Next-Token"
	// HeaderComplete is "true" once the producer buffer is drained and
	// finished.
	HeaderComplete = "X-Presto-Buffer-Complete"
	// HeaderTaskFailed marks a results response from a failed task; the body
	// is the error message and the fetch error is terminal, not transient.
	HeaderTaskFailed = "X-Presto-Task-Failed"
)

// TransportError is a fetch failure at the transport layer: connection
// errors, malformed frames, unexpected statuses. It is transient — the token
// protocol makes retrying safe — so the ExchangeClient retry policy and the
// coordinator's task-API client both treat it as recoverable.
type TransportError struct {
	Op  string
	Err error
}

func (e *TransportError) Error() string { return "shuffle transport: " + e.Op + ": " + e.Err.Error() }

// Unwrap exposes the cause.
func (e *TransportError) Unwrap() error { return e.Err }

// Transient reports that retrying is safe (see faultinject.IsTransient).
func (e *TransportError) Transient() bool { return true }

// TaskFailedError is a terminal fetch failure: the producing task itself
// failed, so retrying the fetch cannot help.
type TaskFailedError struct{ Msg string }

func (e *TaskFailedError) Error() string { return "producer task failed: " + e.Msg }

// clusterIdleConnsPerHost is how many connections a node keeps open to one
// peer: one per fetch its exchange clients can have in flight there — a
// consumer task polls each of its producers at once, so (consumers here) ×
// (producers there), 16 for the widest plan the suite runs on two workers —
// times a few concurrent statements, plus each statement's control channel.
// http.DefaultTransport keeps 2, and redials the rest every statement.
const clusterIdleConnsPerHost = 64

// NewClusterClient returns an HTTP client for node-to-node traffic: the
// coordinator's task API requests and every worker's shuffle fetches. Its
// transport keeps a statement's worth of connections per peer and looks up
// no proxy (peers are named by address).
func NewClusterClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * clusterIdleConnsPerHost,
		MaxIdleConnsPerHost: clusterIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// ClusterClient is the process-wide client every nil client field defaults
// to (Config.WorkerClient, WorkerServer.Client, HTTPFetcher.Client), so they
// share one connection pool.
var ClusterClient = sync.OnceValue(NewClusterClient)

// HTTPFetcher implements Fetcher over the worker task-results endpoint. URL
// is the result stream base, ".../v1/task/{id}/results/{partition}"; Fetch
// appends "/{token}". The zero Client uses ClusterClient; distributed
// queries share one client so connections pool across fetchers.
type HTTPFetcher struct {
	Client *http.Client
	URL    string
}

// Fetch implements Fetcher: one long-poll GET per call, returning the frames
// decoded from the body plus the token protocol state from the headers.
func (f *HTTPFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	url := fmt.Sprintf("%s/%d?maxBytes=%d&waitMs=%d", f.URL, token, maxBytes, wait.Milliseconds())
	client := f.Client
	if client == nil {
		client = ClusterClient()
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, token, false, &TransportError{Op: "get", Err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.Header.Get(HeaderTaskFailed) != "" {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
		return nil, token, false, &TaskFailedError{Msg: string(msg)}
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, token, false, &TransportError{
			Op:  "get",
			Err: fmt.Errorf("status %d: %s", resp.StatusCode, body),
		}
	}
	next, err := strconv.ParseInt(resp.Header.Get(HeaderNextToken), 10, 64)
	if err != nil {
		return nil, token, false, &TransportError{Op: "parse next token", Err: err}
	}
	done := resp.Header.Get(HeaderComplete) == "true"

	var pages []*block.Page
	pr := block.NewPageReader(resp.Body)
	for {
		p, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Truncated or corrupted body: the token was not advanced
			// locally, so the retry re-requests the same pages.
			return nil, token, false, &TransportError{Op: "decode page", Err: err}
		}
		pages = append(pages, p)
	}
	return pages, next, done, nil
}
