// Package wire serializes plan fragments and the task-protocol
// request/response bodies exchanged between the coordinator and remote
// workers (paper §III: the coordinator distributes serialized plan fragments
// to workers over HTTP). JSON keeps the control plane debuggable; the data
// plane (pages) uses the binary codec in internal/block.
//
// A fragment is its own wire form (codec.go): the exported fields of the plan
// and expression structs by name, each plan.Node and expr.Expr tagged with its
// kind, so a field added to a node or an expression needs no edit here — a new
// node or expression type needs its kind in the registry. Decoding checks each
// enum field's Valid method, that every child not tagged wire:"optional" is
// there, and plan.Fragment.Validate's column indices.
package wire

import (
	"encoding/json"

	"repro/internal/exec"
)

// CreateRequest is the body of POST /v1/query/{qid}/tasks: every task of one
// statement placed on one worker. A fragment is serialized once however many
// of its tasks run there, the task configuration once for the statement, and
// Splits carries what split enumeration already had in hand at placement
// (sequence 0 of its scan, replay-safe like any later batch).
type CreateRequest struct {
	Config exec.TaskConfig `json:"config"`
	// Fragments are MarshalFragment documents; a TaskSpec names one by id.
	Fragments []json.RawMessage `json:"fragments"`
	Tasks     []TaskSpec        `json:"tasks"`
	Splits    []SplitEntry      `json:"splits,omitempty"`
}

// TaskSpec is one task of a CreateRequest.
type TaskSpec struct {
	Fragment int `json:"fragment"`
	Index    int `json:"index"`
	// OutPartitions sizes the task's partitioned output buffer.
	OutPartitions int `json:"outPartitions"`
	// Sources lists, per producing fragment id, the result URIs this task
	// fetches through HTTPFetcher ("<worker>/v1/task/<tid>/results/<part>").
	// A URI is a function of the producer's id and worker, so it may name a
	// task that does not exist yet.
	Sources []SourceEntry `json:"sources,omitempty"`
	// Relay lists the dynamic-filter ids whose summaries the task reports in
	// its worker's status channel: those a fragment other than its own
	// subscribes to. The rest stay with the task, whose own scans use them.
	Relay []int `json:"relay,omitempty"`
}

// SourceEntry wires one RemoteSource fragment to its producers' result URIs.
type SourceEntry struct {
	Fragment int      `json:"fragment"`
	URIs     []string `json:"uris"`
}

// SplitsRequest is the body of POST /v1/query/{qid}/splits: the split batches
// of lazy enumeration (§IV-D3) for every task of the statement on one worker.
type SplitsRequest struct {
	Entries []SplitEntry `json:"entries"`
}

// SplitEntry is one batch for one scan of one task. Seq makes delivery
// idempotent: the worker applies a batch only when Seq is the next expected
// for (task, scan), so transport retries cannot duplicate splits.
type SplitEntry struct {
	Fragment int         `json:"fragment"`
	Index    int         `json:"index"`
	Scan     int         `json:"scan"`
	Seq      int64       `json:"seq"`
	Splits   []SplitData `json:"splits,omitempty"`
	NoMore   bool        `json:"noMore,omitempty"`
}

// SplitData is one split encoded by its connector's SplitCodec.
type SplitData struct {
	Catalog string `json:"catalog"`
	Data    []byte `json:"data"`
}

// QueryStatus is the body of GET /v1/query/{qid}/status?version=N: the events
// of one statement on one worker numbered From (= N, or the log's length if
// that is less) onwards; the coordinator asks next for From + len(Events).
// The log only grows, so asking for N again serves the same events again.
type QueryStatus struct {
	From   int64         `json:"from"`
	Events []StatusEvent `json:"events,omitempty"`
}

// StatusEvent is one thing a task did that the coordinator acts on: it reached
// a terminal state (State set), or its join builds published dynamic-filter
// summaries (FilterIDs set; Filters are dynfilter.AppendSummary frames).
type StatusEvent struct {
	Fragment int    `json:"fragment"`
	Index    int    `json:"index"`
	State    string `json:"state,omitempty"` // "finished" | "failed"
	Error    string `json:"error,omitempty"`
	// Transient marks a failed task's error as retryable.
	Transient bool     `json:"transient,omitempty"`
	CPUNanos  int64    `json:"cpuNanos,omitempty"`
	FilterIDs []int    `json:"filterIds,omitempty"`
	Filters   [][]byte `json:"filters,omitempty"`
}

// FiltersRequest is the body of POST /v1/query/{qid}/filters: completed
// unions for the statement's tasks on one worker.
type FiltersRequest struct {
	Filters []FilterDelivery `json:"filters"`
}

// FilterDelivery is one union (a dynfilter.AppendSummary frame) and the
// fragments whose tasks subscribe to it.
type FilterDelivery struct {
	ID        int    `json:"id"`
	Summary   []byte `json:"summary"`
	Fragments []int  `json:"fragments"`
}

// RegisterRequest is the body of POST /v1/node (worker registration and
// heartbeat).
type RegisterRequest struct {
	URI string `json:"uri"`
}

// RegisterResponse returns the worker's cluster node id.
type RegisterResponse struct {
	ID int `json:"id"`
}
