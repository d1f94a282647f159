package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. One "op" span per statement is the root; the others are its
// children and carry the same op id. The plan.* spans time the benchmark's
// own calls into the parser, analyzer and optimizer on the statement's text
// (an outside replay of what the coordinator does on a plan-cache miss);
// execute, first_page and drain split the statement's latency.
const (
	spanOp        = "op"
	spanParse     = "plan.parse"
	spanAnalyze   = "plan.analyze"
	spanOptimize  = "plan.optimize"
	spanFragment  = "plan.fragment"
	spanExecute   = "execute"
	spanFirstPage = "first_page"
	spanDrain     = "drain"
)

type span struct {
	name       string
	op         int64
	client     int
	start, end time.Time
	args       map[string]interface{}
}

// tracer keeps spans in memory and writes them once, when the workload ends.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextOp int64
}

func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per op id, the root span's duration minus the part of
// it its child spans cover (children of one op do not overlap).
func (t *tracer) selfTimes() map[int64]time.Duration {
	self := map[int64]time.Duration{}
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		if s.name == spanOp {
			self[s.op] += d
		} else {
			self[s.op] -= d
		}
	}
	return self
}

// write emits the spans in Chrome trace-event format (load in
// chrome://tracing or Perfetto): one complete ("X") event per span, one
// track per client, the op id and its counters in args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	origin := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]interface{}{"op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		if s.name == spanOp {
			args["self_us"] = float64(self[s.op]) / float64(time.Microsecond)
		} else {
			args["parent"] = spanOp
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.client, Args: args,
			Ts:  float64(s.start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]interface{}{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
