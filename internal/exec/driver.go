// Package exec implements local query execution (paper §IV-E, §IV-F1): the
// driver loop that moves pages between the operators of a pipeline, tasks
// that host the pipelines of one plan fragment, and the cooperative
// multi-tasking executor with a multi-level feedback queue that shares
// worker threads among the splits of many concurrent queries.
package exec

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/memory"
	"repro/internal/operators"
)

// Driver executes one pipeline instance: a chain of operators processing one
// split (or one exchange stream). The driver loop is more complex than the
// Volcano pull model but supports cooperative multitasking: operators are
// brought to a known state before yielding, and every iteration moves data
// between all operator pairs that can make progress (§IV-E1).
type Driver struct {
	ops            []operators.Operator
	finishSignaled []bool
	finished       bool
	failed         error

	// cpuNanos accumulates execution time for MLFQ level selection.
	cpuNanos int64
	// blockedNanos accumulates time parked off-thread between Process calls
	// that ended without progress.
	blockedNanos int64

	// Per-operator instrumentation (paper §VII), parallel to ops. Timing is
	// attributed at iterate-pass granularity — two clock samples per pass,
	// never per page. Entries may be nil when the driver was built without
	// stats (tests).
	stats    []*operators.OpStats
	mems     []*memory.LocalContext
	lastHeld []int64
	touched  []bool

	startedAt    time.Time
	yieldedAt    time.Time // set when yielding without progress
	yieldBlocker int       // op index blamed for the park, -1 if starved
	wallRecorded bool
}

// NewDriver creates a driver over the operator chain (source first, sink
// last).
func NewDriver(ops []operators.Operator) *Driver {
	return &Driver{ops: ops, finishSignaled: make([]bool, len(ops))}
}

// WithStats attaches per-operator contexts (parallel to the operator chain)
// so the driver loop can attribute execution time, blocked time, and memory
// to each operator. Entries may be nil.
func (d *Driver) WithStats(ctxs []*operators.OpContext) *Driver {
	d.stats = make([]*operators.OpStats, len(d.ops))
	d.mems = make([]*memory.LocalContext, len(d.ops))
	d.lastHeld = make([]int64, len(d.ops))
	d.touched = make([]bool, len(d.ops))
	for i, c := range ctxs {
		if i >= len(d.ops) || c == nil {
			continue
		}
		d.stats[i] = c.Stats
		d.mems[i] = c.Mem
	}
	return d
}

// CPUNanos returns accumulated processing time.
func (d *Driver) CPUNanos() int64 { return d.cpuNanos }

// BlockedNanos returns accumulated off-thread parked time.
func (d *Driver) BlockedNanos() int64 { return d.blockedNanos }

// Finished reports driver completion.
func (d *Driver) Finished() bool { return d.finished }

// Err returns the failure, if any.
func (d *Driver) Err() error { return d.failed }

// Blocked reports whether no operator can currently make progress because
// one is waiting on an external event.
func (d *Driver) Blocked() bool {
	if d.finished {
		return false
	}
	for _, op := range d.ops {
		if op.IsBlocked() {
			return true
		}
	}
	return false
}

// Process runs the driver loop for up to quanta, returning whether it made
// progress. The driver yields early when blocked or when the quanta expires
// (the yield signal of §IV-F1).
func (d *Driver) Process(quanta time.Duration) (progress bool, err error) {
	if d.finished {
		return false, d.failed
	}
	start := time.Now()
	if d.startedAt.IsZero() {
		d.startedAt = start
	}
	// Time spent parked since the last fruitless yield is blocked time,
	// charged to the operator that was blocking then.
	if !d.yieldedAt.IsZero() {
		gap := start.Sub(d.yieldedAt).Nanoseconds()
		d.blockedNanos += gap
		if d.yieldBlocker >= 0 && d.stats != nil && d.stats[d.yieldBlocker] != nil {
			d.stats[d.yieldBlocker].AddBlocked(gap)
		}
		d.yieldedAt = time.Time{}
	}
	last := start
	defer func() {
		d.cpuNanos += time.Since(start).Nanoseconds()
	}()

	for {
		moved := d.step()
		now := time.Now()
		d.attribute(now.Sub(last).Nanoseconds())
		last = now
		d.sampleMem()
		if d.failed != nil {
			d.finishDriver(now)
			return progress, d.failed
		}
		if moved {
			progress = true
		}
		// Completion: the sink is finished.
		if d.ops[len(d.ops)-1].IsFinished() {
			d.finishDriver(now)
			return progress, nil
		}
		if !moved {
			// Blocked or starved: yield. Note the blocking operator (if
			// any) so the park shows up as its blocked time.
			d.yieldedAt = now
			d.yieldBlocker = d.blockerIndex()
			return progress, nil
		}
		if now.Sub(start) >= quanta {
			return progress, nil // quanta expired: yield
		}
	}
}

// blockerIndex returns the first blocked operator's index, or -1 when the
// driver is merely starved (nothing blocked, nothing to move).
func (d *Driver) blockerIndex() int {
	for i, op := range d.ops {
		if op.IsBlocked() {
			return i
		}
	}
	return -1
}

// attribute splits one iterate pass's elapsed time evenly among the
// operators that moved data during the pass.
func (d *Driver) attribute(passNanos int64) {
	if d.stats == nil {
		return
	}
	n := 0
	for _, t := range d.touched {
		if t {
			n++
		}
	}
	var share int64
	if n > 0 && passNanos > 0 {
		share = passNanos / int64(n)
	}
	for i, t := range d.touched {
		d.touched[i] = false
		if t && share > 0 && d.stats[i] != nil {
			d.stats[i].AddCPU(share)
		}
	}
}

// sampleMem folds each operator's current memory reservation into its
// shared stats (delta since the last sample, maintaining the peak).
func (d *Driver) sampleMem() {
	for i, m := range d.mems {
		if m == nil || d.stats[i] == nil {
			continue
		}
		cur := m.Held()
		if cur != d.lastHeld[i] {
			d.stats[i].AdjustMem(cur - d.lastHeld[i])
			d.lastHeld[i] = cur
		}
	}
}

// finishDriver completes the driver — finished, failed or panicked: closes
// operators, takes a final memory sample (operators release on Close), and
// records the driver's lifetime as wall time on every operator of the
// pipeline. It is also the one place scratch goes back to the pool: the
// arenas of the driver's operators are released here, on the goroutine that
// ran the driver's last step, after which nothing runs the operators again.
func (d *Driver) finishDriver(now time.Time) {
	d.finished = true
	for _, op := range d.ops {
		op.Close()
	}
	for _, op := range d.ops {
		if s, ok := op.(operators.ScratchHolder); ok {
			s.Scratch().Release()
		}
	}
	d.sampleMem()
	if d.stats != nil && !d.wallRecorded {
		d.wallRecorded = true
		wall := now.Sub(d.startedAt).Nanoseconds()
		for _, s := range d.stats {
			if s != nil {
				s.AddWall(wall)
			}
		}
	}
}

// touch marks an operator as having moved data this pass (timing is
// attributed to touched operators).
func (d *Driver) touch(i int) {
	if d.touched != nil {
		d.touched[i] = true
	}
}

// tailSink is a sink told when its pipeline's source has finished, so that
// every page still to reach it drains from operator state
// (operators.PartitionedOutputOperator).
type tailSink interface{ Tail() }

// step is one iterate pass, and the engine's one recover: a panic under an
// operator — a block of an encoding a type switch does not know, an index out
// of range — fails this driver, and through it its query, with the panic and
// its stack as the error, instead of taking down the process and every query
// on it. The executor thread goes on to the next driver; the failed driver's
// operators are closed as after any error (finishDriver), so an operator must
// not hold a lock across code that can panic other than by defer.
func (d *Driver) step() (moved bool) {
	defer func() {
		if r := recover(); r != nil {
			d.failed = fmt.Errorf("operator panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return d.iterate()
}

// iterate makes one pass over adjacent operator pairs, moving at most one
// page between each pair that can make progress.
func (d *Driver) iterate() bool {
	moved := false
	for i := 0; i < len(d.ops)-1; i++ {
		up, down := d.ops[i], d.ops[i+1]
		if down.IsFinished() {
			// Downstream gave up (e.g. limit satisfied): finish upstream.
			if !d.finishSignaled[i] && !up.IsFinished() {
				up.Finish()
				d.finishSignaled[i] = true
				d.touch(i)
				moved = true
			}
			continue
		}
		if down.NeedsInput() && !up.IsBlocked() {
			p, err := up.Output()
			if err != nil {
				d.failed = err
				return moved
			}
			if p != nil && p.RowCount() > 0 {
				if err := down.AddInput(p); err != nil {
					d.failed = err
					return moved
				}
				d.touch(i)
				d.touch(i + 1)
				moved = true
				continue
			}
		}
		if up.IsFinished() {
			// Drain any remaining output before finishing downstream.
			if down.NeedsInput() {
				p, err := up.Output()
				if err != nil {
					d.failed = err
					return moved
				}
				if p != nil && p.RowCount() > 0 {
					if err := down.AddInput(p); err != nil {
						d.failed = err
						return moved
					}
					d.touch(i)
					d.touch(i + 1)
					moved = true
					continue
				}
			}
			if !d.finishSignaled[i+1] && !down.IsFinished() {
				down.Finish()
				d.finishSignaled[i+1] = true
				d.touch(i + 1)
				moved = true
				if sink, ok := d.ops[len(d.ops)-1].(tailSink); ok && i == 0 && len(d.ops) > 2 {
					sink.Tail() // the source is done: what follows drains
				}
			}
		}
	}
	return moved
}
