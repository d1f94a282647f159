package operators

import (
	"errors"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/spill"
	"repro/internal/types"
)

// bridgeSpill holds the disk-backed state of a spilled hash-join build side.
// It hangs off the JoinBridge so every build and probe driver shares it; its
// fields are guarded by the bridge's mu.
type bridgeSpill struct {
	spilled      bool // build side has been written to disk at least once
	probeStarted bool // a probe page arrived: matched flags are now live
	draining     bool // one probe operator claimed the partition drain
	released     bool // spill files deleted, no further disk activity
	spills       int  // revocation count, for tests and metrics
	err          error

	build, probe spill.Set  // the build and probe rows on disk
	stats        []*OpStats // build-driver stats, for ExecutionNanos
}

// EnableSpill arms the bridge for build-side spilling: when the memory
// manager revokes it, the in-memory table is written to a partitioned spill
// file and further build and probe pages stream to disk, to be re-joined one
// partition at a time on drain. Called at pipeline compile time, before any
// driver runs.
func (b *JoinBridge) EnableSpill(mem *memory.LocalContext, dir string, buildKeys []int, buildKeyTs []types.Type) {
	b.mu.Lock()
	b.mem = mem
	b.keyCols = append([]int(nil), buildKeys...)
	b.keyTs = append([]types.Type(nil), buildKeyTs...)
	b.spl = &bridgeSpill{build: spill.Set{Dir: dir, Label: "joinbuild"}, probe: spill.Set{Dir: dir, Label: "joinprobe"}}
	b.mu.Unlock()
}

// SpillCount reports how many times the build side was revoked to disk.
func (b *JoinBridge) SpillCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spl == nil {
		return 0
	}
	return b.spl.spills
}

// RevocableBytes implements memory.Revocable. The build table stops being
// revocable the moment probing starts: probe drivers hold row references and
// matched flags into it, which a spill would invalidate.
func (b *JoinBridge) RevocableBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	spl := b.spl
	if spl == nil || spl.probeStarted || spl.draining || spl.released || len(b.pages) == 0 {
		return 0
	}
	return b.held()
}

// ExecutionNanos implements memory.Revocable: the pool revokes the cheapest
// (least-progressed) operators first, so sum the build drivers' CPU time.
func (b *JoinBridge) ExecutionNanos() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spl == nil {
		return 0
	}
	var n int64
	for _, s := range b.spl.stats {
		n += s.CPUNanos()
	}
	return n
}

// Revoke implements memory.Revocable: write the in-memory build pages to the
// partitioned spill file and release their reservation.
func (b *JoinBridge) Revoke() (int64, error) {
	b.mu.Lock()
	freed, err := b.revokeSpillLocked()
	b.mu.Unlock()
	if freed > 0 && err == nil {
		b.releaseSpilledBytes()
	}
	return freed, err
}

// revokeSpillLocked moves the build pages to disk. Before the built transition
// that is all there is; after it (and before a probe page) the file is sealed
// for the drain and the index goes back through the ledger too — the drain
// builds each partition its own. The pages go only once on disk: a failed
// write or seal drops the file, the only one, and keeps them here.
func (b *JoinBridge) revokeSpillLocked() (int64, error) {
	spl := b.spl
	if spl == nil || spl.probeStarted || spl.draining || spl.released || len(b.pages) == 0 {
		return 0, nil
	}
	for _, p := range b.pages {
		if err := spillJoinPage(&spl.build, p, b.keyCols); err != nil {
			return 0, err
		}
	}
	if b.built {
		if err := spl.build.Seal(); err != nil {
			return 0, err
		}
		if b.ktab != nil { // no probe reads it: the stats count the partitions'
			b.stats.recordIndex(b.ktab.direct, -1)
		}
	}
	freed := b.held()
	b.dropLocked()
	spl.spilled = true
	spl.spills++
	return freed, nil
}

// syncBuildMem reconciles the pool reservation with what the bridge holds; on
// limit pressure a spill-armed bridge self-spills and retries at (near) zero,
// the same protocol hash aggregation follows.
func (b *JoinBridge) syncBuildMem() error {
	if b.mem == nil {
		return nil
	}
	b.memMu.Lock()
	defer b.memMu.Unlock()
	err := b.mem.SetBytes(b.held())
	if err == nil || b.spl == nil || !errors.Is(err, memory.ErrExceededLimit) {
		return err
	}
	if _, serr := b.Revoke(); serr != nil {
		return serr
	}
	return b.mem.SetBytes(b.held())
}

// release gives back everything the bridge holds once nothing reads it — a
// drained partition's sub-bridge — and lowers the reservation to match.
func (b *JoinBridge) release() {
	b.mu.Lock()
	b.dropLocked()
	b.mu.Unlock()
	_ = b.syncBuildMem() // a lower reservation releases and cannot fail
}

// releaseSpilledBytes shrinks the reservation after a revoke. TryLock only:
// the memMu holder is a builder blocked inside its own reserve attempt — it
// resyncs with the post-revoke byte count as soon as that attempt returns.
func (b *JoinBridge) releaseSpilledBytes() {
	if !b.memMu.TryLock() {
		return
	}
	defer b.memMu.Unlock()
	_ = b.mem.SetBytes(b.held())
}

// spillDrainPending reports whether probe output must come from the
// partitioned disk drain rather than the in-memory table.
func (b *JoinBridge) spillDrainPending() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spl != nil && b.spl.spilled
}

// claimSpillDrain grants the partition drain to exactly one probe operator
// and seals the probe spill file. A cancelled bridge yields no drain: the task
// is already failing.
func (b *JoinBridge) claimSpillDrain() (*bridgeSpill, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spl := b.spl
	if spl == nil || !spl.spilled || spl.draining || spl.released || b.cancelled {
		return nil, false, nil
	}
	if spl.err != nil {
		return nil, false, spl.err
	}
	spl.draining = true
	if err := spl.probe.Seal(); err != nil {
		return nil, false, err
	}
	return spl, true, nil
}

// ReleaseSpill deletes every spill file, gives back what the bridge holds in
// memory — a cancelled bridge's index too — and drops its reservation.
// Idempotent; registered as a task cleanup so abort and success both run it
// after all drivers have stopped.
func (b *JoinBridge) ReleaseSpill() {
	b.mu.Lock()
	spl := b.spl
	if spl == nil || spl.released {
		b.mu.Unlock()
		return
	}
	spl.released = true
	spl.build.Remove()
	spl.probe.Remove()
	b.dropLocked()
	b.mu.Unlock()
	b.mem.Close()
}

// spillJoinPage writes a build or probe page to set, each row to the spill
// partition of its key hash, the hash the exchange routes by
// (hashPartitionPage). A NULL key hashes as the NULL cell and an integral
// DOUBLE as the BIGINT of its value, so build and probe route them
// identically and unmatched-row semantics (LEFT/ANTI/RIGHT/FULL) survive the
// disk detour. The vectors are made, not leased: Revoke runs this on the
// memory pool's goroutine, which holds no driver's arena. Caller holds the
// bridge mu.
func spillJoinPage(set *spill.Set, p *block.Page, keys []int) error {
	var bk batchKeys
	bk.hashKeys(nil, p, keys)
	parts := make([]int, len(bk.hashes))
	for r, h := range bk.hashes {
		parts[r] = spill.Partition(h)
	}
	n := p.RowCount()
	rows, offs := partitionRows(nil, parts, spill.Partitions)
	for part := range spill.Partitions {
		sub := p
		switch rows := rows[offs[part]:offs[part+1]]; len(rows) {
		case 0:
			continue
		case n:
		default:
			sub = p.FilterPositions(rows)
		}
		if err := set.WritePage(part, sub); err != nil {
			return err
		}
	}
	return nil
}

// joinSpillDrain replays a spilled join one partition at a time: rebuild the
// partition's hash table from the build spill file into a private sub-bridge,
// which NOT IN's facts of the whole build go with, stream the partition's
// probe pages through a private lookup operator — the outer one's compiled
// residual, channels and arena with it — and emit its output (including
// per-partition RIGHT/FULL unmatched rows) before moving on. Peak memory is
// one partition's build side plus one output page.
type joinSpillDrain struct {
	o      *LookupJoinOperator
	spl    *bridgeSpill
	part   int
	inner  *LookupJoinOperator
	probes *spill.PartIter
	done   bool
}

// next returns the drain's next output page, or (nil, nil) when fully
// drained.
func (d *joinSpillDrain) next() (*block.Page, error) {
	for {
		if d.done {
			return nil, nil
		}
		if d.inner == nil {
			if d.part >= spill.Partitions {
				d.done = true
				return nil, nil
			}
			if err := d.openPartition(); err != nil {
				return nil, err
			}
		}
		p, err := d.inner.Output()
		if err != nil {
			return nil, err
		}
		if p != nil {
			return p, nil
		}
		if d.probes != nil {
			pp, err := d.probes.Next()
			if err != nil {
				return nil, err
			}
			if pp != nil {
				if err := d.inner.AddInput(pp); err != nil {
					return nil, err
				}
				continue
			}
			d.probes.Close()
			d.probes = nil
			d.inner.Finish()
			continue
		}
		if d.inner.IsFinished() {
			d.inner.bridge.release()
			d.inner = nil
			d.part++
			continue
		}
		return nil, errors.New("join spill drain stalled")
	}
}

// openPartition rebuilds partition d.part's hash table and readies its probe
// stream. The sub-operators reuse the outer operator's context, so the
// rebuilt table is accounted and leased through its ledger — the previous
// partition's sub-bridge gave everything back when it finished (release) —
// and a reserve failure here fails the query: a drain must never itself be
// asked to spill.
func (d *joinSpillDrain) openPartition() error {
	o, spl := d.o, d.spl
	sub := NewJoinBridge()
	o.bridge.mu.Lock()
	sub.nullAware, sub.anyRow, sub.nullKey = o.bridge.nullAware, o.bridge.anyRow, o.bridge.nullKey
	sub.stats = o.bridge.stats // the partition's index is the build's
	o.bridge.mu.Unlock()
	sub.AddBuilder()
	hb := NewHashBuild(o.ctx, sub, o.bridge.keyCols, o.bridge.keyTs)
	builds := spl.build.Pages(d.part)
	defer builds.Close()
	for {
		p, err := builds.Next()
		if err != nil {
			return err
		}
		if p == nil {
			break
		}
		if err := hb.AddInput(p); err != nil {
			return err
		}
	}
	hb.Finish()
	sub.NoMoreBuilders()
	// The outer operator's output path, which never probed in memory: its
	// residual, channels and arena, and an idle cursor.
	d.inner = &LookupJoinOperator{joinOutput: o.joinOutput, ctx: o.ctx, bridge: sub, probeKeys: o.probeKeys}
	sub.AddProbe()
	sub.NoMoreProbes()
	d.probes = spl.probe.Pages(d.part)
	return nil
}

func (d *joinSpillDrain) close() {
	if d.probes != nil {
		d.probes.Close()
		d.probes = nil
	}
}
