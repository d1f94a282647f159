package operators

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/spill"
	"repro/internal/types"
)

// spillJoinPartitions is the grace-join fan-out: build and probe rows are
// partitioned by key hash into this many buckets, and the drain replays one
// bucket at a time, bounding peak memory to roughly build-side/16 (§IV-F2).
const spillJoinPartitions = 16

// bridgeSpill holds the disk-backed state of a spilled hash-join build side.
// It hangs off the JoinBridge so every build and probe driver shares it; its
// fields are guarded by the bridge's mu.
type bridgeSpill struct {
	dir string

	spilled      bool // build side has been written to disk at least once
	probeStarted bool // a probe page arrived: matched flags are now live
	draining     bool // one probe operator claimed the partition drain
	released     bool // spill files deleted, no further disk activity
	spills       int  // revocation count, for tests and metrics
	err          error

	buildW     *spill.Writer
	probeW     *spill.Writer
	buildFiles []string
	probeFiles []string
	stats      []*OpStats // build-driver stats, for ExecutionNanos
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
	b.spl = &bridgeSpill{dir: dir}
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
	if err == nil && b.built && b.spl != nil && b.spl.spilled {
		// Revoked after the build completed (but before any probe arrived):
		// seal the file now so the drain reads a complete image.
		err = b.spl.finishBuild()
	}
	b.mu.Unlock()
	if freed > 0 && err == nil {
		b.releaseSpilledBytes()
	}
	return freed, err
}

// revokeSpillLocked moves the build pages to disk. Before the built transition
// that is all there is; after it (and before a probe page) the index over them
// goes back through the ledger too — the drain builds each partition its own.
func (b *JoinBridge) revokeSpillLocked() (int64, error) {
	spl := b.spl
	if spl == nil || spl.probeStarted || spl.draining || spl.released || len(b.pages) == 0 {
		return 0, nil
	}
	for _, p := range b.pages {
		if err := spl.writeBuildPage(p, b.keyCols); err != nil {
			return 0, err
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
// and seals the probe spill file. A cancelled build (file never sealed)
// yields no drain: the task is already failing.
func (b *JoinBridge) claimSpillDrain() (*bridgeSpill, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spl := b.spl
	if spl == nil || !spl.spilled || spl.draining || spl.released {
		return nil, false, nil
	}
	if spl.err != nil {
		return nil, false, spl.err
	}
	if spl.buildW != nil {
		return nil, false, nil
	}
	spl.draining = true
	if err := spl.finishProbe(); err != nil {
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
	if spl.buildW != nil {
		spl.buildW.Abort()
		spl.buildW = nil
	}
	if spl.probeW != nil {
		spl.probeW.Abort()
		spl.probeW = nil
	}
	files := append(append([]string(nil), spl.buildFiles...), spl.probeFiles...)
	spl.buildFiles, spl.probeFiles = nil, nil
	b.dropLocked()
	b.mu.Unlock()
	for _, f := range files {
		spill.Remove(f)
	}
	b.mem.Close()
}

// writeBuildPage appends one build page to the build spill file, partitioned
// by key hash. Caller holds the bridge mu.
func (s *bridgeSpill) writeBuildPage(p *block.Page, buildKeys []int) error {
	if s.buildW == nil {
		w, err := spill.NewWriter(s.dir, "joinbuild")
		if err != nil {
			return err
		}
		s.buildW = w
		s.buildFiles = append(s.buildFiles, w.Path())
	}
	return writeJoinPartitioned(s.buildW, p, buildKeys)
}

// writeProbePage appends one probe page to the probe spill file, partitioned
// by the same key hash as the build side. Caller holds the bridge mu.
func (s *bridgeSpill) writeProbePage(p *block.Page, probeKeys []int) error {
	if s.probeW == nil {
		w, err := spill.NewWriter(s.dir, "joinprobe")
		if err != nil {
			return err
		}
		s.probeW = w
		s.probeFiles = append(s.probeFiles, w.Path())
	}
	return writeJoinPartitioned(s.probeW, p, probeKeys)
}

func (s *bridgeSpill) finishBuild() error {
	if s.buildW == nil {
		return nil
	}
	err := s.buildW.Finish()
	s.buildW = nil
	return err
}

func (s *bridgeSpill) finishProbe() error {
	if s.probeW == nil {
		return nil
	}
	err := s.probeW.Finish()
	s.probeW = nil
	return err
}

// writeJoinPartitioned splits a page by key-hash partition, as the exchange
// partitions by hash (HashPartition), and writes each non-empty slice as one
// record. NULL keys hash on their canonical tag-0 encoding: build and probe
// route them identically, so unmatched-row semantics (LEFT/ANTI/RIGHT/FULL)
// survive the disk detour. The vectors are made, not leased: Revoke runs this
// on the memory pool's goroutine, which holds no driver's arena.
func writeJoinPartitioned(w *spill.Writer, p *block.Page, keys []int) error {
	n := p.RowCount()
	rows, offs := partitionRows(nil, hashPartitionPage(nil, new(batchKeys), p, keys, spillJoinPartitions), spillJoinPartitions)
	for part := 0; part < spillJoinPartitions; part++ {
		sub := p
		switch rows := rows[offs[part]:offs[part+1]]; len(rows) {
		case 0:
			continue
		case n:
		default:
			sub = p.FilterPositions(rows)
		}
		if err := w.WritePage(part, sub); err != nil {
			return err
		}
	}
	return nil
}

// spillPartIter streams the pages of one partition across a set of spill
// files, one file open at a time, reading only that partition's extents of
// each. Join and aggregation drains both run on it.
type spillPartIter struct {
	files []string
	part  int
	idx   int
	r     *spill.Reader
}

func (it *spillPartIter) next() (*block.Page, error) {
	for {
		if it.r == nil {
			if it.idx >= len(it.files) {
				return nil, nil
			}
			r, err := spill.OpenReader(it.files[it.idx])
			if err != nil {
				return nil, fmt.Errorf("spill file %s: %w", it.files[it.idx], err)
			}
			it.r = r
		}
		p, err := it.r.NextPage(it.part)
		if err == io.EOF {
			it.r.Close()
			it.r = nil
			it.idx++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("spill file %s: %w", it.files[it.idx], err)
		}
		return p, nil
	}
}

func (it *spillPartIter) close() {
	if it.r != nil {
		it.r.Close()
		it.r = nil
	}
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
	probes *spillPartIter
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
			if d.part >= spillJoinPartitions {
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
			pp, err := d.probes.next()
			if err != nil {
				return nil, err
			}
			if pp != nil {
				if err := d.inner.AddInput(pp); err != nil {
					return nil, err
				}
				continue
			}
			d.probes.close()
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
	builds := &spillPartIter{files: spl.buildFiles, part: d.part}
	defer builds.close()
	for {
		p, err := builds.next()
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
	d.probes = &spillPartIter{files: spl.probeFiles, part: d.part}
	return nil
}

func (d *joinSpillDrain) close() {
	if d.probes != nil {
		d.probes.close()
		d.probes = nil
	}
}
