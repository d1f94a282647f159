package operators

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/types"
)

// JoinBridge connects the build pipeline of a hash join to its probe
// pipeline (paper Fig. 4): the build side publishes its hash table here and
// the probe side blocks until it is ready.
type JoinBridge struct {
	mu sync.Mutex

	// The build side. Until every builder has finished the bridge holds only
	// the build pages, in arrival order, and no index: AddInput appends under
	// mu and hashes nothing. The last builder's departure builds the index once
	// (buildIndexLocked), at the size of the row count it then knows: nothing
	// is allocated per key and nothing grows.
	builtTable
	keyCols []int        // build key columns and their planner types, from
	keyTs   []types.Type // the first NewHashBuild (every builder agrees)

	// matched holds, by build position, the flags RIGHT/FULL joins emit their
	// unmatched build rows by; nil until the first match.
	matched []bool
	indexed bool // the index build has been claimed (it runs once)
	built   bool
	rows    int64

	// nullAware marks the bridge of NOT IN's null-aware ANTI join,
	// whose probes are decided by two facts of the whole build: whether it
	// has a row and whether a row's key is NULL. The builders record them; a
	// spilled join's drain hands the spilled bridge's to each partition's.
	nullAware       bool
	anyRow, nullKey bool

	// Accounting is the bridge's, not a builder's: the pages and the index are
	// shared. mem is the context EnableSpill gave, else the first builder's:
	// the ledger the index is leased through. The bridge holds what it counts
	// and bytes — every page, and keyTableBytes of the rows so far until the
	// index exists. Both change under mu; the reservation follows outside it
	// (syncBuildMem), since a reserve may block on this bridge's revocation.
	mem *memory.LocalContext
	// memMu serializes SetBytes callers; Revoke only TryLocks it (a builder
	// holding it may be blocked inside SetBytes -> Reserve -> TryRevoke ->
	// Revoke on this very bridge, and resyncs itself afterwards anyway).
	memMu sync.Mutex
	bytes atomic.Int64
	// buildErr is a failed true-up of the built index that no revocation could
	// absorb; probes report it.
	buildErr error
	// stats is the first builder's, shared by the pipeline's build drivers.
	stats *OpStats

	// Multi-driver accounting: a leaf build pipeline runs one driver per
	// split, each with its own HashBuildOperator feeding this bridge; the
	// table is "built" when the task has created all build drivers and all
	// of them have finished. Probe accounting gates the one-time emission
	// of unmatched build rows for RIGHT/FULL joins.
	buildersActive int
	noMoreBuilders bool
	probesActive   int
	noMoreProbes   bool
	outerClaimed   bool
	// cancelled: Cancel ran, and the index is never given back (probe drivers
	// of a failed task may still read it); released: the index has gone back
	// to the table pool (releaseIndexLocked).
	cancelled bool
	released  bool

	// notify fires (outside mu) on every transition that can unblock a
	// parked probe driver: the table becoming built, cancellation, and the
	// last probe finishing (which releases RIGHT/FULL outer emission). The
	// executor registers its Kick here.
	notify func()

	// Dynamic-filter collection: the built transition hands the table's
	// distinct keys to the collector and the summaries to onFilters, once,
	// before it releases the probes. A cancelled build never publishes — its
	// partial key set would wrongly filter probe rows — and a spilled one
	// publishes "never filter": its rows are on disk.
	collector   *dynfilter.Collector
	onFilters   func([]*dynfilter.Summary)
	filtersDone bool

	// spl is the disk-backed spill state (nil when spilling is disabled for
	// this join); see joinspill.go. Set once via EnableSpill before any
	// driver runs, so reading the pointer itself needs no lock.
	spl *bridgeSpill
}

// SetFilterCollector installs the dynamic-filter collector, which summarizes
// the build key columns, before any driver runs. publish receives the
// summaries on the built transition, under the bridge's lock and before any
// probe can see the table built: it may take only leaf locks, and must hand
// anything slower to another goroutine.
func (b *JoinBridge) SetFilterCollector(c *dynfilter.Collector, publish func([]*dynfilter.Summary)) {
	b.mu.Lock()
	b.collector, b.onFilters = c, publish
	b.mu.Unlock()
}

// summarizeKeysLocked summarizes a just-built table from its key table's
// normalized cells, and a string cell's bytes, whose slots hold one entry per
// distinct key — a direct table's in key order, with its span as the bounds.
func (b *JoinBridge) summarizeKeysLocked() {
	switch c, t := b.collector, b.ktab; {
	case c == nil:
	case b.spl != nil && b.spl.spilled:
		c.Disable()
	case t != nil: // else no build row arrived: the summaries stay empty
		keyed := int64(t.keys) // rows with a non-NULL key
		for _, n := range b.next {
			if n != 0 {
				keyed++
			}
		}
		var span *dynfilter.Span
		if t.direct {
			span = &dynfilter.Span{Lo: t.lo, Hi: t.hi}
		}
		c.CollectCells(keyed, t.keys, t.nk, t.cells, t.tags, t.keyStr, span, func(visit func(int)) {
			for _, s := range t.slots {
				if s != 0 {
					visit(int(s - 1))
				}
			}
		})
	}
}

// publishFiltersLocked hands the collected summaries to onFilters, once, if
// the build just completed cleanly.
func (b *JoinBridge) publishFiltersLocked() {
	if b.filtersDone || b.onFilters == nil {
		return
	}
	b.filtersDone = true
	b.onFilters(b.collector.Summaries())
}

// SetNotify installs the unblock callback; set before drivers start.
func (b *JoinBridge) SetNotify(fn func()) {
	b.mu.Lock()
	b.notify = fn
	b.mu.Unlock()
}

// notifyLocked returns the callback to run after the caller releases mu.
func (b *JoinBridge) notifyLocked() func() {
	if b.notify == nil {
		return func() {}
	}
	return b.notify
}

// AddBuilder registers a build-side driver (called at driver creation).
func (b *JoinBridge) AddBuilder() {
	b.mu.Lock()
	b.buildersActive++
	b.mu.Unlock()
}

// BuilderFinished marks one build driver complete; the bridge becomes built
// when no builders remain and the task has declared no more will come.
func (b *JoinBridge) BuilderFinished() {
	b.builderStep(func() { b.buildersActive-- })
}

// Cancel force-completes the bridge during task failure or abort. A build
// driver that died never reports BuilderFinished, so waiting for the builder
// count to drain would park probe drivers forever; marking the bridge built
// releases them against whatever index exists — none, if the builders had not
// finished, and a probe matches nothing without one — and build drivers still
// running have their later pages dropped by AddInput. No wrong rows escape: the
// task is already failed and its output buffer destroyed or about to be.
func (b *JoinBridge) Cancel() {
	b.mu.Lock()
	b.filtersDone = true // partial build: suppress any future publication
	b.cancelled = true
	b.built = true
	b.noMoreBuilders = true
	b.noMoreProbes = true
	b.probesActive = 0 // dead probe drivers never call ProbeFinished
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// NoMoreBuilders declares that every build driver has been created.
func (b *JoinBridge) NoMoreBuilders() {
	b.builderStep(func() { b.noMoreBuilders = true })
}

// builderStep applies a change to the builder accounting and, if that leaves
// no builder running and none to come, makes the built transition, once: index
// the pages under mu, true the reservation up to what the index took outside
// it — where a spill-armed bridge that cannot have the difference is revoked,
// table and all, and joins on the grace path — and only then mark the bridge
// built, which is what releases the probes.
func (b *JoinBridge) builderStep(change func()) {
	last := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock() // by defer: Cancel takes mu after a panic in the index build
		change()
		last := !b.indexed && !b.built && b.noMoreBuilders && b.buildersActive == 0
		if last {
			b.indexed = true
			b.buildIndexLocked()
		}
		return last
	}()
	if !last {
		return
	}
	err := b.syncBuildMem()
	b.mu.Lock()
	if !b.built { // else cancelled meanwhile
		b.built, b.buildErr = true, err
		if spl := b.spl; spl != nil && spl.spilled {
			// Every page is on disk (a revocation took them, and later ones
			// streamed there): seal the file for the drain.
			if err := spl.build.Seal(); err != nil && spl.err == nil {
				spl.err = err
			}
		}
		b.summarizeKeysLocked()
		b.publishFiltersLocked()
	}
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// buildIndexLocked indexes the build pages by position, a row's place in the
// build with pages in arrival order: the key table stores every row's key,
// page by page, chooses its addressing from them (direct over a dense integer
// key, else hashed: keyTable.index), and then links the positions last to
// first, so that a slot ends on its key's first position and each duplicate is
// chained to the next one in arrival order. A NULL key (never matches) is not
// linked. The builders' stats record the addressing chosen. A keyless
// join keeps no key table and no links: every probe row walks every position
// in order. Every array is leased through the bridge's ledger, which counts
// the index from here on in place of what the pages reserved ahead for it.
func (b *JoinBridge) buildIndexLocked() {
	b.locate(b.mem)
	nk, rows := len(b.keyCols), int(b.positions())
	if nk > 0 && rows > 0 {
		t := newKeyTable(&tableLease{l: b.mem}, b.keyTs, rows)
		// The key hashing leases a page's vectors from an arena of the index
		// build's own: no driver holds it, so it is never released, and what it
		// leased is the collector's once the index is built.
		var scratch block.Arena
		var bk batchKeys
		for _, p := range b.pages {
			scratch.Rewind()
			t.appendKeys(&scratch, p, b.keyCols, &bk)
		}
		t.index()
		b.stats.recordIndex(t.direct, 1)
		var next []int32
		for pos := rows - 1; pos >= 0; pos-- {
			if t.nullKey(pos) {
				continue
			}
			if q := t.link(pos); q >= 0 {
				if next == nil {
					next = memory.Lease[int32](b.mem, rows, rows)
				}
				next[pos] = int32(q + 1)
			}
		}
		b.ktab, b.next = t, next
		b.bytes.Add(-keyTableBytes(b.keyTs, rows))
	}
}

// builtTable is what a probe reads. Writers hold the bridge's mu; nothing
// changes once the bridge is built and a probe page has arrived (a revocation
// only happens before that, Cancel leaves a built table alone) until the last
// probe has ended, when ktab and next go back through the ledger
// (releaseIndexLocked). So a probe copies it under mu, once per page, and
// reads the copy unlocked.
//
// Its rows are build positions: page pg holds positions starts[pg] up to
// starts[pg+1], and steps[k] is the page that holds position k<<shift. ktab's
// entries are the positions' keys, and a slot holds the first position of its
// key; next[pos] is the key's position after pos, plus one (0: pos is its
// last), so a key's rows come out in arrival order. next is nil while no key
// repeats. With neither (keyless), every position is followed by the next.
type builtTable struct {
	pages  []*block.Page
	starts []int32
	steps  []int32
	shift  uint
	ktab   *keyTable
	next   []int32
}

// locate builds the page-start prefix of the pages and the steps over it:
// eight to sixteen a page on average, so that row finds a position's page in
// a step or two where a binary search of the prefix mispredicts at every
// level. Both are leased through the ledger l.
func (t *builtTable) locate(l *memory.LocalContext) {
	t.starts = memory.Lease[int32](l, len(t.pages)+1, 0)
	for pg, p := range t.pages {
		t.starts[pg+1] = t.starts[pg] + int32(p.RowCount())
	}
	rows := int(t.positions())
	if rows == 0 {
		return
	}
	for rows>>(t.shift+1) >= 8*len(t.pages) {
		t.shift++
	}
	t.steps = memory.Lease[int32](l, (rows-1)>>t.shift+1, 0)
	pg := int32(0)
	for k := range t.steps {
		for t.starts[pg+1] <= int32(k<<t.shift) {
			pg++
		}
		t.steps[k] = pg
	}
}

// positions is the number of build positions.
func (t *builtTable) positions() int32 {
	if len(t.starts) == 0 {
		return 0
	}
	return t.starts[len(t.starts)-1]
}

// row addresses build position pos: the page that holds it, found from the
// step before pos, and its row there.
func (t *builtTable) row(pos int32) (page, row int32) {
	pg := t.steps[pos>>t.shift]
	for t.starts[pg+1] <= pos {
		pg++
	}
	return pg, pos - t.starts[pg]
}

// after is the position after pos with the same key (keyless: the next), or
// -1.
func (t *builtTable) after(pos int32) int32 {
	switch {
	case t.next != nil:
		return t.next[pos] - 1
	case t.ktab == nil && pos+1 < t.positions():
		return pos + 1
	}
	return -1
}

// AddProbe registers a probe-side driver.
func (b *JoinBridge) AddProbe() {
	b.mu.Lock()
	b.probesActive++
	b.mu.Unlock()
}

// ProbeFinished marks one probe driver's input complete.
func (b *JoinBridge) ProbeFinished() {
	b.probeStep(func() { b.probesActive-- })
}

// NoMoreProbes declares that every probe driver has been created.
func (b *JoinBridge) NoMoreProbes() {
	b.probeStep(func() { b.noMoreProbes = true })
}

// probeStep applies a change to the probe accounting, gives the index back if
// that leaves no probe to come, and then — outside mu, under the rules
// syncBuildMem keeps — lowers the reservation to what the bridge still holds.
func (b *JoinBridge) probeStep(change func()) {
	b.mu.Lock()
	change()
	released := b.releaseIndexLocked()
	notify := b.notifyLocked()
	b.mu.Unlock()
	if released {
		_ = b.syncBuildMem() // a lower reservation releases and cannot fail
	}
	notify()
}

// releaseIndexLocked gives the key table and the links back through the
// ledger once nothing probes them again: the bridge is built, no more probes
// are declared and the last registered one has ended — never when it is
// cancelled, since a failed task's probe drivers may still be running. The
// pages, positions and matched flags stay for RIGHT/FULL's unmatched emission.
// It reports whether anything went back; the caller re-syncs the reservation.
func (b *JoinBridge) releaseIndexLocked() bool {
	if !b.built || b.cancelled || b.released || !b.noMoreProbes || b.probesActive > 0 {
		return false
	}
	b.released = true
	had := b.ktab != nil || b.next != nil
	b.ktab.release()
	memory.Return(b.mem, b.next)
	b.ktab, b.next = nil, nil
	return had
}

// dropLocked gives back all the bridge holds in memory once nothing reads it:
// the index and positions through the ledger, the pages and matched flags to
// the collector. The caller re-syncs the reservation.
func (b *JoinBridge) dropLocked() {
	b.ktab.release()
	memory.Return(b.mem, b.next)
	memory.Return(b.mem, b.starts)
	memory.Return(b.mem, b.steps)
	b.builtTable, b.matched = builtTable{}, nil
	b.bytes.Store(0)
}

// held is what the bridge holds: bytes, and what its ledger counts.
func (b *JoinBridge) held() int64 { return b.bytes.Load() + b.mem.Leased() }

// AllProbesFinished reports that no probe will record further matches, so
// unmatched build rows may be emitted.
func (b *JoinBridge) AllProbesFinished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.noMoreProbes && b.probesActive <= 0
}

// claimOuter grants the outer-row emission to exactly one probe operator,
// with the table and the matched flags, which no probe changes any more.
func (b *JoinBridge) claimOuter() (t builtTable, matched []bool, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.outerClaimed {
		return t, nil, false
	}
	b.outerClaimed = true
	return b.builtTable, b.matched, true
}

// NewJoinBridge creates an empty bridge.
func NewJoinBridge() *JoinBridge { return &JoinBridge{} }

// SetNullAware makes the bridge NOT IN's (see nullAware); set before any
// driver runs.
func (b *JoinBridge) SetNullAware() {
	b.mu.Lock()
	b.nullAware = true
	b.mu.Unlock()
}

// Built reports whether the build side has completed.
func (b *JoinBridge) Built() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.built
}

// BuildRows returns the number of build-side rows (valid after Built).
func (b *JoinBridge) BuildRows() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rows
}

// HashBuildOperator consumes the build side of a join and hands its pages to
// the bridge, which indexes them when the last builder has finished. It acts
// as a pipeline sink: it produces no output.
type HashBuildOperator struct {
	ctx      *OpContext
	bridge   *JoinBridge
	finished bool
}

// NewHashBuild creates the build-side sink for a join. keyTs are the planner
// types of the key columns, aligned with keyCols: they, not input block
// types, decide whether the shared key table keeps bytes (see varKey).
func NewHashBuild(ctx *OpContext, bridge *JoinBridge, keyCols []int, keyTs []types.Type) *HashBuildOperator {
	bridge.registerBuilder(ctx, keyCols, keyTs)
	return &HashBuildOperator{ctx: ctx, bridge: bridge}
}

// registerBuilder takes from a build driver what the bridge needs of it: the
// build keys and an accounting context if it has none yet, and its stats for
// ExecutionNanos.
func (b *JoinBridge) registerBuilder(ctx *OpContext, keyCols []int, keyTs []types.Type) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keyCols == nil {
		b.keyCols, b.keyTs = keyCols, keyTs
	}
	if ctx == nil {
		return
	}
	if b.mem == nil {
		b.mem = ctx.Mem
	}
	if b.stats == nil {
		b.stats = ctx.Stats
	}
	if b.spl != nil && ctx.Stats != nil {
		b.spl.stats = append(b.spl.stats, ctx.Stats)
	}
}

func (o *HashBuildOperator) NeedsInput() bool { return !o.finished }

func (o *HashBuildOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	// Bridge pages outlive this driver (probes read them from other
	// threads), so lazy columns are loaded here; dictionary and RLE
	// encodings are kept and indexed without expansion (§V-B).
	p = p.LoadLazy()
	b := o.bridge
	b.mu.Lock()
	if b.built {
		// Only Cancel completes a bridge under a running builder (drivers of a
		// failed or aborted task are not stopped): the page is dropped, since
		// released probes read a bridge that indexes nothing more.
		b.mu.Unlock()
		return nil
	}
	n := p.RowCount()
	if b.nullAware && n > 0 {
		b.anyRow = true
		for r := 0; r < n && !b.nullKey; r++ {
			b.nullKey = rowKeyNull(p, r, b.keyCols)
		}
	}
	if spl := b.spl; spl != nil && spl.spilled {
		// The bridge has revoked its pages to disk: stream this one straight
		// to the build spill file (the drain re-joins it partition by
		// partition).
		b.rows += int64(n)
		err := spillJoinPage(&spl.build, p, b.keyCols)
		b.mu.Unlock()
		return err
	}
	// Not spilled: every row so far is in memory, and the key table over them
	// is reserved ahead as they arrive, so that a capped pool revokes before
	// the built transition leases it. The links and the byte arena, unknown
	// before the keys are, come with the true-up.
	var ahead int64
	if rows := int(b.rows); len(b.keyCols) > 0 && n > 0 {
		ahead = keyTableBytes(b.keyTs, rows+n)
		if rows > 0 { // the first page reserves the whole table
			ahead -= keyTableBytes(b.keyTs, rows)
		}
	}
	b.pages = append(b.pages, p)
	b.rows += int64(n)
	b.bytes.Add(p.SizeBytes() + ahead)
	b.mu.Unlock()
	return b.syncBuildMem()
}

// resolveBatch is the general path of the probe: normalize the page's key
// columns, then look each row's key up in t (lookupCells) — a direct table's
// flat bigint key column (flatLongs) read where it lies, with nothing
// normalized.
func resolveBatch(a *block.Arena, t *keyTable, bk *batchKeys, p *block.Page, cols []int, ids []int32) {
	if t.direct {
		if vals, nulls, sel, ok := flatLongs(p.Col(cols[0])); ok {
			probeDirect(t, vals, nulls, sel, ids)
			return
		}
	}
	bk.normalize(a, p, cols)
	lookupCells(a, t, bk, ids)
}

// lookupCells writes into ids the entry of t holding each key bk holds
// normalized, or -1: a direct table's by its cell alone, with nothing hashed,
// a hashed table's by the key's hash, its vector leased from a.
func lookupCells(a *block.Arena, t *keyTable, bk *batchKeys, ids []int32) {
	if t.direct {
		for r, tag := range bk.tags[:len(ids)] {
			ids[r] = int32(t.lookupDirect(bk.cells[r], tag))
		}
		return
	}
	bk.hashCells(a, len(ids))
	if bk.nk == 1 && t.vars == nil {
		// One key that keeps no bytes, which is most joins: probe on scalars,
		// no per-row slicing (as the aggregation's resolveCells).
		cells, tags, hashes := bk.cells, bk.tags, bk.hashes
		for r := range ids {
			id := -1
			if tags[r] != block.CellNull {
				id = t.lookupFixed1(hashes[r], cells[r], tags[r])
			}
			ids[r] = int32(id)
		}
		return
	}
	for r := range ids {
		id := -1
		if !bk.nullKey(r) {
			cells, tags, strs := bk.row(r)
			id = t.lookup(bk.hashes[r], cells, tags, strs)
		}
		ids[r] = int32(id)
	}
}

// probeDirect looks up, in a direct table, the key of each row of a flatLongs
// column: the row's value is its cell, and a NULL finds nothing.
func probeDirect(t *keyTable, vals []int64, nulls []bool, sel []int, ids []int32) {
	if sel == nil {
		for r, v := range vals[:len(ids)] {
			ids[r] = -1
			if nulls == nil || !nulls[r] {
				ids[r] = int32(t.lookupDirect(uint64(v), block.CellLong))
			}
		}
		return
	}
	for r, k := range sel[:len(ids)] {
		ids[r] = -1
		if nulls == nil || !nulls[k] {
			ids[r] = int32(t.lookupDirect(uint64(vals[k]), block.CellLong))
		}
	}
}

// rowKeyNull reports whether any key column of row r is NULL.
func rowKeyNull(p *block.Page, r int, cols []int) bool {
	for _, c := range cols {
		if p.Col(c).IsNull(r) {
			return true
		}
	}
	return false
}

func (o *HashBuildOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	o.bridge.BuilderFinished()
}

func (o *HashBuildOperator) Output() (*block.Page, error) { return nil, nil }
func (o *HashBuildOperator) IsFinished() bool             { return o.finished }
func (o *HashBuildOperator) IsBlocked() bool              { return false }
func (o *HashBuildOperator) Close() error                 { return nil }

// LookupJoinOperator probes the bridge's hash table with left-side pages and
// emits joined rows — every join type, keyed or keyless, with a residual or
// not — on the output path the index join shares (joinOutput). RIGHT and FULL
// flag the build rows they match and, once every probe has finished, emit
// the others against a NULL probe side.
type LookupJoinOperator struct {
	joinOutput
	ctx       *OpContext
	bridge    *JoinBridge
	probeKeys []int
	consumer  Operator  // who takes the output, when it is lent
	batch     batchKeys // probe-side key hashing

	// RIGHT/FULL's unmatched build rows, while unmatched: the flags (nil:
	// none matched) and the next build position.
	unmatched bool
	matched   []bool
	outerAt   int32

	finished bool
	// probeEnded: finished, and every pair of the last probe page emitted, so
	// its matched flags are set; only then does the bridge count it finished.
	probeEnded   bool
	outerHandled bool
	drain        *joinSpillDrain // partitioned disk drain (spilled builds only)
}

// NewLookupJoin creates the probe-side operator; residual may be nil.
func NewLookupJoin(ctx *OpContext, bridge *JoinBridge, jt plan.JoinType, probeKeys []int, residual *JoinResidual, probeTs, buildTs []types.Type, pageSize int) *LookupJoinOperator {
	return &LookupJoinOperator{
		joinOutput: newJoinOutput(jt, residual, probeTs, buildTs, pageSize),
		ctx:        ctx, bridge: bridge, probeKeys: probeKeys,
	}
}

// allChannels lists channels 0 to n-1.
func allChannels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ReleasesInput declares to the pipeline compiler that the join is done with
// a probe page, and every array under it, by the next time NeedsInput is true:
// it asks for no page while it has rows of the last one to emit, what it emits
// is gathered into other arrays (a dictionary or run shares its dictionary or
// value, which nobody lends), and a spilled probe page is encoded at once.
func (o *LookupJoinOperator) ReleasesInput() bool { return true }

// LendOutput tells the join, before its first page, that consumer releases
// its input: flat columns are then gathered into vectors leased from the
// join's arena and taken back at its next Output, which the driver calls only
// once the consumer wants input again — as NeedsInput waits for, before the
// next probe page rewinds the arena.
func (o *LookupJoinOperator) LendOutput(consumer Operator) { o.lend, o.consumer = true, consumer }

// LendsOutput reports whether LendOutput has been called.
func (o *LookupJoinOperator) LendsOutput() bool { return o.lend }

// IsBlocked: on the build, and — a RIGHT/FULL probe that has emitted all it
// probed — on its peers, before it emits unmatched build rows.
func (o *LookupJoinOperator) IsBlocked() bool {
	return !o.bridge.Built() || o.probeEnded && !o.outerHandled && !o.bridge.AllProbesFinished()
}

func (o *LookupJoinOperator) NeedsInput() bool {
	return o.bridge.Built() && !o.finished && o.probe == nil && (o.consumer == nil || o.consumer.NeedsInput())
}

func (o *LookupJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.scratch.Rewind()
	p = p.LoadLazy()
	b := o.bridge
	b.mu.Lock()
	if err := b.buildErr; err != nil {
		b.mu.Unlock()
		return fmt.Errorf("join build: %w", err)
	}
	if spl := b.spl; spl != nil {
		// From the first probe page on, the build table is no longer
		// revocable: probes hold row references and matched flags into it.
		spl.probeStarted = true
		if spl.spilled {
			// The build side lives on disk: route the probe page to the
			// probe spill file; the drain joins the two partition by
			// partition once all probes finish.
			err := spillJoinPage(&spl.probe, p, o.probeKeys)
			b.mu.Unlock()
			return err
		}
	}
	o.tab = b.builtTable
	nullAware, anyRow, nullKey := b.nullAware, b.anyRow, b.nullKey
	b.mu.Unlock()

	if nullAware {
		if p = o.nullAwareRows(p, anyRow, nullKey); p == nil {
			return nil
		}
	}
	o.begin(p, o.resolveProbe(p))
	return nil
}

// nullAwareRows applies NOT IN's three-valued rule to a probe page before it
// is probed: against an empty build every row is kept (the ANTI join keeps
// them), against one holding a NULL key none (nil), and otherwise a row whose
// key is NULL is dropped — NULL NOT IN a non-empty list is not TRUE.
func (o *LookupJoinOperator) nullAwareRows(p *block.Page, anyRow, nullKey bool) *block.Page {
	switch {
	case !anyRow:
		return p
	case nullKey:
		return nil
	}
	n := p.RowCount()
	keep := block.Lease[int](o.scratch, n)[:0]
	for r := 0; r < n; r++ {
		if !rowKeyNull(p, r, o.probeKeys) {
			keep = append(keep, r)
		}
	}
	switch len(keep) {
	case n:
		return p
	case 0:
		return nil
	}
	return p.FilterPositions(keep)
}

// resolveProbe maps every probe row to the first build position of its key
// (-1 = no match or NULL key) in one page-level pass; with no key (CROSS and
// keyless joins), to the first of all, after which come all the others.
// Pages whose key columns all arrive dictionary- or RLE-encoded ask the table
// once per combination of entries they reference (resolveEncoded; §V-B),
// through the batch lookup over the first row of each; the rest once per row
// of a normalized page.
func (o *LookupJoinOperator) resolveProbe(p *block.Page) []int32 {
	ids, t := block.Lease[int32](o.scratch, p.RowCount()), o.tab.ktab
	keyless := len(o.probeKeys) == 0
	if t == nil || keyless { // an empty build side, or no key
		first := int32(-1)
		if keyless {
			first = min(0, o.tab.positions()-1)
		}
		for i := range ids {
			ids[i] = first
		}
		return ids
	}
	if _, encoded := resolveEncoded(o.scratch, &o.batch, p, o.probeKeys, ids, func(_ []int, rowIDs []int32) {
		lookupCells(o.scratch, t, &o.batch, rowIDs)
	}); encoded {
		o.ctx.recordDictRows(len(ids))
	} else {
		resolveBatch(o.scratch, t, &o.batch, p, o.probeKeys, ids)
	}
	return ids
}

func (o *LookupJoinOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	// A spilled build defers every join type to the disk drain, which one
	// probe operator claims in Output once all probes have finished; RIGHT
	// and FULL wait likewise to emit unmatched build rows.
	o.outerHandled = !o.bridge.spillDrainPending() && o.jt != plan.RightJoin && o.jt != plan.FullJoin
	o.endProbe()
}

// endProbe tells the bridge, once, that this operator flags no more matches:
// when it is finished and has emitted its last probe page's pairs, which a
// driver may finish it before.
func (o *LookupJoinOperator) endProbe() {
	if o.finished && o.probe == nil && !o.probeEnded {
		o.probeEnded = true
		o.bridge.ProbeFinished()
	}
}

// markMatched flags the build rows the selection pairs (RIGHT, FULL): one
// lock a page.
func (o *LookupJoinOperator) markMatched() {
	if o.jt != plan.RightJoin && o.jt != plan.FullJoin {
		return
	}
	b, t := o.bridge, &o.tab
	b.mu.Lock()
	if b.matched == nil {
		b.matched = make([]bool, t.positions())
	}
	for i, pg := range o.buildPg {
		if pg >= 0 {
			b.matched[t.starts[pg]+o.buildRow[i]] = true
		}
	}
	b.mu.Unlock()
}

// selectUnmatched selects the next page of build rows no probe matched.
func (o *LookupJoinOperator) selectUnmatched() int {
	o.scratch.RewindTo(o.outMark)
	pg, row := block.Lease[int32](o.scratch, o.pageSize)[:0], block.Lease[int32](o.scratch, o.pageSize)[:0]
	t, n := &o.tab, o.tab.positions()
	for ; o.outerAt < n && len(pg) < o.pageSize; o.outerAt++ {
		if o.matched == nil || !o.matched[o.outerAt] {
			p, r := t.row(o.outerAt)
			pg, row = append(pg, p), append(row, r)
		}
	}
	o.unmatched = o.outerAt < n
	o.probeSel, o.buildPg, o.buildRow = nil, pg, row
	return len(pg)
}

func (o *LookupJoinOperator) Output() (*block.Page, error) {
	var out *block.Page
	if p, n := o.selectNext(); n > 0 {
		o.markMatched()
		out = o.gather(p, n)
	}
	o.endProbe()
	if out == nil {
		if err := o.claim(); err != nil {
			return nil, err
		}
		if o.drain != nil {
			return o.drain.next() // its operator records what it emits
		}
		if o.unmatched {
			if n := o.selectUnmatched(); n > 0 {
				out = o.gather(nil, n)
			}
		}
	}
	o.ctx.recordOut(out)
	return out, nil
}

// claim takes what follows the probe — a spilled build's partition drain, or
// RIGHT/FULL's unmatched build rows — once every probe has ended, unless
// another probe operator has.
func (o *LookupJoinOperator) claim() error {
	b := o.bridge
	if !o.probeEnded || o.outerHandled || !b.AllProbesFinished() {
		return nil
	}
	o.outerHandled = true
	if b.spillDrainPending() {
		spl, ok, err := b.claimSpillDrain()
		if ok {
			o.drain = &joinSpillDrain{o: o, spl: spl}
		}
		return err
	}
	if t, matched, ok := b.claimOuter(); ok {
		o.tab, o.matched, o.unmatched = t, matched, true
	}
	return nil
}

func (o *LookupJoinOperator) IsFinished() bool {
	return o.finished && o.outerHandled && o.probe == nil && !o.unmatched &&
		(o.drain == nil || o.drain.done)
}

func (o *LookupJoinOperator) Close() error {
	if o.drain != nil {
		o.drain.close()
	}
	return nil
}

// JoinResidual is a join's residual over its (probe ++ build) row, compiled
// once as a filter the way WHERE is: it selects the candidate pairs that
// match, and a pair whose residual is NULL or fails does not.
type JoinResidual struct {
	filter *expr.PageProcessor
	nProbe int
	reads  []int // the channels the filter reads
	// What it reads, refilled for every chunk: only reads are set.
	cols []block.Block
	page *block.Page
}

// NewJoinResidual compiles e, nProbe channels of whose row are the probe's,
// with compile — how the caller builds WHERE clauses. A nil e is none.
func NewJoinResidual(e expr.Expr, nProbe int, compile func(expr.Expr, []expr.Expr) *expr.PageProcessor) *JoinResidual {
	if e == nil {
		return nil
	}
	r := &JoinResidual{filter: compile(e, nil), nProbe: nProbe, reads: expr.Columns(e), page: block.NewEmptyPage(0)}
	if n := len(r.reads); n > 0 {
		r.cols = make([]block.Block, r.reads[n-1]+1) // reads ascends
	}
	return r
}

// joinOutput is the lookup and index joins' one output path: a cursor walks a
// probe page's candidate (probe row, build position) pairs into a selection
// of at most a page, the residual filters it, and the kernels gather it.
type joinOutput struct {
	jt               plan.JoinType
	residual         *JoinResidual
	probeTs, buildTs []types.Type
	// The probe and build channels the join emits, probe side first: every
	// one unless SetOutputChannels says less; no build channel for SEMI/ANTI.
	probeOut, buildOut []int
	lend               bool // the output is lent (LendOutput)
	pageSize           int

	// scratch lends a probe page's vectors and, after outMark, an output
	// page's. A pointer: the spill drain's operator shares it.
	scratch *block.Arena
	outMark int

	tab   builtTable    // the build rows the probe page joins against
	chans []*gatherChan // typed views of tab's channels, made on first use

	// The cursor: the probe page, its rows' first candidates, the row walked,
	// its next candidate, whether it has begun and matched, and — a SEMI or
	// ANTI row with a residual — how many candidates its last round took.
	probe *block.Page
	ids   []int32
	row   int
	at    int32
	begun bool
	hit   bool
	round int

	// The selection: probe rows, their build rows' pages (-1: none), rows.
	probeSel, buildPg, buildRow []int32
}

func newJoinOutput(jt plan.JoinType, residual *JoinResidual, probeTs, buildTs []types.Type, pageSize int) joinOutput {
	if pageSize <= 0 {
		pageSize = DefaultPageRows
	}
	j := joinOutput{jt: jt, residual: residual, probeTs: probeTs, buildTs: buildTs, pageSize: pageSize, scratch: new(block.Arena)}
	j.probeOut = allChannels(len(probeTs))
	if jt != plan.SemiJoin && jt != plan.AntiJoin {
		j.buildOut = allChannels(len(buildTs))
	}
	return j
}

// SetOutputChannels names, before the first page, the channels the join
// emits: the pipeline compiler derives them from what the operator above reads.
func (j *joinOutput) SetOutputChannels(probe, build []int) {
	j.probeOut, j.buildOut = probe, build
}

// Scratch implements ScratchHolder.
func (j *joinOutput) Scratch() *block.Arena { return j.scratch }

// rowEnds reports whether a probe row's end is selected too (page -1): LEFT,
// FULL and ANTI emit a row none of whose candidates matched.
func (j *joinOutput) rowEnds() bool {
	return j.jt == plan.LeftJoin || j.jt == plan.FullJoin || j.jt == plan.AntiJoin
}

// begin puts the cursor on probe page p, its rows' first candidates ids.
func (j *joinOutput) begin(p *block.Page, ids []int32) {
	j.probe, j.ids, j.row, j.begun = p, ids, 0, false
	j.outMark = j.scratch.Mark()
}

// selectNext selects the probe page's next output page and returns the page
// and its size, 0 once the page is done. The cursor walks chunks of what room
// the page has left until it is half full: with no residual the first fills
// it, and a residual that keeps few pairs still emits pages of some size.
func (j *joinOutput) selectNext() (*block.Page, int) {
	p := j.probe
	if p == nil {
		return nil, 0
	}
	j.scratch.RewindTo(j.outMark)
	n := j.pageSize
	j.probeSel, j.buildPg, j.buildRow = block.Lease[int32](j.scratch, n)[:0], block.Lease[int32](j.scratch, n)[:0], block.Lease[int32](j.scratch, n)[:0]
	chunk := j.scratch.Mark()
	for j.probe != nil && 2*len(j.probeSel) < n {
		j.scratch.RewindTo(chunk)
		from, cur, hit := len(j.probeSel), int32(j.row), j.begun && j.hit
		j.walk(n - from)
		if j.residual != nil {
			j.decide(p, from, cur, hit)
		}
		if j.row == p.RowCount() {
			j.probe = nil
		}
	}
	return p, len(j.probeSel)
}

// semiRound is how many candidates a SEMI or ANTI row with a residual puts to
// it at first; every round that matches none doubles it, up to a page. A
// row's first match ends its chain, so a row whose first candidate passes
// costs a round, not its chain.
const semiRound = 8

// walk appends the cursor's next entries to the selection, room of them: a
// row's candidates (SEMI's and ANTI's up to a match), then its end (rowEnds).
// With no residual every candidate matches, so walk appends what the join
// emits: a row's end only if it had no candidate, ANTI's candidates never.
// With one, a SEMI or ANTI row's round ends the walk, to be decided.
func (j *joinOutput) walk(room int) {
	stop, ends, decided := j.jt == plan.SemiJoin || j.jt == plan.AntiJoin, j.rowEnds(), j.residual == nil
	skip := decided && j.jt == plan.AntiJoin // a match drops an ANTI row
	rounds := stop && !decided
	k := len(j.probeSel)
	sel, pg, row := j.probeSel[:k+room], j.buildPg[:k+room], j.buildRow[:k+room]
	t, ids, n := &j.tab, j.ids, j.probe.RowCount()
	r, at, begun, hit, round := j.row, j.at, j.begun, j.hit, min(2*j.round, j.pageSize) // a carried row's next round
rows:
	for ; r < n; r, begun = r+1, false {
		if !begun {
			at, begun, hit, round = ids[r], true, false, semiRound
		}
		for took := 0; at >= 0 && !(stop && hit); at, took = t.after(at), took+1 {
			if k == len(sel) || rounds && took == round {
				break rows
			}
			if !skip {
				sel[k] = int32(r)
				pg[k], row[k] = t.row(at)
				k++
			}
			hit = hit || decided
		}
		if ends && !hit {
			if k == len(sel) {
				break
			}
			sel[k], pg[k], row[k] = int32(r), -1, 0
			k++
		}
	}
	j.row, j.at, j.begun, j.hit, j.round = r, at, begun, hit, round
	j.probeSel, j.buildPg, j.buildRow = sel[:k], pg[:k], row[:k]
}

// decide puts the entries walk appended from index from on to the residual
// and keeps what the join emits: a matched candidate, SEMI's first, and the
// end of a row none of whose candidates matched. Row cur began the walk,
// having matched (hit) or not; the cursor's row carries what it found on.
func (j *joinOutput) decide(p *block.Page, from int, cur int32, hit bool) {
	sel, pg, row := j.probeSel[from:], j.buildPg[from:], j.buildRow[from:]
	var keep []int // the entries the residual keeps, ascending
	if len(sel) > 0 {
		r := j.residual
		for _, c := range r.reads {
			if c < r.nProbe {
				r.cols[c] = gatherProbe(j.scratch, p.Col(c), sel, r.cols[c])
			} else {
				r.cols[c] = j.buildChan(c-r.nProbe).gather(j.scratch, pg, row, r.cols[c])
			}
		}
		*r.page = *block.NewEmptyPage(len(sel))
		r.page.Cols = r.cols
		keep = r.filter.Select(r.page, j.scratch)
	}
	w, k := from, 0
	for i, r := range sel {
		if r != cur {
			cur, hit = r, false
		}
		kept := k < len(keep) && keep[k] == i
		if kept {
			k++
		}
		if pg[i] >= 0 { // a candidate
			emit := kept && (!hit || j.jt != plan.SemiJoin) && j.jt != plan.AntiJoin
			if hit = hit || kept; !emit {
				continue
			}
		} else if hit { // a row's end
			continue
		}
		j.probeSel[w], j.buildPg[w], j.buildRow[w] = r, pg[i], row[i]
		w++
	}
	if j.begun && cur == int32(j.row) {
		j.hit = hit
	}
	j.probeSel, j.buildPg, j.buildRow = j.probeSel[:w], j.buildPg[:w], j.buildRow[:w]
}

// gather builds the output page of the selection's n rows, the listed
// channels only; p nil: a NULL probe side (unmatched build rows).
func (j *joinOutput) gather(p *block.Page, n int) *block.Page {
	nProbe, out := len(j.probeOut), block.NewEmptyPage(n)
	var a *block.Arena // a nil arena makes every vector, for the page to own
	if j.lend {
		a = j.scratch
	}
	cols := make([]block.Block, nProbe+len(j.buildOut))
	for i, c := range j.probeOut {
		if p == nil {
			cols[i] = block.NewRLEBlock(types.NullValue(j.probeTs[c]), n)
		} else {
			cols[i] = gatherProbe(a, p.Col(c), j.probeSel, nil)
		}
	}
	for i, c := range j.buildOut {
		cols[nProbe+i] = j.buildChan(c).gather(a, j.buildPg, j.buildRow, nil)
	}
	out.Cols = cols
	return out
}

// buildChan is the typed view of build channel c, made on first use.
func (j *joinOutput) buildChan(c int) *gatherChan {
	if j.chans == nil {
		j.chans = make([]*gatherChan, len(j.buildTs))
	}
	if j.chans[c] == nil {
		j.chans[c] = newGatherChan(j.tab.pages, c, j.buildTs[c], j.rowEnds())
	}
	return j.chans[c]
}

// IndexJoinOperator joins probe rows against a connector index (paper
// §IV-C1): for every probe row it looks up the matching rows through the
// connector's IndexLookup, avoiding a full build-side scan. Used when the
// optimizer selects StrategyIndex against normalized production stores. The
// results are the probe page's build table, on the lookup join's path.
type IndexJoinOperator struct {
	joinOutput
	ctx       *OpContext
	lookup    IndexLookupFunc
	probeKeys []int
	finished  bool
}

// IndexLookupFunc probes the connector index with one key tuple.
type IndexLookupFunc func(keys []types.Value) (*block.Page, error)

// NewIndexJoin creates an index join operator; residual may be nil.
func NewIndexJoin(ctx *OpContext, lookup IndexLookupFunc, jt plan.JoinType, probeKeys []int, residual *JoinResidual, probeTs, buildTs []types.Type, pageSize int) *IndexJoinOperator {
	return &IndexJoinOperator{
		joinOutput: newJoinOutput(jt, residual, probeTs, buildTs, pageSize),
		ctx:        ctx, lookup: lookup, probeKeys: probeKeys,
	}
}

func (o *IndexJoinOperator) NeedsInput() bool { return !o.finished && o.probe == nil }
func (o *IndexJoinOperator) IsBlocked() bool  { return false }

// AddInput looks each row's key up (not a NULL one): its result is its chain.
func (o *IndexJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.scratch.Rewind()
	p = p.LoadLazy()
	ids := block.Lease[int32](o.scratch, p.RowCount())
	keys := make([]types.Value, len(o.probeKeys))
	var pages []*block.Page
	var next []int32
	for r := range ids {
		ids[r] = -1
		if rowKeyNull(p, r, o.probeKeys) {
			continue
		}
		for i, c := range o.probeKeys {
			keys[i] = p.Col(c).Value(r)
		}
		res, err := o.lookup(keys)
		if err != nil {
			return fmt.Errorf("index lookup: %w", err)
		}
		if res != nil && res.RowCount() > 0 {
			ids[r], pages = int32(len(next)), append(pages, res)
			for k := 1; k < res.RowCount(); k++ {
				next = append(next, int32(len(next)+2)) // to the row after
			}
			next = append(next, 0)
		}
	}
	o.tab = builtTable{pages: pages, next: next}
	o.tab.locate(nil) // per probe page, unaccounted
	clear(o.chans)    // views of the last page's results
	o.begin(p, ids)
	return nil
}

func (o *IndexJoinOperator) Output() (*block.Page, error) {
	var out *block.Page
	if p, n := o.selectNext(); n > 0 {
		out = o.gather(p, n)
	}
	o.ctx.recordOut(out)
	return out, nil
}

func (o *IndexJoinOperator) Finish()          { o.finished = true }
func (o *IndexJoinOperator) IsFinished() bool { return o.finished && o.probe == nil }
func (o *IndexJoinOperator) Close() error     { return nil }
