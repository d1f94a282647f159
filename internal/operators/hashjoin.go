package operators

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// JoinBridge connects the build pipeline of a hash join to its probe
// pipeline (paper Fig. 4): the build side publishes its hash table here and
// the probe side blocks until it is ready.
type JoinBridge struct {
	mu   sync.Mutex
	cond *sync.Cond

	// The build index. ktab maps a key to a dense key id (layout chosen on
	// the first build page). While building, each page records its rows' key
	// ids in keyIDs (-1: NULL key, never matches) — four bytes a row, sized
	// once. The built transition counting-sorts them into one flat row list:
	// key id's build rows are krows[rowOff[id]:rowOff[id+1]], in arrival
	// order, and keyIDs is dropped. Nothing is allocated per key.
	ktab   *keyTable
	keyIDs [][]int32
	rowOff []int32
	krows  []bridgeRow
	batch  batchKeys // build-side scratch (guarded by mu)
	memo   []int32   // build-side dictionary id→key id scratch (guarded by mu)

	pages []*block.Page
	// matched holds, per page and row, the flags RIGHT/FULL joins emit their
	// unmatched build rows by; a page's flags are nil until its first match.
	matched [][]bool
	built   bool
	rows    int64

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

	// notify fires (outside mu) on every transition that can unblock a
	// parked probe driver: the table becoming built, cancellation, and the
	// last probe finishing (which releases RIGHT/FULL outer emission). The
	// executor registers its Kick here.
	notify func()

	// Dynamic-filter collection: build drivers fold their key columns into
	// the collector under mu, and the summaries publish through onFilters
	// exactly once, on the clean built transition. A cancelled build never
	// publishes — its partial key set would wrongly filter probe rows.
	collector   *dynfilter.Collector
	onFilters   func([]*dynfilter.Summary)
	filtersDone bool

	// spl is the disk-backed spill state (nil when spilling is disabled for
	// this join); see joinspill.go. Set once via EnableSpill before any
	// driver runs, so reading the pointer itself needs no lock.
	spl *bridgeSpill
}

// SetFilterCollector installs the dynamic-filter collector and its publish
// callback; set at pipeline compile time, before any build driver runs.
func (b *JoinBridge) SetFilterCollector(c *dynfilter.Collector, publish func([]*dynfilter.Summary)) {
	b.mu.Lock()
	b.collector = c
	b.onFilters = publish
	b.mu.Unlock()
}

// takeFilterPublishLocked claims the one-time filter publication if the build
// just completed cleanly; the returned closure must run after mu is released
// (publication fans out into task/coordinator code that may take other locks).
func (b *JoinBridge) takeFilterPublishLocked() func() {
	if !b.built || b.filtersDone || b.onFilters == nil {
		return nil
	}
	b.filtersDone = true
	fn, col := b.onFilters, b.collector
	return func() {
		var sums []*dynfilter.Summary
		if col != nil {
			sums = col.Summaries()
		}
		fn(sums)
	}
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
	b.mu.Lock()
	b.buildersActive--
	b.maybeBuiltLocked()
	publish := b.takeFilterPublishLocked()
	notify := b.notifyLocked()
	b.mu.Unlock()
	if publish != nil {
		publish()
	}
	notify()
}

// Cancel force-completes the bridge during task failure or abort. A build
// driver that died never reports BuilderFinished, so waiting for the builder
// count to drain would park probe drivers forever; marking the bridge built
// releases them against an empty table (an unbuilt one has no row list), and
// build drivers still running have their later pages dropped by AddInput. No
// wrong rows escape: the task is already failed and its output buffer
// destroyed or about to be.
func (b *JoinBridge) Cancel() {
	b.mu.Lock()
	b.filtersDone = true // partial build: suppress any future publication
	if !b.built {
		// The row list was never indexed: probes see an empty build side.
		b.ktab, b.keyIDs = nil, nil
	}
	b.built = true
	b.noMoreBuilders = true
	b.noMoreProbes = true
	b.probesActive = 0 // dead probe drivers never call ProbeFinished
	b.cond.Broadcast()
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// NoMoreBuilders declares that every build driver has been created.
func (b *JoinBridge) NoMoreBuilders() {
	b.mu.Lock()
	b.noMoreBuilders = true
	b.maybeBuiltLocked()
	publish := b.takeFilterPublishLocked()
	notify := b.notifyLocked()
	b.mu.Unlock()
	if publish != nil {
		publish()
	}
	notify()
}

func (b *JoinBridge) maybeBuiltLocked() {
	if !b.built && b.noMoreBuilders && b.buildersActive == 0 {
		b.built = true
		if spl := b.spl; spl != nil && spl.spilled {
			// Once spilled, every later build page streamed straight to
			// disk, so there is no in-memory tail here — flush whatever
			// remains (defensively) and seal the file for the drain.
			if _, err := b.revokeSpillLocked(); err != nil && spl.err == nil {
				spl.err = err
			}
			if err := spl.finishBuild(); err != nil && spl.err == nil {
				spl.err = err
			}
		}
		b.indexRowsLocked()
		b.cond.Broadcast()
	}
}

// indexRowsLocked turns the per-page key ids into the flat row list, by
// counting sort: count each key's rows, prefix-sum the counts into rowOff,
// place every row at its key's cursor.
func (b *JoinBridge) indexRowsLocked() {
	if b.ktab == nil {
		return
	}
	off := make([]int32, b.ktab.Len()+1)
	for _, ids := range b.keyIDs {
		for _, id := range ids {
			if id >= 0 {
				off[id+1]++
			}
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	rows := make([]bridgeRow, off[len(off)-1])
	for pg, ids := range b.keyIDs {
		for r, id := range ids {
			if id >= 0 {
				rows[off[id]] = bridgeRow{page: int32(pg), row: int32(r)}
				off[id]++
			}
		}
	}
	// Every cursor now stands at its key's end, the next key's start.
	copy(off[1:], off)
	off[0] = 0
	b.rowOff, b.krows, b.keyIDs = off, rows, nil
}

// matchesLocked returns the build rows of key id, in arrival order.
func (b *JoinBridge) matchesLocked(id int32) []bridgeRow {
	return b.krows[b.rowOff[id]:b.rowOff[id+1]]
}

// AddProbe registers a probe-side driver.
func (b *JoinBridge) AddProbe() {
	b.mu.Lock()
	b.probesActive++
	b.mu.Unlock()
}

// ProbeFinished marks one probe driver's input complete.
func (b *JoinBridge) ProbeFinished() {
	b.mu.Lock()
	b.probesActive--
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// NoMoreProbes declares that every probe driver has been created.
func (b *JoinBridge) NoMoreProbes() {
	b.mu.Lock()
	b.noMoreProbes = true
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// AllProbesFinished reports that no probe will record further matches, so
// unmatched build rows may be emitted.
func (b *JoinBridge) AllProbesFinished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.noMoreProbes && b.probesActive <= 0
}

// ClaimOuter grants the outer-row emission to exactly one probe operator.
func (b *JoinBridge) ClaimOuter() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.outerClaimed {
		return false
	}
	b.outerClaimed = true
	return true
}

// bridgeRow addresses one build row: its page in JoinBridge.pages and its row
// in that page.
type bridgeRow struct {
	page int32
	row  int32
}

// NewJoinBridge creates an empty bridge.
func NewJoinBridge() *JoinBridge {
	b := &JoinBridge{}
	b.cond = sync.NewCond(&b.mu)
	return b
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

// HashBuildOperator consumes the build side of a join and publishes the hash
// table to the bridge. It acts as a pipeline sink: it produces no output.
type HashBuildOperator struct {
	ctx      *OpContext
	bridge   *JoinBridge
	keyCols  []int
	keyTs    []types.Type
	bytes    int64
	finished bool
}

// NewHashBuild creates the build-side sink for a join. keyTs are the planner
// types of the key columns, aligned with keyCols: they, not input block
// types, decide the shared key table's layout (see fixedWidthKeys).
func NewHashBuild(ctx *OpContext, bridge *JoinBridge, keyCols []int, keyTs []types.Type) *HashBuildOperator {
	if ctx != nil {
		bridge.registerBuildStats(ctx.Stats)
	}
	return &HashBuildOperator{ctx: ctx, bridge: bridge, keyCols: keyCols, keyTs: keyTs}
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
		// released probes read a table that has no row list for new keys.
		b.mu.Unlock()
		return nil
	}
	nk := len(o.keyCols)
	if b.collector != nil {
		for i, sp := range b.collector.Specs() {
			if sp.KeyIdx < nk {
				b.collector.AddBlock(i, p.Col(o.keyCols[sp.KeyIdx]))
			}
		}
	}
	if spl := b.spl; spl != nil && spl.spilled {
		// The bridge has revoked its table to disk: stream this page straight
		// to the build spill file instead of regrowing the table (the drain
		// re-joins it partition by partition).
		b.rows += int64(p.RowCount())
		err := spl.writeBuildPage(p)
		b.mu.Unlock()
		return err
	}
	n := p.RowCount()
	b.pages = append(b.pages, p)
	b.matched = append(b.matched, nil)
	b.rows += int64(n)
	var ids []int32 // keyless joins probe every build row and keep no index
	if nk > 0 {
		if b.ktab == nil {
			b.ktab = newKeyTable(fixedWidthKeys(o.keyTs), nk)
		}
		ids = make([]int32, n)
		if nk != 1 || !o.addEncodedLocked(p, ids) {
			o.addBatchLocked(p, ids)
		}
	}
	b.keyIDs = append(b.keyIDs, ids)
	delta := p.SizeBytes() + int64(n*32)
	if b.spl != nil {
		// Spill-armed bridges account at bridge level: the delta lands under
		// the lock (so a concurrent revoke's reset captures it), while the
		// pool reservation syncs outside it (a reserve may block on this very
		// bridge's revocation).
		b.spl.bytes.Add(delta)
		b.mu.Unlock()
		return b.syncBuildMem()
	}
	b.mu.Unlock()
	o.bytes += delta
	return o.ctx.Mem.SetBytes(o.bytes)
}

// addBatchLocked is the general build path: batch-hash the page's key
// columns, then resolve each row to its key id. Caller holds the bridge lock.
func (o *HashBuildOperator) addBatchLocked(p *block.Page, ids []int32) {
	b := o.bridge
	t := b.ktab
	b.batch.reset(p, o.keyCols, t.fixed)
	for r := range ids {
		id := -1 // rows with NULL keys never match an equi-join
		if t.fixed {
			if !b.batch.nullKey(r) {
				cells, tags := b.batch.row(r)
				id, _ = t.getOrInsertFixed(b.batch.hashes[r], cells, tags)
			}
		} else if !rowKeyNull(p, r, o.keyCols) {
			b.batch.buf = encodeRowKey(b.batch.buf[:0], p, r, o.keyCols)
			id, _ = t.getOrInsertBytes(b.batch.hashes[r], b.batch.buf)
		}
		ids[r] = int32(id)
	}
}

// addEncodedLocked resolves a dictionary- or RLE-encoded single-key build
// page by distinct entry instead of per row: each referenced dictionary id
// (or the one RLE value) hits the key table once, and rows map onto key ids
// through the index vector. Unreferenced dictionary ids are never inserted.
// Returns false for flat key columns (the caller runs the batch path). Caller
// holds the bridge lock.
func (o *HashBuildOperator) addEncodedLocked(p *block.Page, ids []int32) bool {
	b := o.bridge
	switch kc := loadCol(p.Col(o.keyCols[0])).(type) {
	case *block.RLEBlock:
		id := int32(o.insertKeyCell(kc.Val, 0))
		for r := range ids {
			ids[r] = id
		}
		return true
	case *block.DictionaryBlock:
		b.memo = scratch(b.memo, kc.Dict.Len())
		memo := b.memo
		for j := range memo {
			memo[j] = -2 // unresolved
		}
		for r := range ids {
			j := kc.Indices[r]
			if memo[j] == -2 {
				memo[j] = int32(o.insertKeyCell(kc.Dict, int(j)))
			}
			ids[r] = memo[j]
		}
		return true
	}
	return false
}

// insertKeyCell inserts the single key cell blk[j] into the bridge's table,
// returning its key id, or -1 for NULL (equi-join keys never match NULL).
func (o *HashBuildOperator) insertKeyCell(blk block.Block, j int) int {
	b := o.bridge
	if blk.IsNull(j) {
		return -1
	}
	var id int
	if b.ktab.fixed {
		tag, cell := normValue(blk.Value(j))
		id, _ = b.ktab.getOrInsertFixed1(fixed1Hash(cell, tag), cell, tag)
	} else {
		b.batch.buf = appendCellKey(b.batch.buf[:0], blk, j)
		id, _ = b.ktab.getOrInsertBytes(bytes1Hash(b.batch.buf), b.batch.buf)
	}
	return id
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
// emits joined rows. It implements INNER, LEFT, RIGHT, FULL, CROSS, SEMI,
// and ANTI joins; RIGHT/FULL emit unmatched build rows after the probe side
// finishes.
type LookupJoinOperator struct {
	ctx       *OpContext
	bridge    *JoinBridge
	jt        plan.JoinType
	probeKeys []int
	residual  expr.Expr // over concatenated (probe ++ build) schema
	interp    expr.Interpreter
	probeTs   []types.Type
	buildTs   []types.Type
	batch     batchKeys   // probe-side scratch
	ids       []int32     // per-page row→build key id scratch
	memo      []int32     // per-page dictionary id→build key id scratch
	probeSel  []int32     // vectorized emit: probe row per output row
	buildSel  []bridgeRow // vectorized emit: build row per output row (page -1 = NULL-extend)

	pending      []*block.Page
	outPos       int
	finished     bool
	outerHandled bool
	pageSize     int
	drain        *joinSpillDrain // partitioned disk drain (spilled builds only)
}

// NewLookupJoin creates the probe-side operator.
func NewLookupJoin(ctx *OpContext, bridge *JoinBridge, jt plan.JoinType, probeKeys []int, residual expr.Expr, probeTs, buildTs []types.Type, pageSize int) *LookupJoinOperator {
	op := &LookupJoinOperator{
		ctx: ctx, bridge: bridge, jt: jt, probeKeys: probeKeys,
		residual: residual, probeTs: probeTs, buildTs: buildTs, pageSize: pageSize,
	}
	if op.pageSize <= 0 {
		op.pageSize = 4096
	}
	return op
}

func (o *LookupJoinOperator) IsBlocked() bool {
	if !o.bridge.Built() {
		return true
	}
	// A finished RIGHT/FULL probe waits for its peers before emitting
	// unmatched build rows.
	return o.finished && !o.outerHandled && !o.bridge.AllProbesFinished()
}

func (o *LookupJoinOperator) NeedsInput() bool {
	return o.bridge.Built() && !o.finished && len(o.pending) == 0
}

// outTypes returns the join's output column types.
func (o *LookupJoinOperator) outTypes() []types.Type {
	switch o.jt {
	case plan.SemiJoin, plan.AntiJoin:
		return o.probeTs
	default:
		return append(append([]types.Type{}, o.probeTs...), o.buildTs...)
	}
}

func (o *LookupJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	p = p.LoadLazy()
	b := o.bridge
	b.mu.Lock()
	if spl := b.spl; spl != nil {
		// From the first probe page on, the build table is no longer
		// revocable: probes hold row references and matched flags into it.
		spl.probeStarted = true
		if spl.spilled {
			// The build side lives on disk: route the probe page to the
			// probe spill file; the drain joins the two partition by
			// partition once all probes finish.
			err := spl.writeProbePage(p, o.probeKeys)
			b.mu.Unlock()
			return err
		}
	}
	defer b.mu.Unlock()

	builder := block.NewPageBuilder(o.outTypes())
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))

	flush := func() {
		if builder.RowCount() > 0 {
			o.pending = append(o.pending, builder.Build())
		}
	}

	// Keyed joins resolve every probe row to a build key id in one page-level
	// pass (layout compatibility is checked once per page, dictionary entries
	// probe once per distinct id, RLE once per page). Cross joins and keyless
	// semi joins have no key: every build row is a candidate for every probe
	// row.
	keyed := len(o.probeKeys) > 0 && o.jt != plan.CrossJoin
	var ids []int32
	var matches []bridgeRow
	if keyed {
		ids = o.resolveProbeLocked(p, b)
		// INNER/LEFT joins without a residual emit column-at-a-time: the
		// match list is flattened once and every output column is gathered
		// with a typed kernel instead of boxing row values (§V-B).
		if o.residual == nil && (o.jt == plan.InnerJoin || o.jt == plan.LeftJoin) {
			o.emitVecLocked(p, b, ids)
			return nil
		}
	} else {
		matches = allBuildRows(b)
	}

	for r := 0; r < p.RowCount(); r++ {
		if keyed {
			matches = nil
			if id := ids[r]; id >= 0 {
				matches = b.matchesLocked(id)
			}
		}

		switch o.jt {
		case plan.SemiJoin:
			if o.matchExists(p, r, matches, b) {
				for c := 0; c < nProbe; c++ {
					row[c] = p.Col(c).Value(r)
				}
				builder.AppendRow(row[:nProbe])
			}
		case plan.AntiJoin:
			if !o.matchExists(p, r, matches, b) {
				for c := 0; c < nProbe; c++ {
					row[c] = p.Col(c).Value(r)
				}
				builder.AppendRow(row[:nProbe])
			}
		default:
			matched := false
			for c := 0; c < nProbe; c++ {
				row[c] = p.Col(c).Value(r)
			}
			for _, m := range matches {
				bp := b.pages[m.page]
				for c := 0; c < len(o.buildTs); c++ {
					row[nProbe+c] = bp.Col(c).Value(int(m.row))
				}
				if o.residual != nil && !o.residualTrue(row) {
					continue
				}
				matched = true
				if b.matched[m.page] == nil {
					b.matched[m.page] = make([]bool, bp.RowCount())
				}
				b.matched[m.page][m.row] = true
				builder.AppendRow(row)
				if builder.RowCount() >= o.pageSize {
					flush()
					builder = block.NewPageBuilder(o.outTypes())
				}
			}
			if !matched && (o.jt == plan.LeftJoin || o.jt == plan.FullJoin) {
				for c := 0; c < len(o.buildTs); c++ {
					row[nProbe+c] = types.NullValue(o.buildTs[c])
				}
				builder.AppendRow(row)
			}
		}
		if builder.RowCount() >= o.pageSize {
			flush()
			builder = block.NewPageBuilder(o.outTypes())
		}
	}
	flush()
	return nil
}

// resolveProbeLocked maps every probe row to a build-table entry id (-1 = no
// match or NULL key) in one page-level pass. A probe column whose canonical
// encoding can never equal the build layout's (varchar keys against a
// fixed-width table: the tag bytes differ) resolves the whole page to
// no-match once, instead of being re-checked per row. Dictionary keys probe
// the table once per referenced entry, RLE keys once per page (§V-B). Caller
// holds the bridge lock.
func (o *LookupJoinOperator) resolveProbeLocked(p *block.Page, b *JoinBridge) []int32 {
	n := p.RowCount()
	o.ids = scratch(o.ids, n)
	ids := o.ids
	t := b.ktab
	if t == nil {
		for i := range ids {
			ids[i] = -1 // empty build side
		}
		return ids
	}
	if t.fixed {
		for _, c := range o.probeKeys {
			if !fixedWidthKey(p.Col(c).Type()) {
				for i := range ids {
					ids[i] = -1 // incompatible key layout: never matches
				}
				return ids
			}
		}
	}
	if len(o.probeKeys) == 1 {
		switch kc := loadCol(p.Col(o.probeKeys[0])).(type) {
		case *block.RLEBlock:
			id := int32(o.lookupKeyCell(t, kc.Val, 0))
			for i := range ids {
				ids[i] = id
			}
			return ids
		case *block.DictionaryBlock:
			o.memo = scratch(o.memo, kc.Dict.Len())
			memo := o.memo
			for j := range memo {
				memo[j] = -2 // unresolved: unreferenced ids never probe
			}
			for r := 0; r < n; r++ {
				j := kc.Indices[r]
				if memo[j] == -2 {
					memo[j] = int32(o.lookupKeyCell(t, kc.Dict, int(j)))
				}
				ids[r] = memo[j]
			}
			return ids
		}
	}
	o.batch.reset(p, o.probeKeys, t.fixed)
	for r := 0; r < n; r++ {
		id := -1
		if t.fixed {
			if !o.batch.nullKey(r) {
				cells, tags := o.batch.row(r)
				id = t.lookupFixed(o.batch.hashes[r], cells, tags)
			}
		} else if !rowKeyNull(p, r, o.probeKeys) {
			o.batch.buf = encodeRowKey(o.batch.buf[:0], p, r, o.probeKeys)
			id = t.lookupBytes(o.batch.hashes[r], o.batch.buf)
		}
		ids[r] = int32(id)
	}
	return ids
}

// lookupKeyCell probes the build table with the single key cell blk[j],
// returning its entry id, or -1 for no match or NULL.
func (o *LookupJoinOperator) lookupKeyCell(t *keyTable, blk block.Block, j int) int {
	if blk.IsNull(j) {
		return -1
	}
	if t.fixed {
		tag, cell := normValue(blk.Value(j))
		return t.lookupFixed1(fixed1Hash(cell, tag), cell, tag)
	}
	o.batch.buf = appendCellKey(o.batch.buf[:0], blk, j)
	return t.lookupBytes(bytes1Hash(o.batch.buf), o.batch.buf)
}

// emitVecLocked emits the joined rows for a probe page column-at-a-time.
// The resolved id vector is flattened into one (probe row, build row)
// selection, then each output column is gathered with a typed kernel:
// dictionary- and RLE-encoded probe columns stay encoded in the output, flat
// columns copy through their typed slices, and no row value is ever boxed.
// Only INNER and LEFT joins without a residual take this path — they need
// neither per-row residual evaluation nor build-side matched flags. Caller
// holds the bridge lock.
func (o *LookupJoinOperator) emitVecLocked(p *block.Page, b *JoinBridge, ids []int32) {
	n := p.RowCount()
	probeSel := o.probeSel[:0]
	buildSel := o.buildSel[:0]
	for r := 0; r < n; r++ {
		if id := ids[r]; id >= 0 {
			for _, m := range b.matchesLocked(id) {
				probeSel = append(probeSel, int32(r))
				buildSel = append(buildSel, m)
			}
		} else if o.jt == plan.LeftJoin {
			probeSel = append(probeSel, int32(r))
			buildSel = append(buildSel, bridgeRow{page: -1})
		}
	}
	o.probeSel, o.buildSel = probeSel, buildSel
	nProbe := len(o.probeTs)
	for start := 0; start < len(probeSel); start += o.pageSize {
		end := start + o.pageSize
		if end > len(probeSel) {
			end = len(probeSel)
		}
		cols := make([]block.Block, nProbe+len(o.buildTs))
		for c := 0; c < nProbe; c++ {
			cols[c] = gatherProbeCol(p.Col(c), probeSel[start:end])
		}
		for c := range o.buildTs {
			cols[nProbe+c] = gatherBuildCol(b.pages, c, o.buildTs[c], buildSel[start:end])
		}
		o.pending = append(o.pending, block.NewPage(cols...))
	}
}

// gatherProbeCol gathers col at the selected rows into a fresh block. Encoded
// blocks are gathered without decoding: a dictionary result shares the source
// dictionary, an RLE run stays a run.
func gatherProbeCol(col block.Block, sel []int32) block.Block {
	switch src := col.(type) {
	case *block.LongBlock:
		vals := make([]int64, len(sel))
		var nulls []bool
		if src.Nulls != nil {
			nulls = make([]bool, len(sel))
		}
		for i, r := range sel {
			vals[i] = src.Vals[r]
			if nulls != nil {
				nulls[i] = src.Nulls[r]
			}
		}
		return &block.LongBlock{T: src.T, Vals: vals, Nulls: nulls}
	case *block.DoubleBlock:
		vals := make([]float64, len(sel))
		var nulls []bool
		if src.Nulls != nil {
			nulls = make([]bool, len(sel))
		}
		for i, r := range sel {
			vals[i] = src.Vals[r]
			if nulls != nil {
				nulls[i] = src.Nulls[r]
			}
		}
		return block.NewDoubleBlock(vals, nulls)
	case *block.VarcharBlock:
		vals := make([]string, len(sel))
		var nulls []bool
		if src.Nulls != nil {
			nulls = make([]bool, len(sel))
		}
		for i, r := range sel {
			vals[i] = src.Vals[r]
			if nulls != nil {
				nulls[i] = src.Nulls[r]
			}
		}
		return block.NewVarcharBlock(vals, nulls)
	case *block.BoolBlock:
		vals := make([]bool, len(sel))
		var nulls []bool
		if src.Nulls != nil {
			nulls = make([]bool, len(sel))
		}
		for i, r := range sel {
			vals[i] = src.Vals[r]
			if nulls != nil {
				nulls[i] = src.Nulls[r]
			}
		}
		return block.NewBoolBlock(vals, nulls)
	case *block.DictionaryBlock:
		idx := make([]int32, len(sel))
		for i, r := range sel {
			idx[i] = src.Indices[r]
		}
		return block.NewDictionaryBlock(src.Dict, idx)
	case *block.RLEBlock:
		return block.NewRLEBlockFromBlock(src.Val, len(sel))
	default:
		vals := make([]types.Value, len(sel))
		for i, r := range sel {
			vals[i] = col.Value(int(r))
		}
		return block.BuildBlock(col.Type(), vals)
	}
}

// gatherBuildCol gathers build column c across the bridge's pages at the
// selected (page, row) pairs; page -1 produces NULL (LEFT-join extension).
func gatherBuildCol(pages []*block.Page, c int, t types.Type, sel []bridgeRow) block.Block {
	switch t {
	case types.Bigint, types.Date:
		vals := make([]int64, len(sel))
		nulls := make([]bool, len(sel))
		for i, m := range sel {
			if m.page < 0 {
				nulls[i] = true
				continue
			}
			col := pages[m.page].Col(c)
			if col.IsNull(int(m.row)) {
				nulls[i] = true
			} else {
				vals[i] = col.Long(int(m.row))
			}
		}
		return &block.LongBlock{T: t, Vals: vals, Nulls: nulls}
	case types.Double:
		vals := make([]float64, len(sel))
		nulls := make([]bool, len(sel))
		for i, m := range sel {
			if m.page < 0 {
				nulls[i] = true
				continue
			}
			col := pages[m.page].Col(c)
			if col.IsNull(int(m.row)) {
				nulls[i] = true
			} else {
				vals[i] = col.Double(int(m.row))
			}
		}
		return block.NewDoubleBlock(vals, nulls)
	case types.Varchar:
		vals := make([]string, len(sel))
		nulls := make([]bool, len(sel))
		for i, m := range sel {
			if m.page < 0 {
				nulls[i] = true
				continue
			}
			col := pages[m.page].Col(c)
			if col.IsNull(int(m.row)) {
				nulls[i] = true
			} else {
				vals[i] = col.Str(int(m.row))
			}
		}
		return block.NewVarcharBlock(vals, nulls)
	case types.Boolean:
		vals := make([]bool, len(sel))
		nulls := make([]bool, len(sel))
		for i, m := range sel {
			if m.page < 0 {
				nulls[i] = true
				continue
			}
			col := pages[m.page].Col(c)
			if col.IsNull(int(m.row)) {
				nulls[i] = true
			} else {
				vals[i] = col.Bool(int(m.row))
			}
		}
		return block.NewBoolBlock(vals, nulls)
	default:
		vals := make([]types.Value, len(sel))
		for i, m := range sel {
			if m.page < 0 {
				vals[i] = types.NullValue(t)
			} else {
				vals[i] = pages[m.page].Col(c).Value(int(m.row))
			}
		}
		return block.BuildBlock(t, vals)
	}
}

func allBuildRows(b *JoinBridge) []bridgeRow {
	var out []bridgeRow
	for pi, p := range b.pages {
		for r := 0; r < p.RowCount(); r++ {
			out = append(out, bridgeRow{page: int32(pi), row: int32(r)})
		}
	}
	return out
}

func (o *LookupJoinOperator) matchExists(p *block.Page, r int, matches []bridgeRow, b *JoinBridge) bool {
	if o.residual == nil {
		return len(matches) > 0
	}
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))
	for c := 0; c < nProbe; c++ {
		row[c] = p.Col(c).Value(r)
	}
	for _, m := range matches {
		bp := b.pages[m.page]
		for c := 0; c < len(o.buildTs); c++ {
			row[nProbe+c] = bp.Col(c).Value(int(m.row))
		}
		if o.residualTrue(row) {
			return true
		}
	}
	return false
}

// residualTrue interprets the residual over one candidate (probe ++ build)
// row; like a filter, a NULL or failing row is not a match.
func (o *LookupJoinOperator) residualTrue(row []types.Value) bool {
	v, err := o.interp.Eval(o.residual, expr.ValuesRow(row))
	return err == nil && !v.Null && v.B
}

func (o *LookupJoinOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	o.bridge.ProbeFinished()
	if o.bridge.spillDrainPending() {
		// Spilled build: every join type defers to the disk drain, which one
		// probe operator claims in Output once all probes have finished.
		return
	}
	if o.jt != plan.RightJoin && o.jt != plan.FullJoin {
		o.outerHandled = true
	}
}

func (o *LookupJoinOperator) emitUnmatchedBuild() {
	b := o.bridge
	b.mu.Lock()
	defer b.mu.Unlock()
	builder := block.NewPageBuilder(o.outTypes())
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))
	for c := 0; c < nProbe; c++ {
		row[c] = types.NullValue(o.probeTs[c])
	}
	for pi, p := range b.pages {
		for r := 0; r < p.RowCount(); r++ {
			if flags := b.matched[pi]; flags != nil && flags[r] {
				continue
			}
			for c := 0; c < len(o.buildTs); c++ {
				row[nProbe+c] = p.Col(c).Value(r)
			}
			builder.AppendRow(row)
			if builder.RowCount() >= o.pageSize {
				o.pending = append(o.pending, builder.Build())
				builder = block.NewPageBuilder(o.outTypes())
			}
		}
	}
	if builder.RowCount() > 0 {
		o.pending = append(o.pending, builder.Build())
	}
}

func (o *LookupJoinOperator) Output() (*block.Page, error) {
	if o.finished && !o.outerHandled && o.bridge.AllProbesFinished() {
		o.outerHandled = true
		if o.bridge.spillDrainPending() {
			spl, ok, err := o.bridge.claimSpillDrain()
			if err != nil {
				return nil, err
			}
			if ok {
				o.drain = newJoinSpillDrain(o, spl)
			}
		} else if o.bridge.ClaimOuter() {
			o.emitUnmatchedBuild()
		}
	}
	if o.drain != nil {
		p, err := o.drain.next()
		if err != nil {
			return nil, err
		}
		if p != nil {
			return p, nil
		}
	}
	if o.outPos >= len(o.pending) {
		if o.outPos > 0 {
			o.pending = o.pending[:0]
			o.outPos = 0
		}
		return nil, nil
	}
	p := o.pending[o.outPos]
	o.outPos++
	o.ctx.recordOut(p)
	return p, nil
}

func (o *LookupJoinOperator) IsFinished() bool {
	return o.finished && o.outerHandled && o.outPos >= len(o.pending) &&
		(o.drain == nil || o.drain.done)
}

func (o *LookupJoinOperator) Close() error {
	if o.drain != nil {
		o.drain.close()
	}
	return nil
}

// IndexJoinOperator joins probe rows against a connector index
// (paper §IV-C1): for every probe row it looks up matching rows through the
// connector's IndexLookup, avoiding a full build-side scan. Used when the
// optimizer selects StrategyIndex against normalized production stores.
type IndexJoinOperator struct {
	ctx       *OpContext
	lookup    IndexLookupFunc
	jt        plan.JoinType
	probeKeys []int
	probeTs   []types.Type
	buildTs   []types.Type
	pending   []*block.Page
	outPos    int
	finished  bool
	pageSize  int
}

// IndexLookupFunc probes the connector index with one key tuple.
type IndexLookupFunc func(keys []types.Value) (*block.Page, error)

// NewIndexJoin creates an index join operator.
func NewIndexJoin(ctx *OpContext, lookup IndexLookupFunc, jt plan.JoinType, probeKeys []int, probeTs, buildTs []types.Type, pageSize int) *IndexJoinOperator {
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &IndexJoinOperator{ctx: ctx, lookup: lookup, jt: jt, probeKeys: probeKeys, probeTs: probeTs, buildTs: buildTs, pageSize: pageSize}
}

func (o *IndexJoinOperator) NeedsInput() bool { return !o.finished && len(o.pending) == 0 }
func (o *IndexJoinOperator) IsBlocked() bool  { return false }

func (o *IndexJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	p = p.DecodeAll()
	nProbe := len(o.probeTs)
	ts := append(append([]types.Type{}, o.probeTs...), o.buildTs...)
	builder := block.NewPageBuilder(ts)
	row := make([]types.Value, len(ts))
	keys := make([]types.Value, len(o.probeKeys))
	for r := 0; r < p.RowCount(); r++ {
		for i, c := range o.probeKeys {
			keys[i] = p.Col(c).Value(r)
		}
		res, err := o.lookup(keys)
		if err != nil {
			return fmt.Errorf("index lookup: %w", err)
		}
		for c := 0; c < nProbe; c++ {
			row[c] = p.Col(c).Value(r)
		}
		matched := false
		if res != nil {
			for br := 0; br < res.RowCount(); br++ {
				matched = true
				for c := 0; c < len(o.buildTs); c++ {
					row[nProbe+c] = res.Col(c).Value(br)
				}
				builder.AppendRow(row)
			}
		}
		if !matched && o.jt == plan.LeftJoin {
			for c := 0; c < len(o.buildTs); c++ {
				row[nProbe+c] = types.NullValue(o.buildTs[c])
			}
			builder.AppendRow(row)
		}
		if builder.RowCount() >= o.pageSize {
			o.pending = append(o.pending, builder.Build())
			builder = block.NewPageBuilder(ts)
		}
	}
	if builder.RowCount() > 0 {
		o.pending = append(o.pending, builder.Build())
	}
	return nil
}

func (o *IndexJoinOperator) Output() (*block.Page, error) {
	if o.outPos >= len(o.pending) {
		if o.outPos > 0 {
			o.pending = o.pending[:0]
			o.outPos = 0
		}
		return nil, nil
	}
	p := o.pending[o.outPos]
	o.outPos++
	o.ctx.recordOut(p)
	return p, nil
}

func (o *IndexJoinOperator) Finish()          { o.finished = true }
func (o *IndexJoinOperator) IsFinished() bool { return o.finished && o.outPos >= len(o.pending) }
func (o *IndexJoinOperator) Close() error     { return nil }
