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

	// Accounting is the bridge's, not a builder's: the pages and the index are
	// shared. mem is the context EnableSpill gave, else the first builder's;
	// bytes is what the bridge holds — every page, plus buildIndexBytes of the
	// rows so far until the index exists and its real size from then on. bytes
	// changes under mu; the reservation follows outside it (syncBuildMem),
	// since a reserve may block on this very bridge's revocation.
	mem *memory.LocalContext
	// memMu serializes SetBytes callers; Revoke only TryLocks it (a builder
	// holding it may be blocked inside SetBytes -> Reserve -> TryRevoke ->
	// Revoke on this very bridge, and resyncs itself afterwards anyway).
	memMu sync.Mutex
	bytes atomic.Int64
	// buildErr is a failed true-up of the built index that no revocation could
	// absorb; probes report it.
	buildErr error

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

	// Dynamic-filter collection: the built transition hands the table's
	// distinct keys (columns keyCols of the build pages) to the collector
	// and publishes the summaries through onFilters, once. A cancelled build
	// never publishes — its partial key set would wrongly filter probe rows —
	// and a spilled one publishes "never filter": its rows are on disk.
	collector   *dynfilter.Collector
	onFilters   func([]*dynfilter.Summary)
	filtersDone bool

	// spl is the disk-backed spill state (nil when spilling is disabled for
	// this join); see joinspill.go. Set once via EnableSpill before any
	// driver runs, so reading the pointer itself needs no lock.
	spl *bridgeSpill
}

// SetFilterCollector installs the dynamic-filter collector, which summarizes
// the build key columns, and its publish callback, before any driver runs.
func (b *JoinBridge) SetFilterCollector(c *dynfilter.Collector, publish func([]*dynfilter.Summary)) {
	b.mu.Lock()
	b.collector, b.onFilters = c, publish
	b.mu.Unlock()
}

// summarizeKeysLocked summarizes a just-built table, one row per distinct key:
// each key's first row, in arrival order, the order its columns are laid out
// in. A row is its key's first unless its key is NULL or another row links to
// it.
func (b *JoinBridge) summarizeKeysLocked() {
	switch c := b.collector; {
	case c == nil:
	case b.spl != nil && b.spl.spilled:
		c.Disable()
	case b.ktab != nil: // else no build row arrived: the summaries stay empty
		keyed := int64(b.ktab.keys) // rows with a non-NULL key
		var linked []uint64         // bit pos: another row links to pos
		if b.next != nil {
			linked = make([]uint64, (len(b.next)+63)/64)
			for _, n := range b.next {
				if n != 0 {
					linked[(n-1)/64] |= 1 << ((n - 1) % 64)
					keyed++
				}
			}
		}
		c.Collect(keyed, b.ktab.keys, b.keyCols, func(visit func(*block.Page, int)) {
			pos := -1
			for _, p := range b.pages {
				for r := 0; r < p.RowCount(); r++ {
					if pos++; !b.ktab.nullKey(pos) && (linked == nil || linked[pos/64]&(1<<(pos%64)) == 0) {
						visit(p, r)
					}
				}
			}
		})
	}
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
	return func() { fn(col.Summaries()) }
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
			if err := spl.finishBuild(); err != nil && spl.err == nil {
				spl.err = err
			}
		}
		b.summarizeKeysLocked()
	}
	publish := b.takeFilterPublishLocked()
	notify := b.notifyLocked()
	b.mu.Unlock()
	if publish != nil {
		publish()
	}
	notify()
}

// buildIndexBytes is what the index over rows build rows takes while it is
// built, and what the bridge has reserved for it by then, page by page: the
// key table sized for a key a row. Neither the links a build with duplicate
// keys adds nor the arena of a bytes-layout table is in it, since neither is
// known before the keys are; the true-up adds them.
func buildIndexBytes(rows, nk int, fixed bool) int64 {
	if rows == 0 || nk == 0 {
		return 0
	}
	return keyTableBytes(fixed, nk, rows)
}

// buildIndexLocked indexes the build pages by position, a row's place in the
// build with pages in arrival order: the key table stores every row's key,
// page by page, and then links the positions last to first, so that a slot
// ends on its key's first position and each duplicate is chained to the next
// one in arrival order. A NULL key (never matches) is not linked. A keyless
// join probes every build position and keeps no key table.
func (b *JoinBridge) buildIndexLocked() {
	b.locate()
	nk, rows, fixed := len(b.keyCols), int(b.positions()), fixedWidthKeys(b.keyTs)
	reserved := buildIndexBytes(rows, nk, fixed)
	if nk > 0 && rows > 0 {
		t := newKeyTable(fixed, nk, rows)
		var bk batchKeys
		for _, p := range b.pages {
			t.appendKeys(p, b.keyCols, &bk)
		}
		var next []int32
		for pos := rows - 1; pos >= 0; pos-- {
			if t.nullKey(pos) {
				continue
			}
			if q := t.link(pos); q >= 0 {
				if next == nil {
					next = make([]int32, rows)
				}
				next[pos] = int32(q + 1)
			}
		}
		b.ktab, b.next = t, next
	}
	b.bytes.Add(b.indexBytes() - reserved)
}

// builtTable is what a probe reads. Writers hold the bridge's mu; nothing
// changes once the bridge is built and a probe page has arrived (a revocation
// only happens before that, Cancel leaves a built table alone), so a probe
// copies it under mu, once per page, and reads the copy unlocked.
//
// Its rows are build positions: page pg holds positions starts[pg] up to
// starts[pg+1], and steps[k] is the page that holds position k<<shift. ktab's
// entries are the positions' keys, and a slot holds the first position of its
// key; next[pos] is the key's position after pos, plus one (0: pos is its
// last), so a key's rows come out in arrival order. next is nil while no key
// repeats.
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
// level.
func (t *builtTable) locate() {
	t.starts = make([]int32, len(t.pages)+1)
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
	t.steps = make([]int32, (rows-1)>>t.shift+1)
	pg := int32(0)
	for k := range t.steps {
		for t.starts[pg+1] <= int32(k<<t.shift) {
			pg++
		}
		t.steps[k] = pg
	}
}

// indexBytes is what the index over the pages holds.
func (t *builtTable) indexBytes() int64 {
	n := int64(4*cap(t.starts) + 4*cap(t.steps) + 4*cap(t.next))
	if t.ktab != nil {
		n += t.ktab.memBytes()
	}
	return n
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
func (t *builtTable) row(pos int32) bridgeRow {
	pg := t.steps[pos>>t.shift]
	for t.starts[pg+1] <= pos {
		pg++
	}
	return bridgeRow{page: pg, row: pos - t.starts[pg]}
}

// after is the position after pos with the same key, or -1.
func (t *builtTable) after(pos int32) int32 {
	if t.next == nil {
		return -1
	}
	return t.next[pos] - 1
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

// bridgeRow addresses one build row: its page in pages and its row in it.
type bridgeRow struct {
	page int32
	row  int32
}

// NewJoinBridge creates an empty bridge.
func NewJoinBridge() *JoinBridge { return &JoinBridge{} }

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
// types, decide the shared key table's layout (see fixedWidthKeys).
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
	if spl := b.spl; spl != nil && spl.spilled {
		// The bridge has revoked its pages to disk: stream this one straight
		// to the build spill file (the drain re-joins it partition by
		// partition).
		b.rows += int64(n)
		err := spl.writeBuildPage(p, b.keyCols)
		b.mu.Unlock()
		return err
	}
	// Not spilled: every row so far is in memory, and the index over them is
	// reserved as they arrive, so that a capped pool revokes before the built
	// transition allocates it.
	nk, fixed := len(b.keyCols), fixedWidthKeys(b.keyTs)
	index := buildIndexBytes(int(b.rows)+n, nk, fixed) - buildIndexBytes(int(b.rows), nk, fixed)
	b.pages = append(b.pages, p)
	b.rows += int64(n)
	b.bytes.Add(p.SizeBytes() + index)
	b.mu.Unlock()
	return b.syncBuildMem()
}

// resolveKeys resolves every row of p to the first build position of its key
// in t; -1: a NULL key (never matches an equi-join) or no such key. Pages whose
// key columns all arrive dictionary- or RLE-encoded ask the table once per
// combination of entries they reference (enc), the rest once per row of a
// batch-hashed page. It reports which of the two it was.
func resolveKeys(t *keyTable, bk *batchKeys, enc *encodedKeys, p *block.Page, cols []int, ids []int32) (encoded bool) {
	if _, encoded = enc.resolve(p, cols, ids, func(r int) int32 { return keyRow(t, bk, p, cols, r) }); !encoded {
		resolveBatch(t, bk, p, cols, ids)
	}
	return encoded
}

// resolveBatch is the general path of the probe: batch-hash the page's key
// columns, then look each row's key up in t.
func resolveBatch(t *keyTable, bk *batchKeys, p *block.Page, cols []int, ids []int32) {
	bk.reset(p, cols, t.fixed)
	if t.fixed && len(cols) == 1 {
		// One fixed-width key, which is most joins: probe on scalars, no
		// per-row slicing (as the aggregation's resolveVecFixed).
		cells, tags, hashes := bk.cells, bk.tags, bk.hashes
		for r := range ids {
			id := -1
			if tags[r] != cellNull {
				id = t.lookupFixed1(hashes[r], cells[r], tags[r])
			}
			ids[r] = int32(id)
		}
		return
	}
	for r := range ids {
		id := -1
		switch {
		case t.fixed && bk.nullKey(r), !t.fixed && rowKeyNull(p, r, cols):
		case t.fixed:
			cells, tags := bk.row(r)
			id = t.lookupFixed(bk.hashes[r], cells, tags)
		default:
			bk.buf = encodeRowKey(bk.buf[:0], p, r, cols)
			id = t.lookupBytes(bk.hashes[r], bk.buf)
		}
		ids[r] = int32(id)
	}
}

// keyRow looks the key of the single row r of p up in t, as resolveBatch
// looks up every row's.
func keyRow(t *keyTable, bk *batchKeys, p *block.Page, cols []int, r int) int32 {
	if rowKeyNull(p, r, cols) {
		return -1
	}
	h := bk.rowKey(p, cols, r, t.fixed)
	if t.fixed {
		return int32(t.lookupFixed(h, bk.cells, bk.tags))
	}
	return int32(t.lookupBytes(h, bk.buf))
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
// finishes. A keyed INNER, LEFT, SEMI or ANTI join without a residual is
// selection first: AddInput flattens the page's matches into one (probe row,
// build row) selection and each Output gathers the next pageSize rows of it,
// column at a time. The other shapes — a residual, RIGHT/FULL's matched
// flags, no key — join row by row through boxed values.
type LookupJoinOperator struct {
	ctx       *OpContext
	bridge    *JoinBridge
	jt        plan.JoinType
	probeKeys []int
	residual  expr.Expr // over concatenated (probe ++ build) schema
	interp    expr.Interpreter
	probeTs   []types.Type
	buildTs   []types.Type
	// The probe and build channels the join emits, probe side first: every
	// one unless SetOutputChannels says less; no build channel for SEMI/ANTI.
	probeOut, buildOut []int
	lend               bool // LendOutput

	batch batchKeys   // probe-side scratch
	ids   []int32     // per-page row→build key id scratch
	enc   encodedKeys // probe pages whose keys all arrive dictionary/RLE-encoded

	// The selection path: the probe page being emitted, its output selection
	// (build page -1 = NULL-extend) and how far Output has gathered it; a typed
	// view per build channel, the vectors a lending join fills per column.
	tab      builtTable
	probe    *block.Page
	probeSel []int32
	buildSel []bridgeRow
	selPos   int
	chans    []*buildChan
	vecs     []joinVec

	rows         *rowSink // the row path's output
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
	op.probeOut = allChannels(len(probeTs))
	if jt != plan.SemiJoin && jt != plan.AntiJoin {
		op.buildOut = allChannels(len(buildTs))
	}
	return op
}

func allChannels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// SetOutputChannels names, before the first page, the channels the join
// emits: the pipeline compiler derives them from what the operator above reads.
func (o *LookupJoinOperator) SetOutputChannels(probe, build []int) {
	o.probeOut, o.buildOut = probe, build
}

// ReleasesInput declares to the pipeline compiler that the join is done with
// a probe page, and every array under it, by the next time NeedsInput is true:
// it asks for no page while it has rows of the last one to emit, what it emits
// is gathered into other arrays (a dictionary or run shares its dictionary or
// value, which nobody lends), and a spilled probe page is encoded at once.
func (o *LookupJoinOperator) ReleasesInput() bool { return true }

// LendOutput tells the join, before its first page, that its consumer
// releases its input: flat columns are then gathered into vectors the join
// owns and refills in its next Output, which the driver calls only once the
// consumer wants input again.
func (o *LookupJoinOperator) LendOutput(Operator) { o.lend = true }

// LendsOutput reports whether LendOutput has been called.
func (o *LookupJoinOperator) LendsOutput() bool { return o.lend }

// IsBlocked: on the build, and — a finished RIGHT/FULL probe — on its peers,
// before it emits unmatched build rows.
func (o *LookupJoinOperator) IsBlocked() bool {
	return !o.bridge.Built() || o.finished && !o.outerHandled && !o.bridge.AllProbesFinished()
}

func (o *LookupJoinOperator) NeedsInput() bool {
	return o.bridge.Built() && !o.finished && o.probe == nil && o.rows.empty()
}

// rowSink takes the row-at-a-time joins' output: the listed columns of every
// emitted row go to a page builder, full pages onto a queue Output drains.
type rowSink struct {
	idx      []int // output column → its position in an emitted row
	pageSize int
	builder  *block.PageBuilder
	out      []types.Value
	pages    []*block.Page
	pos      int
}

// newRowSink creates a sink for rows of types ts, of which it keeps idx.
func newRowSink(idx []int, ts []types.Type, pageSize int) *rowSink {
	outTs := make([]types.Type, len(idx))
	for i, c := range idx {
		outTs[i] = ts[c]
	}
	return &rowSink{idx: idx, pageSize: pageSize, builder: block.NewPageBuilder(outTs), out: make([]types.Value, len(idx))}
}

func (s *rowSink) emit(row []types.Value) {
	for i, c := range s.idx {
		s.out[i] = row[c]
	}
	s.builder.AppendRow(s.out)
	if s.builder.RowCount() >= s.pageSize {
		s.flush()
	}
}

func (s *rowSink) flush() {
	if s.builder.RowCount() > 0 {
		s.pages = append(s.pages, s.builder.Build())
	}
}

func (s *rowSink) empty() bool { return s == nil || s.pos >= len(s.pages) }

func (s *rowSink) next() *block.Page {
	if s.empty() {
		return nil
	}
	p := s.pages[s.pos]
	if s.pos++; s.pos == len(s.pages) {
		s.pages, s.pos = s.pages[:0], 0
	}
	return p
}

// sink keeps the listed channels of the boxed (probe ++ build) rows.
func (o *LookupJoinOperator) sink() *rowSink {
	if o.rows == nil {
		idx := append([]int(nil), o.probeOut...)
		for _, c := range o.buildOut {
			idx = append(idx, len(o.probeTs)+c)
		}
		o.rows = newRowSink(idx, append(o.probeTs[:len(o.probeTs):len(o.probeTs)], o.buildTs...), o.pageSize)
	}
	return o.rows
}

func (o *LookupJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
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
			err := spl.writeProbePage(p, o.probeKeys)
			b.mu.Unlock()
			return err
		}
	}
	o.tab = b.builtTable
	b.mu.Unlock()

	// Cross joins and keyless semi joins have no key: every build row is a
	// candidate for every probe row.
	switch {
	case len(o.probeKeys) == 0 || o.jt == plan.CrossJoin:
		o.joinRows(p, nil)
	case o.residual != nil || o.jt == plan.RightJoin || o.jt == plan.FullJoin:
		o.joinRows(p, o.resolveProbe(p))
	default:
		o.selectMatches(p, o.resolveProbe(p))
	}
	return nil
}

// joinRows is the row path: every candidate (probe ++ build) row is boxed and
// put to the residual. A probe row's candidates are its key's build positions,
// from the first (ids) along the links, or — ids == nil — every position.
func (o *LookupJoinOperator) joinRows(p *block.Page, ids []int32) {
	outer := o.jt == plan.RightJoin || o.jt == plan.FullJoin
	if outer {
		// The matched flags are shared by every probe driver of the bridge.
		o.bridge.mu.Lock()
		defer o.bridge.mu.Unlock()
	}
	t := &o.tab
	first, after := func(r int) int32 { return ids[r] }, t.after
	if ids == nil {
		n, start := t.positions(), int32(-1)
		if n > 0 {
			start = 0
		}
		first = func(int) int32 { return start }
		after = func(pos int32) int32 {
			if pos+1 < n {
				return pos + 1
			}
			return -1
		}
	}
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))
	var boxed expr.Row = expr.ValuesRow(row) // the residual reads row as it is refilled
	out := o.sink()
	for r := 0; r < p.RowCount(); r++ {
		for c := 0; c < nProbe; c++ {
			row[c] = p.Col(c).Value(r)
		}
		matched := false
		for pos := first(r); pos >= 0; pos = after(pos) {
			m := t.row(pos)
			bp := t.pages[m.page]
			for c := range o.buildTs {
				row[nProbe+c] = bp.Col(c).Value(int(m.row))
			}
			if o.residual != nil && !o.residualTrue(boxed) {
				continue
			}
			matched = true
			if o.jt == plan.SemiJoin || o.jt == plan.AntiJoin {
				break
			}
			if outer {
				if o.bridge.matched == nil {
					o.bridge.matched = make([]bool, t.positions())
				}
				o.bridge.matched[pos] = true
			}
			out.emit(row)
		}
		switch {
		case o.jt == plan.SemiJoin && matched, o.jt == plan.AntiJoin && !matched:
			out.emit(row)
		case !matched && (o.jt == plan.LeftJoin || o.jt == plan.FullJoin):
			for c, typ := range o.buildTs {
				row[nProbe+c] = types.NullValue(typ)
			}
			out.emit(row)
		}
	}
	out.flush()
}

// resolveProbe maps every probe row to the first build position of its key
// (-1 = no match or NULL key) in one page-level pass. A probe column whose
// canonical encoding can never equal the build layout's (varchar keys against
// a fixed-width table: the tag bytes differ) resolves the whole page to
// no-match once. Dictionary keys probe the table once per referenced entry,
// RLE keys once per page (§V-B).
func (o *LookupJoinOperator) resolveProbe(p *block.Page) []int32 {
	o.ids = scratch(o.ids, p.RowCount())
	ids, t := o.ids, o.tab.ktab
	compatible := t != nil // else an empty build side
	for _, c := range o.probeKeys {
		compatible = compatible && (!t.fixed || fixedWidthKey(p.Col(c).Type()))
	}
	if !compatible {
		for i := range ids {
			ids[i] = -1
		}
		return ids
	}
	if resolveKeys(t, &o.batch, &o.enc, p, o.probeKeys, ids) {
		o.ctx.recordDictRows(len(ids))
	}
	return ids
}

// selectMatches flattens the resolved positions into the page's output
// selection: a pair per match, plus a NULL-extended pair per unmatched probe
// row for LEFT; the matched (SEMI) or unmatched (ANTI) probe rows alone. Both
// vectors start at the page's row count — every match, when no build key
// repeats — and are kept from page to page. A page that selects nothing is
// dropped.
func (o *LookupJoinOperator) selectMatches(p *block.Page, ids []int32) {
	t := &o.tab
	semi, anti, left := o.jt == plan.SemiJoin, o.jt == plan.AntiJoin, o.jt == plan.LeftJoin
	probeSel, buildSel := scratch(o.probeSel, len(ids))[:0], o.buildSel[:0]
	if !semi && !anti {
		buildSel = scratch(buildSel, len(ids))[:0]
	}
	for r, id := range ids {
		switch {
		case semi || anti:
			if (id >= 0) == semi {
				probeSel = append(probeSel, int32(r))
			}
		case id >= 0:
			for pos := id; pos >= 0; pos = t.after(pos) {
				probeSel = append(probeSel, int32(r))
				buildSel = append(buildSel, t.row(pos))
			}
		case left:
			probeSel = append(probeSel, int32(r))
			buildSel = append(buildSel, bridgeRow{page: -1})
		}
	}
	o.probeSel, o.buildSel, o.selPos = probeSel, buildSel, 0
	if len(probeSel) > 0 {
		o.probe = p
	}
}

// gatherNext builds the selection's next output page, the listed channels only.
func (o *LookupJoinOperator) gatherNext() *block.Page {
	start, end := o.selPos, min(o.selPos+o.pageSize, len(o.probeSel))
	nProbe, nOut := len(o.probeOut), len(o.probeOut)+len(o.buildOut)
	if o.vecs == nil {
		o.vecs, o.chans = make([]joinVec, nOut), make([]*buildChan, len(o.buildOut))
	}
	for i := range o.vecs {
		if v := &o.vecs[i]; o.lend && expr.PoisonsBorrowed() {
			expr.PoisonVectors(v.longs, v.doubles, v.strs, v.bools, v.nulls, v.idx)
		}
	}
	out := block.NewEmptyPage(end - start)
	if nOut > 0 {
		cols := make([]block.Block, nOut)
		for i, c := range o.probeOut {
			cols[i] = o.gatherProbe(&o.vecs[i], o.probe.Col(c), o.probeSel[start:end])
		}
		for i, c := range o.buildOut {
			if o.chans[i] == nil {
				o.chans[i] = newBuildChan(o.tab.pages, c, o.buildTs[c], o.jt == plan.LeftJoin)
			}
			cols[nProbe+i] = o.gatherBuild(&o.vecs[nProbe+i], o.chans[i], o.buildSel[start:end])
		}
		out = block.NewPage(cols...)
	}
	if o.selPos = end; end == len(o.probeSel) {
		o.probe = nil
	}
	return out
}

// joinVec is the storage of one output column of a join that lends its output,
// refilled page after page; a join that does not gathers into fresh arrays.
type joinVec struct {
	longs   []int64
	doubles []float64
	strs    []string
	bools   []bool
	nulls   []bool
	idx     []int32 // a dictionary column's indices; its dictionary is never lent
}

// vec returns the n-long array a gather writes: fresh, or *own when lent.
func vec[T any](own *[]T, n int, lend bool) []T {
	if !lend {
		return make([]T, n)
	}
	*own = scratch(*own, n)
	return *own
}

func gatherAt[T any](dst, src []T, sel []int32) []T {
	for i, r := range sel {
		dst[i] = src[r]
	}
	return dst
}

// gatherProbe gathers probe column col at the selected rows. Encoded columns
// are gathered without decoding: a dictionary result shares the source
// dictionary under gathered indices, lent like a flat vector; an RLE run stays
// a run.
func (o *LookupJoinOperator) gatherProbe(v *joinVec, col block.Block, sel []int32) block.Block {
	n := len(sel)
	nulls := func(src []bool) []bool {
		if src == nil {
			return nil
		}
		return gatherAt(vec(&v.nulls, n, o.lend), src, sel)
	}
	switch src := col.(type) {
	case *block.LongBlock:
		return &block.LongBlock{T: src.T, Vals: gatherAt(vec(&v.longs, n, o.lend), src.Vals, sel), Nulls: nulls(src.Nulls)}
	case *block.DoubleBlock:
		return block.NewDoubleBlock(gatherAt(vec(&v.doubles, n, o.lend), src.Vals, sel), nulls(src.Nulls))
	case *block.VarcharBlock:
		return block.NewVarcharBlock(gatherAt(vec(&v.strs, n, o.lend), src.Vals, sel), nulls(src.Nulls))
	case *block.BoolBlock:
		return block.NewBoolBlock(gatherAt(vec(&v.bools, n, o.lend), src.Vals, sel), nulls(src.Nulls))
	case *block.DictionaryBlock:
		return block.NewDictionaryBlock(src.Dict, gatherAt(vec(&v.idx, n, o.lend), src.Indices, sel))
	case *block.RLEBlock:
		return block.NewRLEBlockFromBlock(src.Val, n)
	default:
		vals := make([]types.Value, n)
		for i, r := range sel {
			vals[i] = col.Value(int(r))
		}
		return block.BuildBlock(col.Type(), vals)
	}
}

// buildChan is one build channel as the gather kernels read it: page pg's
// values are the pg-th slice of the field its type selects, under null mask
// nulls[pg] (nil: none). A channel whose pages all arrive under one dictionary
// (a stored low-cardinality column) is read as its index vectors instead and
// gathered into a dictionary block over dict: four bytes a row, and a group-by
// above the join resolves it by entry. Array channels have no slices and are
// gathered boxed.
type buildChan struct {
	c       int
	t       types.Type
	longs   [][]int64
	doubles [][]float64
	strs    [][]string
	bools   [][]bool
	nulls   [][]bool
	anyNull bool
	dict    block.Block
	idx     [][]int32
}

// sharedDictionary returns the dictionary every page's column c is encoded
// under, or nil when they are not all dictionary blocks over one.
func sharedDictionary(pages []*block.Page, c int) block.Block {
	var dict block.Block
	for _, p := range pages {
		d, ok := p.Col(c).(*block.DictionaryBlock)
		if !ok || (dict != nil && d.Dict != dict) {
			return nil
		}
		dict = d.Dict
	}
	return dict
}

// flatPage returns col as flat block B, reading out an encoded or untyped one.
func flatPage[B block.Block](col block.Block, t types.Type) B {
	col = block.Decode(col)
	if b, ok := col.(B); ok {
		return b
	}
	vals := make([]types.Value, col.Len())
	for r := range vals {
		vals[r] = col.Value(r)
	}
	return block.BuildBlock(t, vals).(B)
}

// newBuildChan reads build channel c of pages. nullExtends: the join emits
// rows with no build row (LEFT), which a dictionary without a NULL entry
// cannot say, so the channel is read flat.
func newBuildChan(pages []*block.Page, c int, t types.Type, nullExtends bool) *buildChan {
	bc := &buildChan{c: c, t: t}
	if !nullExtends {
		if bc.dict = sharedDictionary(pages, c); bc.dict != nil {
			for _, p := range pages {
				bc.idx = append(bc.idx, p.Col(c).(*block.DictionaryBlock).Indices)
			}
			return bc
		}
	}
	for _, p := range pages {
		var nulls []bool
		switch col := p.Col(c); t {
		case types.Bigint, types.Date:
			b := flatPage[*block.LongBlock](col, t)
			bc.longs, nulls = append(bc.longs, b.Vals), b.Nulls
		case types.Double:
			b := flatPage[*block.DoubleBlock](col, t)
			bc.doubles, nulls = append(bc.doubles, b.Vals), b.Nulls
		case types.Varchar:
			b := flatPage[*block.VarcharBlock](col, t)
			bc.strs, nulls = append(bc.strs, b.Vals), b.Nulls
		case types.Boolean:
			b := flatPage[*block.BoolBlock](col, t)
			bc.bools, nulls = append(bc.bools, b.Vals), b.Nulls
		}
		bc.nulls = append(bc.nulls, nulls)
		bc.anyNull = bc.anyNull || nulls != nil
	}
	return bc
}

// gatherRows copies the selected build rows of one channel into dst. mask is
// nil when no row can be NULL; otherwise it receives every row's NULL flag: a
// NULL in the build column, or page -1, a probe row LEFT-joined to nothing.
func gatherRows[T any](dst []T, mask []bool, pages [][]T, nulls [][]bool, sel []bridgeRow) []T {
	if mask == nil {
		for i, m := range sel {
			dst[i] = pages[m.page][m.row]
		}
		return dst
	}
	var null T
	for i, m := range sel {
		if m.page < 0 || (nulls[m.page] != nil && nulls[m.page][m.row]) {
			dst[i], mask[i] = null, true
		} else {
			dst[i], mask[i] = pages[m.page][m.row], false
		}
	}
	return dst
}

// gatherBuild gathers build channel bc at the selected (page, row) pairs, with
// a null mask only when the channel holds NULLs or the join null-extends: a
// NULL-free build column stays on its consumer's no-null-check kernels.
func (o *LookupJoinOperator) gatherBuild(v *joinVec, bc *buildChan, sel []bridgeRow) block.Block {
	n := len(sel)
	if bc.dict != nil {
		return block.NewDictionaryBlock(bc.dict, gatherRows(vec(&v.idx, n, o.lend), nil, bc.idx, nil, sel))
	}
	var mask []bool
	if bc.anyNull || o.jt == plan.LeftJoin {
		mask = vec(&v.nulls, n, o.lend)
	}
	switch bc.t {
	case types.Bigint, types.Date:
		return &block.LongBlock{T: bc.t, Vals: gatherRows(vec(&v.longs, n, o.lend), mask, bc.longs, bc.nulls, sel), Nulls: mask}
	case types.Double:
		return block.NewDoubleBlock(gatherRows(vec(&v.doubles, n, o.lend), mask, bc.doubles, bc.nulls, sel), mask)
	case types.Varchar:
		return block.NewVarcharBlock(gatherRows(vec(&v.strs, n, o.lend), mask, bc.strs, bc.nulls, sel), mask)
	case types.Boolean:
		return block.NewBoolBlock(gatherRows(vec(&v.bools, n, o.lend), mask, bc.bools, bc.nulls, sel), mask)
	}
	vals := make([]types.Value, n)
	for i, m := range sel {
		if m.page < 0 {
			vals[i] = types.NullValue(bc.t)
		} else {
			vals[i] = o.tab.pages[m.page].Col(bc.c).Value(int(m.row))
		}
	}
	return block.BuildBlock(bc.t, vals)
}

// residualTrue interprets the residual over one candidate (probe ++ build)
// row; like a filter, a NULL or failing row is not a match.
func (o *LookupJoinOperator) residualTrue(row expr.Row) bool {
	v, err := o.interp.Eval(o.residual, row)
	return err == nil && !v.Null && v.B
}

func (o *LookupJoinOperator) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	o.bridge.ProbeFinished()
	// A spilled build defers every join type to the disk drain, which one
	// probe operator claims in Output once all probes have finished; RIGHT
	// and FULL wait likewise to emit unmatched build rows.
	o.outerHandled = !o.bridge.spillDrainPending() && o.jt != plan.RightJoin && o.jt != plan.FullJoin
}

func (o *LookupJoinOperator) emitUnmatchedBuild() {
	b := o.bridge
	b.mu.Lock()
	defer b.mu.Unlock()
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))
	for c := 0; c < nProbe; c++ {
		row[c] = types.NullValue(o.probeTs[c])
	}
	out := o.sink()
	pos := -1
	for _, p := range b.pages {
		for r := 0; r < p.RowCount(); r++ {
			if pos++; b.matched != nil && b.matched[pos] {
				continue
			}
			for c := range o.buildTs {
				row[nProbe+c] = p.Col(c).Value(r)
			}
			out.emit(row)
		}
	}
	out.flush()
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
	var p *block.Page
	if o.probe != nil {
		p = o.gatherNext()
	} else {
		p = o.rows.next()
	}
	o.ctx.recordOut(p)
	return p, nil
}

func (o *LookupJoinOperator) IsFinished() bool {
	return o.finished && o.outerHandled && o.probe == nil && o.rows.empty() &&
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
	rows      *rowSink
	finished  bool
}

// IndexLookupFunc probes the connector index with one key tuple.
type IndexLookupFunc func(keys []types.Value) (*block.Page, error)

// NewIndexJoin creates an index join operator.
func NewIndexJoin(ctx *OpContext, lookup IndexLookupFunc, jt plan.JoinType, probeKeys []int, probeTs, buildTs []types.Type, pageSize int) *IndexJoinOperator {
	if pageSize <= 0 {
		pageSize = 4096
	}
	ts := append(append([]types.Type{}, probeTs...), buildTs...)
	return &IndexJoinOperator{ctx: ctx, lookup: lookup, jt: jt, probeKeys: probeKeys, probeTs: probeTs, buildTs: buildTs,
		rows: newRowSink(allChannels(len(ts)), ts, pageSize)}
}

func (o *IndexJoinOperator) NeedsInput() bool { return !o.finished && o.rows.empty() }
func (o *IndexJoinOperator) IsBlocked() bool  { return false }

func (o *IndexJoinOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	p = p.DecodeAll()
	nProbe := len(o.probeTs)
	row := make([]types.Value, nProbe+len(o.buildTs))
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
				o.rows.emit(row)
			}
		}
		if !matched && o.jt == plan.LeftJoin {
			for c := 0; c < len(o.buildTs); c++ {
				row[nProbe+c] = types.NullValue(o.buildTs[c])
			}
			o.rows.emit(row)
		}
	}
	o.rows.flush()
	return nil
}

func (o *IndexJoinOperator) Output() (*block.Page, error) {
	p := o.rows.next()
	o.ctx.recordOut(p)
	return p, nil
}

func (o *IndexJoinOperator) Finish()          { o.finished = true }
func (o *IndexJoinOperator) IsFinished() bool { return o.finished && o.rows.empty() }
func (o *IndexJoinOperator) Close() error     { return nil }
