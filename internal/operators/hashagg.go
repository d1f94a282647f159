package operators

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
)

// AggSpec is one aggregate computed by the hash aggregation operator. Group
// keys and argument expressions are computed into columns by a preceding
// projection, so the operator works on column indices only.
type AggSpec struct {
	Func     plan.AggFunc
	ArgCol   int // -1 for COUNT(*)
	Distinct bool
	Out      types.Type
}

// aggVec is the state of one aggregate for every group: one vector per field
// its result reads, indexed by group id and leased through l; the others stay
// nil.
type aggVec struct {
	spec     AggSpec
	l        *memory.LocalContext
	floatSum bool      // sum/avg accumulate in sumF (avg, and sum with a double result), else sumI
	count    []int64   // the count family's result; for sum and avg the non-null inputs seen
	sumI     []int64   // sum with a bigint result
	sumF     []float64 // avg, and sum with a double result
	mm       valueVec  // min, max: the value kept, in the aggregate's output type
	dset     *keyTable // DISTINCT: the (group id, argument cell) pairs seen
}

func (a *aggVec) grow(n int) {
	switch a.spec.Func {
	case plan.AggMin, plan.AggMax:
		a.mm.grow(n)
		return
	case plan.AggSum, plan.AggAvg:
		if a.floatSum {
			a.sumF = extend(a.l, a.sumF, n)
		} else {
			a.sumI = extend(a.l, a.sumI, n)
		}
	}
	a.count = extend(a.l, a.count, n)
}

// presize gives the state the arrays grow(n) would, leased through tl.
func (a *aggVec) presize(tl *tableLease, n int) {
	switch a.spec.Func {
	case plan.AggMin, plan.AggMax:
		a.mm.presize(tl, n)
		return
	case plan.AggSum, plan.AggAvg:
		if a.floatSum {
			a.sumF = leaseVec[float64](tl, 0, n)
		} else {
			a.sumI = leaseVec[int64](tl, 0, n)
		}
	}
	a.count = leaseVec[int64](tl, 0, n)
}

// release gives the state's arrays, and its DISTINCT set's, back through the
// ledger and leaves it empty.
func (a *aggVec) release() {
	memory.Return(a.l, a.count)
	memory.Return(a.l, a.sumI)
	memory.Return(a.l, a.sumF)
	a.mm.release()
	a.dset.release()
	*a = aggVec{spec: a.spec, l: a.l}
}

// reset empties the state and keeps its arrays for the next fill.
func (a *aggVec) reset() {
	a.count, a.sumI, a.sumF = truncate(a.count), truncate(a.sumI), truncate(a.sumF)
	a.mm.reset()
	if a.dset != nil {
		a.dset.reset()
	}
}

// zeroElse reports whether the aggregate folds a masked argument whose rows
// outside the mask read v by counting them (accumulateMasked): v is a zero,
// and the aggregate a sum, an average or a count, which a zero adds nothing
// to.
func (a *aggVec) zeroElse(v types.Value) bool {
	switch a.spec.Func {
	case plan.AggSum, plan.AggAvg, plan.AggCount:
		return v.I == 0 && v.F == 0 && (v.T == types.Bigint || v.T == types.Double)
	}
	return false
}

// add folds n copies of the non-null argument b[r] into group id: n is 1 for
// a row and the run length when a whole RLE run lands in one group.
func (a *aggVec) add(id int, b block.Block, r int, n int64) {
	switch a.spec.Func {
	case plan.AggCount:
		a.count[id] += n
	case plan.AggCountMerge:
		a.count[id] += b.Long(r) * n
	case plan.AggSum, plan.AggAvg:
		a.count[id] += n
		if a.floatSum {
			a.sumF[id] += b.Double(r) * float64(n)
		} else {
			a.sumI[id] += b.Long(r) * n
		}
	case plan.AggMin, plan.AggMax:
		a.mm.keep(id, b, r, a.spec.Func == plan.AggMax)
	}
}

// foldRun folds the rows of col, all in group id, into the group's state: a
// run kernel, or else row by row.
func (a *aggVec) foldRun(id int, col block.Block) {
	if a.accumulateRun(id, col) {
		return
	}
	for r := range col.Len() {
		if !col.IsNull(r) {
			a.add(id, col, r, 1)
		}
	}
}

// carry starts group to, still empty, from group from's state: a running
// window frame continues its predecessor's.
func (a *aggVec) carry(from, to int) {
	if a.count != nil {
		a.count[to] = a.count[from]
	}
	if a.sumI != nil {
		a.sumI[to] = a.sumI[from]
	}
	if a.sumF != nil {
		a.sumF[to] = a.sumF[from]
	}
	if a.mm.has != nil && a.mm.has[from] {
		a.mm.copyEntry(from, to)
	}
}

// HashAggregationOperator implements GROUP BY aggregation with a flat hash
// table, memory accounting, and optional spill-to-disk revocation (§IV-F2).
//
// The table is columnar (§V-A): the keyTable maps a key to a dense group id
// and holds the key's normalized cells, and everything else about a group is
// an entry at that id in a typed vector — one vector per group key the cells
// cannot give back (keys), and per aggregate one vector per field its result
// reads (accs). Nothing is allocated per group; the first table is sized for
// the groups the optimizer expects (presize), every later one starts empty,
// and past its size a table doubles. Every array is leased through the
// operator's ledger (ctx.Mem), and the reservation is what it counts and the
// strings beside (heldLocked).
type HashAggregationOperator struct {
	ctx       *OpContext
	groupCols []int
	groupTs   []types.Type

	// mu guards the table state: the pool's revocation path may call Revoke
	// from another query's thread (§IV-F2).
	mu    sync.Mutex
	table *keyTable
	keys  []*valueVec // per group key; nil where table.cellBlock gives the key back
	accs  []aggVec

	// scratch lends a page's vectors — its key hashes and cells, its group ids
	// and the memo of its encoded keys — and an output page's group selection;
	// the next page rewinds it (resolveGroups). Used on the driver's goroutine
	// only: Revoke, from the pool's, allocates what it needs.
	scratch block.Arena
	batch   batchKeys

	spilled   spill.Set // the groups revocations wrote, one file each
	spills    int       // lifetime revocation count (spilled is emptied on drain)
	spillable bool
	spillKeys []int // where a spilled page keeps the group keys: columns 0..nk-1

	finished bool
	prepared bool // prepareOutput has run
	lend     bool // the output is lent (LendOutput)
	pageSize int
	// The emission cursor (Output): the next group of the table to emit and,
	// while a spilled aggregation drains, the next partition to read into it.
	emitAt   int
	nextPart int
	done     bool // every group emitted, the table dropped
}

// NewHashAggregation builds the operator. spillable enables revocation.
// groups is how many groups this instance is expected to see (0: no
// estimate); presize decides what the first table is built for.
func NewHashAggregation(ctx *OpContext, groupCols []int, groupTs []types.Type, aggs []AggSpec, spillable bool, pageSize, groups int) *HashAggregationOperator {
	if pageSize <= 0 {
		pageSize = DefaultPageRows
	}
	o := &HashAggregationOperator{
		ctx:       ctx,
		groupCols: groupCols,
		groupTs:   groupTs,
		spillable: spillable,
		pageSize:  pageSize,
		accs:      make([]aggVec, len(aggs)),
		keys:      make([]*valueVec, len(groupCols)),
		spillKeys: make([]int, len(groupCols)),
		spilled:   spill.Set{Label: "agg"},
	}
	for i, spec := range aggs {
		o.accs[i].spec = spec
		if spec.Distinct {
			o.spillable = false // set state cannot be merged incrementally
		}
	}
	for k := range o.spillKeys {
		o.spillKeys[k] = k
	}
	o.presize(groups)
	return o
}

// SetSpillDir directs spill files to dir instead of the OS temp dir.
func (o *HashAggregationOperator) SetSpillDir(dir string) { o.spilled.Dir = dir }

// Sizing the first table (DESIGN.md, "Sizing a group table").
const (
	// presizeHeadroom is how far past the expected groups a presized table
	// holds before an array grows: an estimate within a fifth of the truth,
	// either way, allocates every array once.
	presizeHeadroom = 1.25
	// maxPresizedGroups caps what one instance presizes for: a larger estimate
	// starts the table empty, as a missing one does.
	maxPresizedGroups = 1 << 18
)

// presize builds the first table for the groups this instance expects, each
// array reserved before it is leased (tableLease). It starts empty instead
// with no estimate, past maxPresizedGroups groups, or — every array going
// back with its reservation — at the first array that does not fit as things
// stand or would take the table past a quarter of the per-node limit. An
// estimate is a hint: its table takes only memory that is free, and never
// more than that quarter.
func (o *HashAggregationOperator) presize(groups int) {
	if n := int(math.Ceil(float64(groups) * presizeHeadroom)); groups > 0 && n <= maxPresizedGroups {
		tl := tableLease{l: o.ctx.Mem, reserve: true, most: o.ctx.Mem.Q.Limits.PerNodeUser / 4}
		o.newTableLocked(&tl, n)
		if !tl.refused {
			return
		}
		o.dropTableLocked()
		_ = o.ctx.Mem.SetBytes(0) // a lower reservation releases and cannot fail
	}
	o.newTableLocked(&tableLease{l: o.ctx.Mem}, 0)
}

// keptBesideTable reports whether a group key of type t goes in a valueVec:
// the table cannot give it back (cellBlock).
func keptBesideTable(t types.Type) bool { return t == types.Double || !t.Comparable() }

// distinctKeyTs are the key types of a DISTINCT aggregate's set: the group id,
// then the argument, whose type the set does not know — an untyped column,
// which keeps a string cell's bytes (varKey).
var distinctKeyTs = []types.Type{types.Bigint, types.Unknown}

// newTableLocked replaces the table, whose arrays go back through the
// ledger, with an empty one whose arrays, leased through tl, hold n groups
// before any of them grows; n = 0 starts them empty.
func (o *HashAggregationOperator) newTableLocked(tl *tableLease, n int) {
	o.dropTableLocked()
	o.table = newKeyTable(tl, o.groupTs, n)
	for k, t := range o.groupTs {
		if keptBesideTable(t) {
			o.keys[k] = &valueVec{t: t, l: tl.l}
			if n > 0 {
				o.keys[k].presize(tl, n)
			}
		}
	}
	for i := range o.accs {
		spec := o.accs[i].spec
		a := aggVec{spec: spec, l: tl.l, mm: valueVec{t: spec.Out, l: tl.l}}
		a.floatSum = spec.Func == plan.AggAvg || spec.Out == types.Double
		if spec.Distinct {
			a.dset = newKeyTable(tl, distinctKeyTs, 0)
		}
		if n > 0 {
			a.presize(tl, n)
		}
		o.accs[i] = a
	}
}

// resetTableLocked empties the table and leaves every array in place for the
// next fill — the drain refills the table once per partition, all about the
// same size.
func (o *HashAggregationOperator) resetTableLocked() {
	o.recordTableLocked()
	o.table.reset()
	for _, v := range o.keys {
		if v != nil {
			v.reset()
		}
	}
	for i := range o.accs {
		o.accs[i].reset()
	}
}

// recordTableLocked counts the mode the table was filled in, at the end of a
// fill that entered a group: a global aggregation's one group has no key to
// address.
func (o *HashAggregationOperator) recordTableLocked() {
	switch t := o.table; {
	case t.Len() == 0 || len(o.groupCols) == 0:
	case t.direct:
		o.ctx.Stats.recordTable(TableDirect)
	case t.turned:
		o.ctx.Stats.recordTable(TableTurned)
	default:
		o.ctx.Stats.recordTable(TableHashed)
	}
}

// dropTableLocked gives the table's arrays back through the ledger once
// nothing reads them again: its groups are copied out (emitGroups) or
// spilled, or the operator is closing.
func (o *HashAggregationOperator) dropTableLocked() {
	if o.table == nil {
		return
	}
	o.recordTableLocked()
	o.table.release()
	o.table = nil
	for k, v := range o.keys {
		if v != nil {
			v.release()
		}
		o.keys[k] = nil
	}
	for i := range o.accs {
		o.accs[i].release()
	}
}

// heldLocked is what the operator holds: the arrays its ledger counts, the
// key bytes among them, and the string bytes its min/max vectors keep beside
// them.
func (o *HashAggregationOperator) heldLocked() int64 {
	n := o.ctx.Mem.Leased()
	for i := range o.accs {
		n += o.accs[i].mm.strBytes
	}
	return n
}

func (o *HashAggregationOperator) NeedsInput() bool { return !o.finished }

// ReleasesInput declares to the pipeline compiler that the operator keeps no
// reference to an input page, or to any array under it, once AddInput
// returns, on any path. The operator in front of it then reuses its output
// vectors from page to page (LendOutput). It holds because the key table and
// the DISTINCT sets copy a key's normalized cells and a string cell's bytes
// into arrays of their own, key and min/max vectors copy values out of the
// page (valueVec), the batch hashing scratch is the operator's own, and
// Revoke and the drain read the table, not pages. Array-typed keys would
// share the element slice, but no processor lends an array block.
func (o *HashAggregationOperator) ReleasesInput() bool { return true }

// LendOutput tells the aggregation, before its first page, that the operator
// it feeds releases its input: the output vectors are then leased from the
// aggregation's scratch and taken back at its next Output, which the driver
// calls only once that operator wants input again.
func (o *HashAggregationOperator) LendOutput(Operator) { o.lend = true }

// LendsOutput reports whether LendOutput has been called.
func (o *HashAggregationOperator) LendsOutput() bool { return o.lend }

func (o *HashAggregationOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	bytes, err := o.addPage(p)
	if err != nil {
		return err
	}
	err = o.ctx.Mem.SetBytes(bytes)
	if err != nil && o.spillable && errors.Is(err, memory.ErrExceededLimit) {
		// Self-spill: the page is fully accumulated, so the table can be
		// written out and the reservation retried at (near) zero (§IV-F2).
		if _, serr := o.Revoke(); serr != nil {
			return serr
		}
		err = o.syncMem()
	}
	return err
}

// addPage folds p into the table and returns what the table then holds. o.mu
// is released by defer: a panic under it is recovered at the driver step, and
// Close and the pool's revoker take the lock after that.
func (o *HashAggregationOperator) addPage(p *block.Page) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids, runID := o.resolveGroups(p, o.groupCols)
	err := o.accumulatePage(ids, runID, p)
	return o.heldLocked(), err
}

// syncMem reserves what the operator holds now. The pool is never called
// under o.mu: it calls RevocableBytes, which takes o.mu, under its own lock.
func (o *HashAggregationOperator) syncMem() error {
	o.mu.Lock()
	bytes := o.heldLocked()
	o.mu.Unlock()
	return o.ctx.Mem.SetBytes(bytes)
}

// resolveGroups maps every row of p to the dense id of its group, keyed on
// the given columns, entering each key not seen since the table was last
// reset, and grows every state vector to the table's new size. Input pages
// (keys at o.groupCols) and spilled pages on their way back (keys at
// o.spillKeys) take the same path, and it is where the operator starts a
// page: the arena is rewound. A runID >= 0 marks a page whose rows all fall in
// one group, a run: a global aggregation's every page, whose rows are never
// looked up (ids nil: its one group is entered with the first page, and the
// table is not asked again), and a page whose keys resolveEncoded finds to be
// a single combination. The id vector is leased, valid until the next call.
// Caller holds o.mu.
func (o *HashAggregationOperator) resolveGroups(p *block.Page, cols []int) (ids []int32, runID int32) {
	o.scratch.Rewind()
	if len(cols) == 0 {
		o.globalGroupLocked()
		return nil, 0
	}
	n := p.RowCount()
	ids, runID = block.Lease[int32](&o.scratch, n), -1
	// Encoded keys: the table is asked once per combination of dictionary
	// entries the page references (or once per page of runs), through the
	// page's lookup over the first row of each, sized for the whole page;
	// aggregates fold a whole run in a single step.
	run, resolved := resolveEncoded(&o.scratch, &o.batch, p, cols, ids, func(rows []int, rowIDs []int32) {
		o.resolveCells(p, cols, rows, rowIDs, n)
	})
	if resolved {
		o.ctx.recordDictRows(n)
	} else {
		o.resolveRows(p, ids, cols, n)
	}
	if run {
		runID = ids[0]
	}
	for i := range o.accs {
		o.accs[i].grow(o.table.Len())
	}
	return ids, runID
}

// globalGroupLocked enters a global aggregation's one group, id 0, if the
// table does not hold it yet.
func (o *HashAggregationOperator) globalGroupLocked() {
	if o.table.Len() > 0 {
		return
	}
	o.table.getOrInsert(0, nil, nil, nil)
	for i := range o.accs {
		o.accs[i].grow(1)
	}
}

// runIDs is the id vector of a run of n rows in group id, for the row paths,
// leased from the scratch.
func (o *HashAggregationOperator) runIDs(n int, id int32) []int32 {
	ids := block.Lease[int32](&o.scratch, n)
	for r := range ids {
		ids[r] = id
	}
	return ids
}

// keepKeysLocked copies the key of the fresh group id out of row r, for the
// key columns the table's cells cannot give back.
func (o *HashAggregationOperator) keepKeysLocked(id int, p *block.Page, cols []int, r int) {
	for k, v := range o.keys {
		if v != nil {
			v.put(id, p.Col(cols[k]), r)
		}
	}
}

// resolveRows writes the group id of every row of p into ids, entering each
// key the table does not hold: one tight pass over the page's key cells
// (§V-B), sized as for a page of rows rows. A flat bigint key column, or a
// selection over one, is read where it lies (flatLongs) while the table may
// be direct and fits the page's smallest and largest key (keyTable.fit) with
// room for rows keys: every row's key is entered at its slot, with no hash
// and no probe. Any other page is normalized first (resolveCells). Caller
// holds o.mu.
func (o *HashAggregationOperator) resolveRows(p *block.Page, ids []int32, cols []int, rows int) {
	if len(ids) == 0 {
		return
	}
	if vals, nulls, sel, ok := flatLongs(p.Col(cols[0])); ok && o.directOpen(cols) {
		t := o.table
		if lo, hi, ints := longSpan(vals, nulls, sel, len(ids)); ints && t.fit(lo, hi, rows) {
			for r := range ids {
				v := uint64(vals[at(sel, r)])
				if ids[r] = int32(t.findDirect(v)); ids[r] < 0 {
					ids[r] = o.insertDirectLocked(v, p.Col(cols[0]), r)
				}
			}
			return
		}
		t.settleHashed() // a NULL key, or a span past the slots
	}
	o.batch.normalize(&o.scratch, p, cols)
	o.resolveCells(p, cols, nil, ids, rows)
}

// directOpen reports whether the table may be direct after a page of cols:
// one key column, the table not hashed and keeping no bytes.
func (o *HashAggregationOperator) directOpen(cols []int) bool {
	return len(cols) == 1 && !o.table.hashed && o.table.vars == nil
}

// resolveCells writes into ids the group id of each key o.batch holds
// normalized, entering each the table does not hold: the keys of p's rows
// sel, or of every row when sel is nil, with key k at column cols[k]. A table
// that may be direct (directOpen) enters them by value when every cell is an
// integer and the table fits their span with room for rows keys, and turns
// hashed otherwise; a hashed table probes by each key's hash. Caller holds
// o.mu.
func (o *HashAggregationOperator) resolveCells(p *block.Page, cols []int, sel []int, ids []int32, rows int) {
	t, n := o.table, len(ids)
	if o.directOpen(cols) {
		cells := o.batch.cells[:n]
		if lo, hi, ints := cellSpan(cells, o.batch.tags[:n]); ints && t.fit(lo, hi, rows) {
			kc := p.Col(cols[0])
			for i, c := range cells {
				if ids[i] = int32(t.findDirect(c)); ids[i] < 0 {
					ids[i] = o.insertDirectLocked(c, kc, at(sel, i))
				}
			}
			return
		}
		t.settleHashed()
	}
	o.batch.hashCells(&o.scratch, n)
	if len(cols) == 1 && t.vars == nil {
		// Single-key fast path: probe on scalars, no per-row slicing.
		cells, tags, hashes := o.batch.cells, o.batch.tags, o.batch.hashes
		for i := range ids {
			id, fresh := t.getOrInsertFixed1(hashes[i], cells[i], tags[i])
			if fresh && o.keys[0] != nil {
				o.keys[0].put(id, p.Col(cols[0]), at(sel, i))
			}
			ids[i] = int32(id)
		}
		return
	}
	for i := range ids {
		cells, tags, strs := o.batch.row(i)
		id, fresh := t.getOrInsert(o.batch.hashes[i], cells, tags, strs)
		if fresh {
			o.keepKeysLocked(id, p, cols, at(sel, i))
		}
		ids[i] = int32(id)
	}
}

// insertDirectLocked enters a new group for cell, the key of row r of the key
// column kc, in the direct table, and keeps the key where the cells cannot
// give it back (a double key). Caller holds o.mu.
func (o *HashAggregationOperator) insertDirectLocked(cell uint64, kc block.Block, r int) int32 {
	id := o.table.insertDirect(cell)
	if o.keys[0] != nil {
		o.keys[0].put(id, kc, r)
	}
	return int32(id)
}

// accumulatePage runs every aggregate over the resolved groups: the run
// kernels when the page is one group's run, else the columnar kernels over
// state[ids[r]], else the per-row fallback (DISTINCT, varchar and boolean
// arguments, RLE/dictionary encodings). The kernels read an argument through
// its selection (block.SelectedBlock) where it lies, and a masked argument
// (block.MaskedBlock) at its mask's rows only (accumulateMasked). Caller holds
// o.mu.
func (o *HashAggregationOperator) accumulatePage(ids []int32, runID int32, p *block.Page) error {
	n := p.RowCount()
	for i := range o.accs {
		a := &o.accs[i]
		switch a.spec.Func {
		case plan.AggCountAll:
			if runID >= 0 {
				a.count[runID] += int64(n)
			} else {
				for _, id := range ids {
					a.count[id]++
				}
			}
			continue
		case plan.AggCount, plan.AggCountMerge, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax:
		default:
			return fmt.Errorf("unknown aggregate %q", a.spec.Func)
		}
		col := loadCol(p.Col(a.spec.ArgCol))
		if m, ok := col.(*block.MaskedBlock); ok && a.dset == nil && (m.Else.Null || a.zeroElse(m.Else)) {
			o.accumulateMasked(a, ids, runID, n, m)
			continue
		}
		if runID >= 0 && a.dset == nil && a.accumulateRun(int(runID), col) {
			continue
		}
		if ids == nil {
			ids = o.runIDs(n, runID)
		}
		o.accumulateRows(a, ids, col)
	}
	return nil
}

// accumulateRows folds col into a, row r into group ids[r]: a columnar kernel,
// or else row by row. Caller holds o.mu.
func (o *HashAggregationOperator) accumulateRows(a *aggVec, ids []int32, col block.Block) {
	if a.dset == nil && a.accumulateVec(ids, col) {
		return
	}
	for r, id := range ids {
		if col.IsNull(r) || (a.dset != nil && !o.firstSeenLocked(a, id, col, r)) {
			continue
		}
		a.add(int(id), col, r, 1)
	}
}

// accumulateMasked folds a masked argument into a: the values at the mask's
// rows go through the kernels as a column of their own, each under its row's
// group, and no other row is read. Under a zero ELSE (zeroElse) every other
// row is a zero argument, which counts toward the group's non-null inputs —
// so a sum over rows none of which the mask holds is 0, not NULL — and adds
// nothing; any other non-null ELSE, or a min or max, reads the block row by
// row, as the CASE it stands for (accumulatePage). Caller holds o.mu.
func (o *HashAggregationOperator) accumulateMasked(a *aggVec, ids []int32, runID int32, n int, m *block.MaskedBlock) {
	if runID >= 0 {
		a.foldRun(int(runID), m.Vals)
		if !m.Else.Null {
			a.count[runID] += int64(n - len(m.Rows))
		}
		return
	}
	if !m.Else.Null && a.sumMasked(ids, m.Rows, m.Vals) {
		// No row reads NULL: each is one non-null argument of its group.
		for _, id := range ids {
			a.count[id]++
		}
		return
	}
	mids := block.Lease[int32](&o.scratch, len(m.Rows))
	for k, r := range m.Rows {
		mids[k] = ids[r]
	}
	o.accumulateRows(a, mids, m.Vals)
	if !m.Else.Null {
		for _, id := range ids {
			a.count[id]++
		}
		for _, id := range mids {
			a.count[id]--
		}
	}
}

// sumMasked adds a masked argument's values, col's row k to the group of the
// page's row rows[k], to a sum or an average, counting none of them; a count
// has nothing to add. It reports false, having added nothing, when col holds
// a NULL or has no flat kernel.
func (a *aggVec) sumMasked(ids []int32, rows []int, col block.Block) bool {
	b, sel := block.Unselect(col)
	switch src := b.(type) {
	case *block.LongBlock:
		if src.Nulls != nil {
			return false
		}
		switch {
		case a.spec.Func == plan.AggCount:
		case a.floatSum:
			sumAtRows(a.sumF, ids, rows, src.Vals, sel)
		default:
			sumAtRows(a.sumI, ids, rows, src.Vals, sel)
		}
		return true
	case *block.DoubleBlock:
		if src.Nulls != nil || (a.spec.Func != plan.AggCount && !a.floatSum) {
			return false
		}
		if a.spec.Func != plan.AggCount {
			sumAtRows(a.sumF, ids, rows, src.Vals, sel)
		}
		return true
	}
	return false
}

// sumAtRows adds vals[k] — vals[sel[k]] under a selection — to the sum of
// the group of row rows[k].
func sumAtRows[S, V int64 | float64](sum []S, ids []int32, rows []int, vals []V, sel []int) {
	if sel == nil {
		for k, r := range rows {
			sum[ids[r]] += S(vals[k])
		}
		return
	}
	for k, r := range rows {
		sum[ids[r]] += S(vals[sel[k]])
	}
}

// firstSeenLocked enters (group id, col[r]) in a DISTINCT aggregate's set,
// the key of two cells, and reports whether the pair is new.
func (o *HashAggregationOperator) firstSeenLocked(a *aggVec, id int32, col block.Block, r int) bool {
	tag, payload, s := cellAt(col, r)
	cells, tags, strs := [2]uint64{uint64(id), payload}, [2]byte{block.CellLong, tag}, [2]string{1: s}
	_, fresh := a.dset.getOrInsert(fixedHash(cells[:], tags[:]), cells[:], tags[:], strs[:])
	return fresh
}

// accumulateVec runs one aggregate as a columnar loop over the row→group id
// vector when the argument column has a specialized flat kernel, and returns
// false when it has none. Each kernel mirrors add exactly: NULL arguments are
// skipped, and min/max comparisons match Value.Compare for the block's type.
//
// A column under a selection (block.SelectedBlock) is read in place: row r of
// the page is row sel[r] of the source vectors.
func (a *aggVec) accumulateVec(ids []int32, col block.Block) bool {
	count := a.count
	b, sel := block.Unselect(col)
	switch src := b.(type) {
	case *block.LongBlock:
		vals, nulls := src.Vals, src.Nulls
		switch a.spec.Func {
		case plan.AggCount:
			countNonNull(count, ids, nulls, sel)
		case plan.AggCountMerge:
			sumNonNull(nil, count, ids, vals, nulls, sel)
		case plan.AggSum, plan.AggAvg:
			if a.floatSum {
				sumNonNull(count, a.sumF, ids, vals, nulls, sel)
			} else {
				sumNonNull(count, a.sumI, ids, vals, nulls, sel)
			}
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Bigint && a.mm.t != types.Date {
				return false
			}
			keepOrdered(a.mm.has, a.mm.longs, ids, vals, nulls, sel, a.spec.Func == plan.AggMax)
		}
		return true
	case *block.DoubleBlock:
		vals, nulls := src.Vals, src.Nulls
		switch a.spec.Func {
		case plan.AggCount:
			countNonNull(count, ids, nulls, sel)
		case plan.AggSum, plan.AggAvg:
			if !a.floatSum {
				return false
			}
			sumNonNull(count, a.sumF, ids, vals, nulls, sel)
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Double {
				return false
			}
			// v < cur matches compareFloat: NaN compares equal, so an
			// incumbent is never displaced by NaN and vice versa.
			keepOrdered(a.mm.has, a.mm.doubles, ids, vals, nulls, sel, a.spec.Func == plan.AggMax)
		default:
			return false
		}
		return true
	}
	return false
}

// accumulateRun folds a run — the rows of col, all in group id — into the
// group's state, and returns false for an argument it has no run kernel for.
// A run of one argument value (RLE) folds in one step; a flat column's sums,
// counts and extremes are kept in locals over the run and written once, so
// no row goes through the group's state in memory, and a column under a
// selection is read in place. The additions come in the order of the per-row
// kernels, so a double sum is theirs bit for bit.
func (a *aggVec) accumulateRun(id int, col block.Block) bool {
	n := col.Len()
	b, sel := block.Unselect(col)
	switch src := b.(type) {
	case *block.RLEBlock:
		// A NULL argument is skipped by every aggregate.
		if !src.Val.IsNull(0) {
			a.add(id, src.Val, 0, int64(n))
		}
		return true
	case *block.LongBlock:
		vals, nulls := src.Vals, src.Nulls
		if sel == nil {
			vals = vals[:n]
		}
		switch a.spec.Func {
		case plan.AggCount:
			a.count[id] += nonNullRun(nulls, n, sel)
		case plan.AggCountMerge:
			a.count[id] = sumRun(a.count[id], vals, nulls, sel)
		case plan.AggSum, plan.AggAvg:
			a.count[id] += nonNullRun(nulls, n, sel)
			if a.floatSum {
				a.sumF[id] = sumRun(a.sumF[id], vals, nulls, sel)
			} else {
				a.sumI[id] = sumRun(a.sumI[id], vals, nulls, sel)
			}
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Bigint && a.mm.t != types.Date {
				return false
			}
			a.mm.has[id], a.mm.longs[id] = keepRun(a.mm.has[id], a.mm.longs[id], vals, nulls, sel, a.spec.Func == plan.AggMax)
		}
		return true
	case *block.DoubleBlock:
		vals, nulls := src.Vals, src.Nulls
		if sel == nil {
			vals = vals[:n]
		}
		switch a.spec.Func {
		case plan.AggCount:
			a.count[id] += nonNullRun(nulls, n, sel)
		case plan.AggSum, plan.AggAvg:
			if !a.floatSum {
				return false
			}
			a.count[id] += nonNullRun(nulls, n, sel)
			a.sumF[id] = sumRun(a.sumF[id], vals, nulls, sel)
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Double {
				return false
			}
			a.mm.has[id], a.mm.doubles[id] = keepRun(a.mm.has[id], a.mm.doubles[id], vals, nulls, sel, a.spec.Func == plan.AggMax)
		default:
			return false
		}
		return true
	}
	return false
}

// nonNullRun is how many of a run's n rows — the source rows sel, or the
// first n when sel is nil — are not NULL.
func nonNullRun(nulls []bool, n int, sel []int) int64 {
	if nulls == nil {
		return int64(n)
	}
	c := 0
	if sel != nil {
		for _, r := range sel {
			if !nulls[r] {
				c++
			}
		}
		return int64(c)
	}
	for _, nl := range nulls[:n] {
		if !nl {
			c++
		}
	}
	return int64(c)
}

// sumRun adds a run's non-null values — vals at the rows sel, or all of vals
// when sel is nil — to s, in the sum's own arithmetic.
func sumRun[S, V int64 | float64](s S, vals []V, nulls []bool, sel []int) S {
	switch {
	case sel != nil && nulls == nil:
		for _, r := range sel {
			s += S(vals[r])
		}
	case sel != nil:
		for _, r := range sel {
			if !nulls[r] {
				s += S(vals[r])
			}
		}
	case nulls == nil:
		for _, v := range vals {
			s += S(v)
		}
	default:
		for r, v := range vals {
			if !nulls[r] {
				s += S(v)
			}
		}
	}
	return s
}

// keepRun is keepOrdered over a run: the extreme kept so far (has, cur) and
// the run's non-null values (vals at the rows sel, or all of vals) give the
// new one.
func keepRun[T int64 | float64](has bool, cur T, vals []T, nulls []bool, sel []int, larger bool) (bool, T) {
	n := len(vals)
	if sel != nil {
		n = len(sel)
	}
	for k := range n {
		r := k
		if sel != nil {
			r = sel[k]
		}
		if nulls != nil && nulls[r] {
			continue
		}
		if v := vals[r]; !has || (larger && v > cur) || (!larger && v < cur) {
			cur, has = v, true
		}
	}
	return has, cur
}

// countNonNull is the shared COUNT(col) kernel over a flat null mask; row r's
// mask entry is nulls[sel[r]], or nulls[r] when sel is nil.
func countNonNull(count []int64, ids []int32, nulls []bool, sel []int) {
	switch {
	case nulls == nil:
		for _, id := range ids {
			count[id]++
		}
	case sel != nil:
		for k, id := range ids {
			if !nulls[sel[k]] {
				count[id]++
			}
		}
	default:
		for r, id := range ids {
			if !nulls[r] {
				count[id]++
			}
		}
	}
}

// sumNonNull is the SUM/AVG kernel: each non-null value counts (when count is
// not nil) and adds, in the sum's own arithmetic, to its group. Row r's value
// is vals[sel[r]], or vals[r] when sel is nil.
func sumNonNull[S, V int64 | float64](count []int64, sum []S, ids []int32, vals []V, nulls []bool, sel []int) {
	switch {
	case sel != nil && nulls == nil && count != nil:
		for k, id := range ids {
			count[id]++
			sum[id] += S(vals[sel[k]])
		}
	case sel == nil && nulls == nil && count != nil:
		vals = vals[:len(ids)]
		for r, id := range ids {
			count[id]++
			sum[id] += S(vals[r])
		}
	default:
		for k, id := range ids {
			r := k
			if sel != nil {
				r = sel[k]
			}
			if nulls == nil || !nulls[r] {
				if count != nil {
					count[id]++
				}
				sum[id] += S(vals[r])
			}
		}
	}
}

// keepOrdered is the min/max kernel over a flat column whose type is the
// state's own; row r's value is vals[sel[r]], or vals[r] when sel is nil.
func keepOrdered[T int64 | float64](has []bool, cur []T, ids []int32, vals []T, nulls []bool, sel []int, larger bool) {
	for k, id := range ids {
		r := k
		if sel != nil {
			r = sel[k]
		}
		if nulls != nil && nulls[r] {
			continue
		}
		if v := vals[r]; !has[id] || (larger && v > cur[id]) || (!larger && v < cur[id]) {
			cur[id], has[id] = v, true
		}
	}
}

// resultBlock renders the aggregate's final value for the selected groups,
// its vectors leased from ar, or made when ar is nil.
func (a *aggVec) resultBlock(ar *block.Arena, sel []int32) block.Block {
	switch a.spec.Func {
	case plan.AggMin, plan.AggMax:
		return a.mm.block(ar, sel)
	case plan.AggSum:
		if a.floatSum {
			return &block.DoubleBlock{Vals: pick(ar, a.sumF, sel), Nulls: zeroMask(ar, a.count, sel)}
		}
		return &block.LongBlock{T: a.spec.Out, Vals: pick(ar, a.sumI, sel), Nulls: zeroMask(ar, a.count, sel)}
	case plan.AggAvg:
		vals := pick(ar, a.sumF, sel)
		for i, id := range sel {
			if n := a.count[id]; n != 0 {
				vals[i] /= float64(n)
			}
		}
		return &block.DoubleBlock{Vals: vals, Nulls: zeroMask(ar, a.count, sel)}
	}
	return &block.LongBlock{T: types.Bigint, Vals: pick(ar, a.count, sel)}
}

func (o *HashAggregationOperator) Finish() {
	// Under o.mu: the pool's revoker thread reads finished (a finished
	// aggregation is no longer a spill candidate — its state is draining).
	o.mu.Lock()
	o.finished = true
	o.mu.Unlock()
}

// prepareOutput readies the table for the emission cursor, once, at the first
// Output after Finish: a spilled aggregation writes its in-memory tail to the
// files, which the cursor then drains a partition at a time, and a global
// aggregation that saw no row gets its one group.
func (o *HashAggregationOperator) prepareOutput() error {
	o.prepared = true
	// The last look at state a revoker may still be writing: once finished is
	// set Revoke is a no-op, so whoever holds o.mu here sees either all of a
	// revocation or none of it, and from here on the table and the spilled
	// files are this goroutine's alone until Close.
	o.mu.Lock()
	spilled := !o.spilled.Empty()
	if spilled && o.table.Len() > 0 {
		if _, err := o.spillLocked(); err != nil {
			o.mu.Unlock()
			return err
		}
	}
	o.mu.Unlock()
	if spilled {
		return o.syncMem()
	}
	if len(o.groupCols) == 0 {
		// Global aggregation with no groups: one row even for empty input.
		o.globalGroupLocked()
	}
	return nil
}

// Output is the emission cursor: each call renders the next page of groups,
// a column at a time, each output block a gather of the vector (or of the
// table's cells) it reads, so nothing is boxed and the table's arrays stay
// the table's. A lent output's vectors are leased from the scratch, which the
// next call rewinds (LendOutput); an owned output's are made. A spilled
// aggregation reads a hash partition back into the table only once the
// partition before it has been emitted (readPartition), so one partition's
// groups are in memory at a time and no page waits to be taken. The table is
// dropped, and the spill files removed, with the last page.
func (o *HashAggregationOperator) Output() (*block.Page, error) {
	if !o.finished {
		return nil, nil
	}
	o.scratch.Rewind()
	if o.done {
		return nil, nil
	}
	if !o.prepared {
		if err := o.prepareOutput(); err != nil {
			return nil, err
		}
	}
	for o.emitAt == o.table.Len() {
		if o.drained() {
			o.endOutput()
			return nil, nil
		}
		if err := o.readPartition(); err != nil {
			return nil, err
		}
	}
	var lent *block.Arena
	if o.lend {
		lent = &o.scratch
	}
	sel := block.Lease[int32](&o.scratch, min(o.pageSize, o.table.Len()-o.emitAt))
	for i := range sel {
		sel[i] = int32(o.emitAt + i)
	}
	o.emitAt += len(sel)
	cols := o.keyBlocks(lent, sel, len(o.accs))
	for i := range o.accs {
		cols = append(cols, o.accs[i].resultBlock(lent, sel))
	}
	if o.emitAt == o.table.Len() && o.drained() {
		o.endOutput()
	}
	p := block.NewPage(cols...)
	o.ctx.recordOut(p)
	return p, nil
}

// drained reports whether no spilled partition is left to read.
func (o *HashAggregationOperator) drained() bool {
	return o.spilled.Empty() || o.nextPart == spill.Partitions
}

// readPartition reads the cursor's next spilled hash partition back into the
// table, emptied for it: its pages go through the lookup AddInput uses and
// their state columns merge by group id (mergeSpilledPage). A partition pass
// reads only that partition's extents of each file, so every record is read
// once, and peak memory stays about 1/spill.Partitions of the table (§IV-F2).
func (o *HashAggregationOperator) readPartition() error {
	o.resetTableLocked()
	o.emitAt = 0
	pages := o.spilled.Pages(o.nextPart)
	defer pages.Close()
	o.nextPart++
	for {
		p, err := pages.Next()
		if err != nil || p == nil {
			return err
		}
		if err := o.mergeSpilledPage(p); err != nil {
			return err
		}
	}
}

// endOutput ends the cursor: every group has been emitted, so the table and
// its reservation go back and the spill files are removed.
func (o *HashAggregationOperator) endOutput() {
	o.mu.Lock()
	o.spilled.Remove()
	o.dropTableLocked()
	o.done = true
	o.mu.Unlock()
	_ = o.syncMem() // a lower reservation releases and cannot fail
}

// keyBlocks renders the group-key columns of the selected groups, with room
// for extra more columns behind them, their vectors leased from a, or made
// when a is nil.
func (o *HashAggregationOperator) keyBlocks(a *block.Arena, sel []int32, extra int) []block.Block {
	cols := make([]block.Block, 0, len(o.keys)+extra)
	for k, v := range o.keys {
		if v != nil {
			cols = append(cols, v.block(a, sel))
		} else {
			cols = append(cols, o.table.cellBlock(a, k, o.groupTs[k], sel))
		}
	}
	return cols
}

// IsFinished: the cursor has emitted the last page.
func (o *HashAggregationOperator) IsFinished() bool { return o.done }
func (o *HashAggregationOperator) IsBlocked() bool  { return false }

// Scratch implements ScratchHolder.
func (o *HashAggregationOperator) Scratch() *block.Arena { return &o.scratch }

func (o *HashAggregationOperator) Close() error {
	o.mu.Lock()
	o.spilled.Remove()
	o.dropTableLocked()
	o.mu.Unlock()
	o.ctx.Mem.Close() // outside o.mu, as syncMem
	return nil
}

// --- Revocable (spilling) support ---

// spillStateCols is how many columns an aggregate's state takes in a spilled
// page. A function spills the vectors it keeps: count for the counts; count
// and the one sum for sum and avg; the has mask and the value for min and
// max.
func spillStateCols(f plan.AggFunc) int {
	switch f {
	case plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax:
		return 2
	}
	return 1
}

// RevocableBytes implements memory.Revocable.
func (o *HashAggregationOperator) RevocableBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.spillable || o.finished {
		return 0
	}
	return o.heldLocked()
}

// ExecutionNanos implements memory.Revocable. It reports time actually
// spent executing the operator (driver-attributed CPU time), not lifetime
// wall-clock: the §IV-F2 spill-victim heuristic orders candidates by work
// done, and a long-lived idle aggregation must not look expensive.
func (o *HashAggregationOperator) ExecutionNanos() int64 {
	if o.ctx != nil && o.ctx.Stats != nil {
		return o.ctx.Stats.CPUNanos()
	}
	return 0
}

// Revoke spills the hash table to a temp file and clears it. Once the
// operator is finished its state is draining or gone and there is nothing to
// revoke: the pool picks its candidates, drops its lock and only then calls
// Revoke on each, so the call can arrive after Finish — and what it holds
// after the spill is read under the lock, since a drain fills it without.
func (o *HashAggregationOperator) Revoke() (int64, error) {
	o.mu.Lock()
	if !o.spillable || o.finished {
		o.mu.Unlock()
		return 0, nil
	}
	freed, err := o.spillLocked()
	held := o.heldLocked()
	o.mu.Unlock()
	if err != nil || freed == 0 {
		return freed, err
	}
	return freed, o.ctx.Mem.SetBytes(held)
}

// spillLocked writes every live group to one new spill file, by partition,
// and drops the table. The pages are gathered column by column straight from
// the table's vectors, at most pageSize groups each. Caller holds o.mu, and
// gives the freed reservation back (syncMem) once it has let go of it.
func (o *HashAggregationOperator) spillLocked() (int64, error) {
	n := o.table.Len()
	if n == 0 {
		// Nothing to write; a presized table gives its arrays back all the same.
		return o.renewTableLocked(), nil
	}
	// The partition comes from the hash the table keys the group on, the one
	// batchKeys computes for its key, so a key lands in the same partition of
	// every file this operator writes.
	parts := make([]int32, n)
	for id := range parts {
		parts[id] = int32(spill.Partition(o.table.hash(id)))
	}
	ids, offs := partitionRows(nil, parts, spill.Partitions)
	for part := range spill.Partitions {
		for from := offs[part]; from < offs[part+1]; from += o.pageSize {
			if err := o.spilled.WritePage(part, o.spillPage(ids[from:min(from+o.pageSize, offs[part+1])])); err != nil {
				return 0, err
			}
		}
	}
	if err := o.spilled.Seal(); err != nil {
		return 0, err
	}
	o.spills++
	return o.renewTableLocked(), nil
}

// renewTableLocked replaces the table with an empty one and returns what that
// freed. An empty table leases nothing, so a spilled aggregation has nothing
// left to revoke, and a revocation never reserves.
func (o *HashAggregationOperator) renewTableLocked() int64 {
	held := o.heldLocked()
	o.newTableLocked(&tableLease{l: o.ctx.Mem}, 0)
	return held - o.heldLocked()
}

// spillPage is the columnar on-disk form of the selected groups: the
// group-key columns, then each aggregate's state vectors (spillStateCols).
func (o *HashAggregationOperator) spillPage(sel []int32) *block.Page {
	cols := o.keyBlocks(nil, sel, 2*len(o.accs))
	for i := range o.accs {
		a := &o.accs[i]
		switch a.spec.Func {
		case plan.AggMin, plan.AggMax:
			cols = append(cols, &block.BoolBlock{Vals: pick(nil, a.mm.has, sel)}, a.mm.block(nil, sel))
		case plan.AggSum, plan.AggAvg:
			cols = append(cols, block.NewLongBlock(pick(nil, a.count, sel), nil))
			if a.floatSum {
				cols = append(cols, &block.DoubleBlock{Vals: pick(nil, a.sumF, sel)})
			} else {
				cols = append(cols, block.NewLongBlock(pick(nil, a.sumI, sel), nil))
			}
		default:
			cols = append(cols, block.NewLongBlock(pick(nil, a.count, sel), nil))
		}
	}
	return block.NewPage(cols...)
}

// mergeSpilledPage folds one spilled page into the table: its key columns
// resolve to group ids through the lookup AddInput uses, then each
// aggregate's state columns accumulate into its vectors by id, a column at a
// time. Caller owns the table (the operator is finished).
func (o *HashAggregationOperator) mergeSpilledPage(p *block.Page) error {
	want := len(o.groupTs)
	for i := range o.accs {
		want += spillStateCols(o.accs[i].spec.Func)
	}
	if p.ColCount() != want {
		return fmt.Errorf("spilled page has %d columns, want %d", p.ColCount(), want)
	}
	ids, runID := o.resolveGroups(p, o.spillKeys)
	if ids == nil {
		ids = o.runIDs(p.RowCount(), runID)
	}
	c := len(o.groupTs)
	for i := range o.accs {
		a := &o.accs[i]
		badCols := func() error {
			return fmt.Errorf("spilled state columns of %s at %d are %T, %T", a.spec.Func, c, p.Col(c), p.Col(c+spillStateCols(a.spec.Func)-1))
		}
		switch a.spec.Func {
		case plan.AggMin, plan.AggMax:
			has, ok := p.Col(c).(*block.BoolBlock)
			vals := p.Col(c + 1)
			if !ok || (a.mm.t != types.Unknown && vals.Type() != a.mm.t) {
				return badCols()
			}
			for r, id := range ids {
				if has.Vals[r] {
					a.mm.keep(int(id), vals, r, a.spec.Func == plan.AggMax)
				}
			}
		case plan.AggSum, plan.AggAvg:
			if sums, ok := p.Col(c + 1).(*block.DoubleBlock); ok && a.floatSum {
				for r, id := range ids {
					a.sumF[id] += sums.Vals[r]
				}
			} else if sums, ok := p.Col(c + 1).(*block.LongBlock); ok && !a.floatSum {
				for r, id := range ids {
					a.sumI[id] += sums.Vals[r]
				}
			} else {
				return badCols()
			}
			fallthrough
		default:
			counts, ok := p.Col(c).(*block.LongBlock)
			if !ok {
				return badCols()
			}
			for r, id := range ids {
				a.count[id] += counts.Vals[r]
			}
		}
		c += spillStateCols(a.spec.Func)
	}
	return nil
}

// SpillCount reports how many times the operator spilled (for benches).
func (o *HashAggregationOperator) SpillCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spills
}
