package operators

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/block"
	"repro/internal/expr"
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
// its result reads, indexed by group id. The others stay nil.
type aggVec struct {
	spec     AggSpec
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
			a.sumF = extend(a.sumF, n)
		} else {
			a.sumI = extend(a.sumI, n)
		}
	}
	a.count = extend(a.count, n)
}

// reset empties the state and keeps its arrays for the next fill.
func (a *aggVec) reset() {
	a.count, a.sumI, a.sumF = truncate(a.count), truncate(a.sumI), truncate(a.sumF)
	a.mm.reset()
	if a.dset != nil {
		a.dset.reset()
	}
}

// width is what one group takes in the state's arrays.
func (a *aggVec) width() int64 {
	switch a.spec.Func {
	case plan.AggMin, plan.AggMax:
		return valueWidth(a.spec.Out)
	case plan.AggSum, plan.AggAvg:
		return 16
	}
	return 8
}

func (a *aggVec) memBytes() int64 {
	n := int64(8*(cap(a.count)+cap(a.sumI)+cap(a.sumF))) + a.mm.memBytes()
	if a.dset != nil {
		n += a.dset.memBytes()
	}
	return n
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

// HashAggregationOperator implements GROUP BY aggregation with a flat hash
// table, memory accounting, and optional spill-to-disk revocation (§IV-F2).
//
// The table is columnar (§V-A): the keyTable maps a key to a dense group id
// and holds the key's normalized cells, and everything else about a group is
// an entry at that id in a typed vector — one vector per group key the cells
// cannot give back (keys), and per aggregate one vector per field its result
// reads (accs). Nothing is allocated per group; the first table is sized for
// the groups the optimizer expects (presize), every later one starts empty,
// and past its size a table doubles.
type HashAggregationOperator struct {
	ctx       *OpContext
	groupCols []int
	groupTs   []types.Type

	// mu guards the table state and bytes: the pool's revocation path may
	// call Revoke from another query's thread (§IV-F2).
	mu    sync.Mutex
	table *keyTable
	keys  []*valueVec // per group key; nil where table.cellBlock gives the key back
	accs  []aggVec
	batch batchKeys
	ids   []int32     // per-page row→group id vector
	enc   encodedKeys // pages whose group keys all arrive dictionary/RLE-encoded
	bytes int64

	spillFiles []string
	spills     int // lifetime revocation count (spillFiles is cleared on drain)
	spillable  bool
	spillDir   string // empty = OS temp dir
	spillKeys  []int  // where a spilled page keeps the group keys: columns 0..nk-1

	finished bool
	out      []*block.Page
	outPos   int
	pageSize int
	prepared bool
}

// NewHashAggregation builds the operator. spillable enables revocation.
// groups is how many groups this instance is expected to see (0: no
// estimate); presize decides what the first table is built for.
func NewHashAggregation(ctx *OpContext, groupCols []int, groupTs []types.Type, aggs []AggSpec, spillable bool, pageSize, groups int) *HashAggregationOperator {
	if pageSize <= 0 {
		pageSize = 4096
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
	o.newTableLocked(o.presize(groups))
	return o
}

// SetSpillDir directs spill files to dir instead of the OS temp dir.
func (o *HashAggregationOperator) SetSpillDir(dir string) { o.spillDir = dir }

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

// presize turns the groups this instance expects into what its first table is
// built for, with the bytes already reserved: 0, a table that starts empty and
// doubles, when there is no estimate, when the table would hold more than
// maxPresizedGroups groups or take more than a quarter of the query's
// per-node limit, or when the reservation would have to make room for it. An
// estimate is a hint: its table takes only memory that is free, and never
// more than that quarter.
func (o *HashAggregationOperator) presize(groups int) int {
	if groups <= 0 {
		return 0
	}
	n := int(math.Ceil(float64(groups) * presizeHeadroom))
	if n > maxPresizedGroups {
		return 0
	}
	bytes := o.tableBytes(n)
	if limit := o.ctx.Mem.Q.Limits.PerNodeUser; limit > 0 && bytes > limit/4 {
		return 0
	}
	if !o.ctx.Mem.TryGrow(bytes) {
		return 0
	}
	o.bytes = bytes
	return n
}

// tableBytes is memBytesLocked of a table newTableLocked(n) builds.
func (o *HashAggregationOperator) tableBytes(n int) int64 {
	fixed := fixedWidthKeys(o.groupTs)
	b := keyTableBytes(fixed, len(o.groupTs), n)
	for _, t := range o.groupTs {
		if keptBesideTable(fixed, t) {
			b += int64(n) * valueWidth(t)
		}
	}
	for i := range o.accs {
		b += int64(n) * o.accs[i].width()
		if o.accs[i].spec.Distinct {
			b += keyTableBytes(false, 1, 0)
		}
	}
	return b
}

// keptBesideTable reports whether a group key of type t goes in a valueVec:
// the table's cells cannot give it back.
func keptBesideTable(fixed bool, t types.Type) bool { return !fixed || t == types.Double }

// newTableLocked builds an empty table whose arrays hold n groups before any
// of them grows; n = 0 starts them empty.
func (o *HashAggregationOperator) newTableLocked(n int) {
	fixed := fixedWidthKeys(o.groupTs)
	o.table = newKeyTable(fixed, len(o.groupTs), n)
	for k, t := range o.groupTs {
		o.keys[k] = nil
		if keptBesideTable(fixed, t) {
			o.keys[k] = &valueVec{t: t}
		}
	}
	for i := range o.accs {
		spec := o.accs[i].spec
		a := aggVec{spec: spec, mm: valueVec{t: spec.Out}}
		a.floatSum = spec.Func == plan.AggAvg || spec.Out == types.Double
		if spec.Distinct {
			a.dset = newKeyTable(false, 1, 0)
		}
		o.accs[i] = a
	}
	if n > 0 {
		// Grown to n and emptied again, every vector keeps an array of n.
		for _, v := range o.keys {
			if v != nil {
				v.grow(n)
			}
		}
		for i := range o.accs {
			o.accs[i].grow(n)
		}
		o.resetTableLocked()
	}
}

// resetTableLocked empties the table and leaves every array in place for the
// next fill — the drain refills the table once per partition, all about the
// same size.
func (o *HashAggregationOperator) resetTableLocked() {
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

// dropTableLocked lets go of the table once nothing is added to it again.
func (o *HashAggregationOperator) dropTableLocked() {
	o.table = nil
	clear(o.keys)
	for i := range o.accs {
		o.accs[i] = aggVec{spec: o.accs[i].spec}
	}
}

// memBytesLocked is what the table holds, summed from the capacity and
// element width of every array under it.
func (o *HashAggregationOperator) memBytesLocked() int64 {
	n := o.table.memBytes()
	for _, v := range o.keys {
		if v != nil {
			n += v.memBytes()
		}
	}
	for i := range o.accs {
		n += o.accs[i].memBytes()
	}
	return n
}

func (o *HashAggregationOperator) NeedsInput() bool { return !o.finished }

// ReleasesInput declares to the pipeline compiler that the operator keeps no
// reference to an input page, or to any array under it, once AddInput
// returns, on any path. The operator in front of it then reuses its output
// vectors from page to page (LendOutput). It holds because the key table copies normalized cells and encoded bytes, key
// and min/max vectors copy values out of the page (valueVec), DISTINCT sets
// copy encoded bytes, the batch hashing scratch is the operator's own, and
// Revoke and the drain read the table, not pages. Array-typed keys would
// share the element slice, but no processor lends an array block.
func (o *HashAggregationOperator) ReleasesInput() bool { return true }

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
	o.bytes = o.memBytesLocked()
	return o.bytes, err
}

// syncMem reserves what the table holds now. The pool is never called under
// o.mu: it calls RevocableBytes, which takes o.mu, under its own lock.
func (o *HashAggregationOperator) syncMem() error {
	o.mu.Lock()
	bytes := o.bytes
	o.mu.Unlock()
	return o.ctx.Mem.SetBytes(bytes)
}

// resolveGroups maps every row of p to the dense id of its group, keyed on
// the given columns, entering each key not seen since the table was last
// reset, and grows every state vector to the table's new size. Input pages
// (keys at o.groupCols) and spilled pages on their way back (keys at
// o.spillKeys) take the same path. A runID >= 0 marks a page whose rows all
// fall in one group. The id vector is the operator's scratch, valid until the
// next call. Caller holds o.mu.
func (o *HashAggregationOperator) resolveGroups(p *block.Page, cols []int) (ids []int32, runID int32) {
	o.ids = scratch(o.ids, p.RowCount())
	ids, runID = o.ids, -1
	// Encoded keys: the table is asked once per combination of dictionary
	// entries the page references (or once per page of runs), through the
	// row-at-a-time lookup; aggregates fold a whole run in a single step.
	run, resolved := o.enc.resolve(p, cols, ids, func(r int) int32 { return o.groupIDForRow(p, cols, r) })
	if resolved {
		o.ctx.recordDictRows(len(ids))
	}
	switch {
	case run:
		runID = ids[0]
	case resolved:
	case o.table.fixed:
		o.resolveVecFixed(p, ids, cols)
	default:
		o.resolveVecBytes(p, ids, cols)
	}
	n := o.table.Len()
	for i := range o.accs {
		o.accs[i].grow(n)
	}
	return ids, runID
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

// resolveVecFixed is the vectorized fixed-cell lookup: one tight probe pass
// over the page's normalized key cells (§V-B). Caller holds o.mu.
func (o *HashAggregationOperator) resolveVecFixed(p *block.Page, ids []int32, cols []int) {
	o.batch.reset(p, cols, true)
	if len(cols) == 1 {
		// Single-key fast path: probe on scalars, no per-row slicing.
		cells, tags, hashes := o.batch.cells, o.batch.tags, o.batch.hashes
		for r := range ids {
			id, fresh := o.table.getOrInsertFixed1(hashes[r], cells[r], tags[r])
			if fresh && o.keys[0] != nil {
				o.keys[0].put(id, p.Col(cols[0]), r)
			}
			ids[r] = int32(id)
		}
		return
	}
	for r := range ids {
		cells, tags := o.batch.row(r)
		id, fresh := o.table.getOrInsertFixed(o.batch.hashes[r], cells, tags)
		if fresh {
			o.keepKeysLocked(id, p, cols, r)
		}
		ids[r] = int32(id)
	}
}

// resolveVecBytes is the vectorized byte-layout lookup (varchar/array/mixed
// group keys): hashes come from the batch kernels, the canonical key encoding
// is built only to verify and store the key. Caller holds o.mu.
func (o *HashAggregationOperator) resolveVecBytes(p *block.Page, ids []int32, cols []int) {
	o.batch.reset(p, cols, false)
	for r := range ids {
		o.batch.buf = encodeRowKey(o.batch.buf[:0], p, r, cols)
		id, fresh := o.table.getOrInsertBytes(o.batch.hashes[r], o.batch.buf)
		if fresh {
			o.keepKeysLocked(id, p, cols, r)
		}
		ids[r] = int32(id)
	}
}

// groupIDForRow returns the dense group id of row r's key, entering a fresh
// group when absent: the lookup of resolveVecFixed and resolveVecBytes for one
// row, whatever the encodings of its columns. NULL is a valid group key in
// aggregation (unlike joins). Caller holds o.mu.
func (o *HashAggregationOperator) groupIDForRow(p *block.Page, cols []int, r int) int32 {
	var id int
	var fresh bool
	if h := o.batch.rowKey(p, cols, r, o.table.fixed); o.table.fixed {
		id, fresh = o.table.getOrInsertFixed(h, o.batch.cells, o.batch.tags)
	} else {
		id, fresh = o.table.getOrInsertBytes(h, o.batch.buf)
	}
	if fresh {
		o.keepKeysLocked(id, p, cols, r)
	}
	return int32(id)
}

// accumulatePage runs every aggregate over the resolved id vector: the O(1)
// whole-run step when the page is a single group's RLE run, else the columnar
// kernels over state[ids[r]], else the per-row fallback (DISTINCT, varchar
// and boolean arguments, RLE/dictionary encodings). Caller holds o.mu.
func (o *HashAggregationOperator) accumulatePage(ids []int32, runID int32, p *block.Page) error {
	for i := range o.accs {
		a := &o.accs[i]
		switch a.spec.Func {
		case plan.AggCountAll:
			if runID >= 0 {
				a.count[runID] += int64(len(ids))
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
		if rle, ok := col.(*block.RLEBlock); ok && runID >= 0 && a.dset == nil {
			// The whole page is one group's run of one argument value; a NULL
			// argument is skipped by every aggregate.
			if !rle.Val.IsNull(0) {
				a.add(int(runID), rle.Val, 0, int64(len(ids)))
			}
			continue
		}
		if a.dset == nil && a.accumulateVec(ids, col) {
			continue
		}
		for r, id := range ids {
			if col.IsNull(r) || (a.dset != nil && !o.firstSeenLocked(a, id, col, r)) {
				continue
			}
			a.add(int(id), col, r, 1)
		}
	}
	return nil
}

// firstSeenLocked enters (group id, col[r]) in a DISTINCT aggregate's set and
// reports whether the pair is new.
func (o *HashAggregationOperator) firstSeenLocked(a *aggVec, id int32, col block.Block, r int) bool {
	buf := binary.LittleEndian.AppendUint32(o.batch.buf[:0], uint32(id))
	buf = appendCellKey(buf, col, r)
	o.batch.buf = buf
	_, fresh := a.dset.getOrInsertBytes(hashRowKey(buf), buf)
	return fresh
}

// accumulateVec runs one aggregate as a columnar loop over the row→group id
// vector when the argument column has a specialized flat kernel, and returns
// false when it has none. Each kernel mirrors add exactly: NULL arguments are
// skipped, and min/max comparisons match Value.Compare for the block's type.
func (a *aggVec) accumulateVec(ids []int32, col block.Block) bool {
	count := a.count
	switch src := col.(type) {
	case *block.LongBlock:
		vals, nulls := src.Vals, src.Nulls
		switch a.spec.Func {
		case plan.AggCount:
			countNonNull(count, ids, nulls)
		case plan.AggCountMerge:
			for r, id := range ids {
				if nulls == nil || !nulls[r] {
					count[id] += vals[r]
				}
			}
		case plan.AggSum, plan.AggAvg:
			if a.floatSum {
				sumNonNull(count, a.sumF, ids, vals, nulls)
			} else {
				sumNonNull(count, a.sumI, ids, vals, nulls)
			}
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Bigint && a.mm.t != types.Date {
				return false
			}
			keepOrdered(a.mm.has, a.mm.longs, ids, vals, nulls, a.spec.Func == plan.AggMax)
		}
		return true
	case *block.DoubleBlock:
		vals, nulls := src.Vals, src.Nulls
		switch a.spec.Func {
		case plan.AggCount:
			countNonNull(count, ids, nulls)
		case plan.AggSum, plan.AggAvg:
			if !a.floatSum {
				return false
			}
			sumNonNull(count, a.sumF, ids, vals, nulls)
		case plan.AggMin, plan.AggMax:
			if a.mm.t != types.Double {
				return false
			}
			// v < cur matches compareFloat: NaN compares equal, so an
			// incumbent is never displaced by NaN and vice versa.
			keepOrdered(a.mm.has, a.mm.doubles, ids, vals, nulls, a.spec.Func == plan.AggMax)
		default:
			return false
		}
		return true
	}
	return false
}

// countNonNull is the shared COUNT(col) kernel over a flat null mask.
func countNonNull(count []int64, ids []int32, nulls []bool) {
	if nulls == nil {
		for _, id := range ids {
			count[id]++
		}
		return
	}
	for r, id := range ids {
		if !nulls[r] {
			count[id]++
		}
	}
}

// sumNonNull is the SUM/AVG kernel: each non-null value counts and adds, in
// the sum's own arithmetic, to its group.
func sumNonNull[S, V int64 | float64](count []int64, sum []S, ids []int32, vals []V, nulls []bool) {
	for r, id := range ids {
		if nulls == nil || !nulls[r] {
			count[id]++
			sum[id] += S(vals[r])
		}
	}
}

// keepOrdered is the min/max kernel over a flat column whose type is the
// state's own.
func keepOrdered[T int64 | float64](has []bool, cur []T, ids []int32, vals []T, nulls []bool, larger bool) {
	for r, id := range ids {
		if nulls != nil && nulls[r] {
			continue
		}
		if v := vals[r]; !has[id] || (larger && v > cur[id]) || (!larger && v < cur[id]) {
			cur[id], has[id] = v, true
		}
	}
}

// resultBlock renders the aggregate's final value for the selected groups.
func (a *aggVec) resultBlock(sel []int32) block.Block {
	switch a.spec.Func {
	case plan.AggMin, plan.AggMax:
		return a.mm.block(sel)
	case plan.AggSum:
		if a.floatSum {
			return &block.DoubleBlock{Vals: pick(a.sumF, sel), Nulls: zeroMask(a.count, sel)}
		}
		return &block.LongBlock{T: a.spec.Out, Vals: pick(a.sumI, sel), Nulls: zeroMask(a.count, sel)}
	case plan.AggAvg:
		vals := pick(a.sumF, sel)
		for i, id := range sel {
			if n := a.count[id]; n != 0 {
				vals[i] /= float64(n)
			}
		}
		return &block.DoubleBlock{Vals: vals, Nulls: zeroMask(a.count, sel)}
	}
	return &block.LongBlock{T: types.Bigint, Vals: pick(a.count, sel)}
}

func (o *HashAggregationOperator) Finish() {
	// Under o.mu: the pool's revoker thread reads finished (a finished
	// aggregation is no longer a spill candidate — its state is draining).
	o.mu.Lock()
	o.finished = true
	o.mu.Unlock()
}

func (o *HashAggregationOperator) prepareOutput() error {
	if o.prepared {
		return nil
	}
	o.prepared = true
	// The last look at state a revoker may still be writing: once finished is
	// set Revoke is a no-op, so whoever holds o.mu here sees either all of a
	// revocation or none of it, and from here on the table and spillFiles are
	// this goroutine's alone until Close.
	o.mu.Lock()
	if len(o.spillFiles) > 0 && o.table.Len() > 0 {
		// Spilled: the in-memory tail joins the files, so the drain below has
		// one source.
		if _, err := o.spillLocked(); err != nil {
			o.mu.Unlock()
			return err
		}
	}
	files := o.spillFiles
	o.mu.Unlock()
	if len(files) > 0 {
		if err := o.syncMem(); err != nil {
			return err
		}
		return o.drainSpilled(files)
	}
	if len(o.groupCols) == 0 && o.table.Len() == 0 {
		// Global aggregation with no groups: one row even for empty input.
		o.table.getOrInsertFixed(fnvOffset, nil, nil)
		for i := range o.accs {
			o.accs[i].grow(1)
		}
	}
	o.emitGroups()
	o.dropTableLocked()
	return nil
}

// drainSpilled merges the spill files back one hash partition at a time, so
// peak memory stays ~1/spillPartitions of the table: each partition's pages
// go back through the lookup AddInput uses into a table emptied per
// partition, their state columns merge by group id, and the partition's
// groups are emitted before the next one is read. A partition pass reads only
// that partition's extents of each file, so every record is read once.
func (o *HashAggregationOperator) drainSpilled(files []string) error {
	for part := 0; part < spillPartitions; part++ {
		o.resetTableLocked()
		pages := spillPartIter{files: files, part: part}
		for {
			p, err := pages.next()
			if err == nil && p != nil {
				err = o.mergeSpilledPage(p)
			}
			if err != nil {
				pages.close()
				return err
			}
			if p == nil {
				break
			}
		}
		o.emitGroups()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, name := range files {
		spill.Remove(name)
	}
	o.spillFiles = nil
	o.dropTableLocked()
	o.bytes = 0
	return nil
}

// emitGroups renders every group of the table into output pages, a column at
// a time: each output block owns a gather of the vector (or of the table's
// cells) it reads, so nothing is boxed and the table's arrays stay the
// table's.
func (o *HashAggregationOperator) emitGroups() {
	for lo, n := 0, o.table.Len(); lo < n; lo += o.pageSize {
		sel := scratch(o.ids, min(o.pageSize, n-lo))
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		o.ids = sel
		cols := o.keyBlocks(sel, len(o.accs))
		for i := range o.accs {
			cols = append(cols, o.accs[i].resultBlock(sel))
		}
		o.out = append(o.out, block.NewPage(cols...))
	}
}

// keyBlocks renders the group-key columns of the selected groups, with room
// for extra more columns behind them.
func (o *HashAggregationOperator) keyBlocks(sel []int32, extra int) []block.Block {
	cols := make([]block.Block, 0, len(o.keys)+extra)
	for k, v := range o.keys {
		if v != nil {
			cols = append(cols, v.block(sel))
		} else {
			cols = append(cols, o.table.cellBlock(k, o.groupTs[k], sel))
		}
	}
	return cols
}

func (o *HashAggregationOperator) Output() (*block.Page, error) {
	if !o.finished {
		return nil, nil
	}
	if err := o.prepareOutput(); err != nil {
		return nil, err
	}
	if o.outPos >= len(o.out) {
		return nil, nil
	}
	p := o.out[o.outPos]
	o.outPos++
	o.ctx.recordOut(p)
	return p, nil
}

func (o *HashAggregationOperator) IsFinished() bool {
	return o.finished && o.prepared && o.outPos >= len(o.out)
}
func (o *HashAggregationOperator) IsBlocked() bool { return false }
func (o *HashAggregationOperator) Close() error {
	o.mu.Lock()
	for _, f := range o.spillFiles {
		spill.Remove(f)
	}
	o.spillFiles = nil
	o.dropTableLocked()
	o.bytes, o.out = 0, nil
	o.mu.Unlock()
	o.ctx.Mem.Close() // outside o.mu, as syncMem
	return nil
}

// --- Revocable (spilling) support ---

// spillPartitions is the merge fan-out for spilled aggregations: each group
// is assigned a hash partition at spill time so the drain can merge one
// partition at a time, bounding peak memory to ~1/spillPartitions of the
// table (§IV-F2).
const spillPartitions = 16

// spillPartition is the partition of a group whose key hashes to h: the top
// bits, because a key table places entries by the low ones and a partition's
// keys are about to share a table.
func spillPartition(h uint64) uint8 { return uint8(h >> 60) }

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
	return o.bytes
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
// Revoke on each, so the call can arrive after Finish.
func (o *HashAggregationOperator) Revoke() (int64, error) {
	o.mu.Lock()
	if !o.spillable || o.finished {
		o.mu.Unlock()
		return 0, nil
	}
	freed, err := o.spillLocked()
	o.mu.Unlock()
	if err != nil || freed == 0 {
		return freed, err
	}
	return freed, o.syncMem()
}

// spillLocked writes every live group to one new spill file, bucketed by
// partition, and drops the table. The pages are gathered column by column
// straight from the table's vectors. Caller holds o.mu, and gives the freed
// reservation back (syncMem) once it has let go of it.
func (o *HashAggregationOperator) spillLocked() (int64, error) {
	n := o.table.Len()
	if n == 0 {
		// Nothing to write; a presized table gives its arrays back all the same.
		freed := o.bytes
		if freed > 0 {
			o.newTableLocked(0)
			o.bytes = 0
		}
		return freed, nil
	}
	// Counting sort of the group ids by partition. The partition comes from
	// the hash the table keys the group on, the one batchKeys computes for its
	// key, so a key lands in the same partition of every file this operator
	// writes.
	var ends [spillPartitions + 1]int
	for id := 0; id < n; id++ {
		ends[spillPartition(o.table.hash(id))+1]++
	}
	for part := 0; part < spillPartitions; part++ {
		ends[part+1] += ends[part]
	}
	next := ends
	order := make([]int32, n)
	for id := 0; id < n; id++ {
		part := spillPartition(o.table.hash(id))
		order[next[part]] = int32(id)
		next[part]++
	}

	w, err := spill.NewWriter(o.spillDir, "agg")
	if err != nil {
		return 0, err
	}
	for part := 0; part < spillPartitions; part++ {
		for from := ends[part]; from < ends[part+1]; from += o.pageSize {
			to := min(from+o.pageSize, ends[part+1])
			if err := w.WritePage(part, o.spillPage(order[from:to])); err != nil {
				w.Abort()
				return 0, err
			}
		}
	}
	if err := w.Finish(); err != nil {
		return 0, err
	}
	o.spillFiles = append(o.spillFiles, w.Path())
	o.spills++
	freed := o.bytes
	o.newTableLocked(0)
	o.bytes = 0
	return freed, nil
}

// spillPage is the columnar on-disk form of the selected groups: the
// group-key columns, then each aggregate's state vectors (spillStateCols).
func (o *HashAggregationOperator) spillPage(sel []int32) *block.Page {
	cols := o.keyBlocks(sel, 2*len(o.accs))
	for i := range o.accs {
		a := &o.accs[i]
		switch a.spec.Func {
		case plan.AggMin, plan.AggMax:
			cols = append(cols, &block.BoolBlock{Vals: pick(a.mm.has, sel)}, a.mm.block(sel))
		case plan.AggSum, plan.AggAvg:
			cols = append(cols, block.NewLongBlock(pick(a.count, sel), nil))
			if a.floatSum {
				cols = append(cols, &block.DoubleBlock{Vals: pick(a.sumF, sel)})
			} else {
				cols = append(cols, block.NewLongBlock(pick(a.sumI, sel), nil))
			}
		default:
			cols = append(cols, block.NewLongBlock(pick(a.count, sel), nil))
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
	ids, _ := o.resolveGroups(p, o.spillKeys)
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

// BuildAggProjection computes the projection expressions that feed a hash
// aggregation: group-by expressions first, then aggregate arguments. It
// returns the projection list, the operator's group columns/types, and the
// rewritten agg specs.
func BuildAggProjection(agg *plan.Aggregation) (proj []expr.Expr, groupCols []int, groupTs []types.Type, specs []AggSpec) {
	for i, g := range agg.GroupBy {
		proj = append(proj, g)
		groupCols = append(groupCols, i)
		groupTs = append(groupTs, g.Type())
	}
	for _, a := range agg.Aggregates {
		spec := AggSpec{Func: a.Func, ArgCol: -1, Distinct: a.Distinct, Out: a.Out}
		if a.Arg != nil {
			spec.ArgCol = len(proj)
			proj = append(proj, a.Arg)
		}
		specs = append(specs, spec)
	}
	return proj, groupCols, groupTs, specs
}
