package operators

import (
	"errors"
	"fmt"
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

// aggState is the per-group accumulator for one aggregate.
type aggState struct {
	Count  int64
	SumI   int64
	SumF   float64
	HasVal bool
	MinMax types.Value
	// distinct values for DISTINCT aggregates (not spillable: set state
	// cannot be merged incrementally, so DISTINCT disables spilling).
	distinct map[string]struct{} // legacy path
	dset     *keyTable           // vectorized path
}

// groupEntry is one hash-table entry: the group's key values plus one state
// per aggregate.
type groupEntry struct {
	Key    []types.Value
	States []aggState
}

// HashAggregationOperator implements GROUP BY aggregation with a flat hash
// table, memory accounting, and optional spill-to-disk revocation (§IV-F2).
//
// Group lookup runs on one of two interchangeable indexes over the shared
// entries slice: an open-addressing keyTable fed by the batch hashing kernels
// (the default), or the legacy encodeRowKey+map path kept as the ablation
// baseline (OpContext.DisableVecKernels).
type HashAggregationOperator struct {
	ctx       *OpContext
	groupCols []int
	groupTs   []types.Type
	aggs      []AggSpec
	vec       bool
	fixedKeys bool

	// mu guards the table state and bytes: the pool's revocation path may
	// call Revoke from another query's thread (§IV-F2).
	mu      sync.Mutex
	entries []*groupEntry
	table   *keyTable      // vectorized lookup index
	legacy  map[string]int // ablation lookup index (entry position)
	batch   batchKeys
	ids     []int32 // per-page row→group id vector (vectorized fixed-key path)
	bytes   int64

	// Chunked arenas for fresh-group materialization on the vectorized path:
	// groups are allocated groupChunk at a time instead of three small objects
	// per group. Chunks are never reallocated once handed out (a full chunk is
	// replaced, not grown), so interior pointers stay valid.
	entryArena []groupEntry
	stateArena []aggState
	keyArena   []types.Value

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
func NewHashAggregation(ctx *OpContext, groupCols []int, groupTs []types.Type, aggs []AggSpec, spillable bool, pageSize int) *HashAggregationOperator {
	for _, a := range aggs {
		if a.Distinct {
			spillable = false // DISTINCT state is not spillable
		}
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	o := &HashAggregationOperator{
		ctx:       ctx,
		groupCols: groupCols,
		groupTs:   groupTs,
		aggs:      aggs,
		spillable: spillable,
		pageSize:  pageSize,
		vec:       ctx == nil || !ctx.DisableVecKernels,
	}
	o.fixedKeys = fixedWidthKeys(groupTs)
	o.spillKeys = make([]int, len(groupCols))
	for i := range o.spillKeys {
		o.spillKeys[i] = i
	}
	o.resetTableLocked()
	return o
}

// SetSpillDir directs spill files to dir instead of the OS temp dir.
func (o *HashAggregationOperator) SetSpillDir(dir string) { o.spillDir = dir }

// resetTableLocked installs a fresh, empty lookup index.
func (o *HashAggregationOperator) resetTableLocked() {
	o.entries = nil
	o.entryArena, o.stateArena, o.keyArena = nil, nil, nil
	if o.vec {
		o.table = newKeyTable(o.fixedKeys, len(o.groupCols))
	} else {
		o.legacy = make(map[string]int)
	}
}

// groupChunk is how many groups each arena chunk holds.
const groupChunk = 256

// newGroupLocked materializes a fresh group entry from chunked arenas. The
// returned entry's Key is zeroed and len(o.groupCols) long; States is zeroed
// and len(o.aggs) long.
func (o *HashAggregationOperator) newGroupLocked() *groupEntry {
	nk, na := len(o.groupCols), len(o.aggs)
	if len(o.entryArena) == cap(o.entryArena) {
		o.entryArena = make([]groupEntry, 0, groupChunk)
	}
	var key []types.Value
	if nk > 0 {
		if len(o.keyArena)+nk > cap(o.keyArena) {
			o.keyArena = make([]types.Value, 0, groupChunk*nk)
		}
		n0 := len(o.keyArena)
		o.keyArena = o.keyArena[:n0+nk]
		key = o.keyArena[n0 : n0+nk : n0+nk]
	}
	var states []aggState
	if na > 0 {
		if len(o.stateArena)+na > cap(o.stateArena) {
			o.stateArena = make([]aggState, 0, groupChunk*na)
		}
		n0 := len(o.stateArena)
		o.stateArena = o.stateArena[:n0+na]
		states = o.stateArena[n0 : n0+na : n0+na]
	}
	o.entryArena = append(o.entryArena, groupEntry{Key: key, States: states})
	return &o.entryArena[len(o.entryArena)-1]
}

func (o *HashAggregationOperator) NeedsInput() bool { return !o.finished }

// ReleasesInput declares to the pipeline compiler that the operator keeps no
// reference to an input page, or to any array under it, once AddInput
// returns, on any path. The page processor in front of it then reuses its
// output vectors from page to page (expr.PageProcessor.BorrowOutput). It
// holds because group keys and min/max states copy types.Values out of the
// page (a varchar value shares the string's bytes, which are immutable, not
// the vector that held it), DISTINCT sets copy encoded bytes, the batch
// hashing scratch is the operator's own, and Revoke and the drain read
// groups, not pages. Array-typed keys would share the element slice, but no
// processor lends an array block.
func (o *HashAggregationOperator) ReleasesInput() {}

func (o *HashAggregationOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.mu.Lock()
	ids, runID := o.resolveGroups(p, o.groupCols)
	var err error
	if o.vec {
		err = o.accumulatePage(ids, runID, p, len(ids))
	} else {
		err = o.accumulateRows(ids, p)
	}
	if err != nil {
		o.mu.Unlock()
		return err
	}
	bytes := o.bytes
	o.mu.Unlock()
	err = o.ctx.Mem.SetBytes(bytes)
	if err != nil && o.spillable && errors.Is(err, memory.ErrExceededLimit) {
		// Self-spill: the page is fully accumulated, so the table can be
		// written out and the reservation retried at (near) zero (§IV-F2).
		if _, serr := o.Revoke(); serr != nil {
			return serr
		}
		o.mu.Lock()
		bytes = o.bytes
		o.mu.Unlock()
		err = o.ctx.Mem.SetBytes(bytes)
	}
	return err
}

// resolveGroups maps every row of p to the dense id of its group, keyed on
// the given columns, materializing a fresh group for each key not seen since
// the table was last reset. Input pages (keys at o.groupCols) and spilled
// pages on their way back (keys at o.spillKeys) take the same path. A
// runID >= 0 marks a page whose rows all fall in one group. The id vector is
// the operator's scratch, valid until the next call. Caller holds o.mu.
func (o *HashAggregationOperator) resolveGroups(p *block.Page, cols []int) (ids []int32, runID int32) {
	n := p.RowCount()
	if cap(o.ids) < n {
		o.ids = make([]int32, n)
	}
	ids = o.ids[:n]
	switch {
	case !o.vec:
		o.resolveRows(p, ids, cols)
		return ids, -1
	case len(cols) == 1:
		if runID, resolved := o.resolveEncodedSingle(p, ids, cols[0]); resolved {
			return ids, runID
		}
	}
	if o.fixedKeys {
		o.resolveVecFixed(p, ids, cols)
	} else {
		o.resolveVecBytes(p, ids, cols)
	}
	return ids, -1
}

// resolveVecFixed is the vectorized fixed-cell lookup: one tight probe pass
// over the page's normalized key cells (§V-B). Caller holds o.mu.
func (o *HashAggregationOperator) resolveVecFixed(p *block.Page, ids []int32, cols []int) {
	nk, na := len(cols), len(o.aggs)
	freshBytes := int64(9*nk) + int64(64*na) + 48
	o.batch.reset(p, cols, true)
	if nk == 1 {
		// Single-key fast path: probe on scalars, no per-row slicing.
		cells, tags, hashes := o.batch.cells, o.batch.tags, o.batch.hashes
		c0 := p.Col(cols[0])
		for r := range ids {
			id, fresh := o.table.getOrInsertFixed1(hashes[r], cells[r], tags[r])
			if fresh {
				g := o.newGroupLocked()
				g.Key[0] = c0.Value(r)
				o.entries = append(o.entries, g)
				o.bytes += freshBytes
			}
			ids[r] = int32(id)
		}
		return
	}
	for r := range ids {
		cells, tags := o.batch.row(r)
		id, fresh := o.table.getOrInsertFixed(o.batch.hashes[r], cells, tags)
		if fresh {
			g := o.newGroupLocked()
			for i, c := range cols {
				g.Key[i] = p.Col(c).Value(r)
			}
			o.entries = append(o.entries, g)
			o.bytes += freshBytes
		}
		ids[r] = int32(id)
	}
}

// resolveVecBytes is the vectorized byte-layout lookup (varchar/array/mixed
// group keys): hashes come from the batch kernels, the canonical key encoding
// is built only to verify and store the key. Caller holds o.mu.
func (o *HashAggregationOperator) resolveVecBytes(p *block.Page, ids []int32, cols []int) {
	o.batch.reset(p, cols, false)
	na := len(o.aggs)
	for r := range ids {
		o.batch.buf = encodeRowKey(o.batch.buf[:0], p, r, cols)
		id, fresh := o.table.getOrInsertBytes(o.batch.hashes[r], o.batch.buf)
		if fresh {
			g := o.newGroupLocked()
			for i, c := range cols {
				g.Key[i] = p.Col(c).Value(r)
			}
			o.entries = append(o.entries, g)
			o.bytes += int64(len(o.batch.buf)) + int64(64*na) + 48
		}
		ids[r] = int32(id)
	}
}

// resolveRows is the legacy row-at-a-time map lookup, kept as the ablation
// baseline (OpContext.DisableVecKernels). Caller holds o.mu.
func (o *HashAggregationOperator) resolveRows(p *block.Page, ids []int32, cols []int) {
	buf := o.batch.buf
	for r := range ids {
		buf = encodeRowKey(buf[:0], p, r, cols)
		id, ok := o.legacy[string(buf)]
		if !ok {
			id = len(o.entries)
			o.legacy[string(buf)] = id
			key := make([]types.Value, len(cols))
			for i, c := range cols {
				key[i] = p.Col(c).Value(r)
			}
			o.entries = append(o.entries, &groupEntry{Key: key, States: make([]aggState, len(o.aggs))})
			o.bytes += int64(len(buf)) + int64(64*len(o.aggs)) + 48
		}
		ids[r] = int32(id)
	}
	o.batch.buf = buf
}

// accumulateRows is the legacy per-row accumulate over resolved ids.
func (o *HashAggregationOperator) accumulateRows(ids []int32, p *block.Page) error {
	for r, id := range ids {
		g := o.entries[id]
		for i := range o.aggs {
			if err := o.accumulate(&g.States[i], &o.aggs[i], p, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveEncodedSingle resolves dictionary/RLE-encoded single-column group
// keys by distinct entry: the key table is probed once per referenced
// dictionary id (or once per page for RLE) and rows gather their group ids
// through the index vector. A runID >= 0 marks a page whose rows all fall in
// one group, letting aggregates fold whole RLE runs in a single step.
// resolved=false means the key column is flat and the caller should run the
// batch path. Caller holds o.mu.
func (o *HashAggregationOperator) resolveEncodedSingle(p *block.Page, ids []int32, col int) (runID int32, resolved bool) {
	switch kc := loadCol(p.Col(col)).(type) {
	case *block.RLEBlock:
		id := o.groupIDForCell(kc.Val, 0)
		for i := range ids {
			ids[i] = id
		}
		return id, true
	case *block.DictionaryBlock:
		memo := make([]int32, kc.Dict.Len())
		for j := range memo {
			memo[j] = -1 // unresolved: unreferenced ids never create groups
		}
		for r := range ids {
			j := kc.Indices[r]
			if memo[j] < 0 {
				memo[j] = o.groupIDForCell(kc.Dict, int(j))
			}
			ids[r] = memo[j]
		}
		return -1, true
	}
	return -1, false
}

// groupIDForCell returns the dense group id of the single key cell blk[j],
// materializing a fresh group when absent. NULL is a valid group key in
// aggregation (unlike joins). Caller holds o.mu.
func (o *HashAggregationOperator) groupIDForCell(blk block.Block, j int) int32 {
	na := len(o.aggs)
	var id int
	var fresh bool
	if o.table.fixed {
		tag, cell := normValue(blk.Value(j))
		id, fresh = o.table.getOrInsertFixed1(fixed1Hash(cell, tag), cell, tag)
		if fresh {
			o.bytes += int64(9 + 64*na + 48)
		}
	} else {
		o.batch.buf = appendCellKey(o.batch.buf[:0], blk, j)
		id, fresh = o.table.getOrInsertBytes(bytes1Hash(o.batch.buf), o.batch.buf)
		if fresh {
			o.bytes += int64(len(o.batch.buf)) + int64(64*na) + 48
		}
	}
	if fresh {
		g := o.newGroupLocked()
		g.Key[0] = blk.Value(j)
		o.entries = append(o.entries, g)
	}
	return int32(id)
}

// accumulatePage runs every aggregate over the resolved id vector: the O(1)
// whole-run kernel when the page is a single group's RLE run, else the
// columnar kernels, else the per-row fallback. Caller holds o.mu.
func (o *HashAggregationOperator) accumulatePage(ids []int32, runID int32, p *block.Page, n int) error {
	for i := range o.aggs {
		if runID >= 0 && o.accumulateRun(&o.aggs[i], i, runID, p, n) {
			continue
		}
		if o.accumulateVec(&o.aggs[i], i, ids, p) {
			continue
		}
		for r := 0; r < n; r++ {
			if err := o.accumulate(&o.entries[ids[r]].States[i], &o.aggs[i], p, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// accumulateRun folds an entire page into one group in a single step: when
// every row falls in the same group (RLE group key) and the argument is also
// RLE-encoded (or COUNT(*)), the run's contribution is computed arithmetically
// instead of n accumulator updates. Returns false to fall back to the
// columnar/per-row kernels. Caller holds o.mu.
func (o *HashAggregationOperator) accumulateRun(spec *AggSpec, si int, id int32, p *block.Page, n int) bool {
	if spec.Distinct {
		return false
	}
	st := &o.entries[id].States[si]
	if spec.Func == plan.AggCountAll {
		st.Count += int64(n)
		return true
	}
	rle, ok := loadCol(p.Col(spec.ArgCol)).(*block.RLEBlock)
	if !ok {
		return false
	}
	if rle.Val.IsNull(0) {
		return true // NULL argument: every aggregate skips it
	}
	v := rle.Val.Value(0)
	switch spec.Func {
	case plan.AggCount:
		st.Count += int64(n)
	case plan.AggCountMerge:
		st.Count += v.I * int64(n)
	case plan.AggSum, plan.AggAvg:
		st.Count += int64(n)
		st.HasVal = true
		if v.T == types.Double {
			st.SumF += v.F * float64(n)
		} else {
			st.SumI += v.I * int64(n)
			st.SumF += float64(v.I) * float64(n)
		}
	case plan.AggMin:
		if !st.HasVal || v.Compare(st.MinMax) < 0 {
			st.MinMax, st.HasVal = v, true
		}
	case plan.AggMax:
		if !st.HasVal || v.Compare(st.MinMax) > 0 {
			st.MinMax, st.HasVal = v, true
		}
	default:
		return false
	}
	return true
}

// accumulateVec runs one aggregate as a columnar loop over the row→group id
// vector when the argument column has a specialized flat kernel. It returns
// false to fall back to the per-row accumulate path (DISTINCT aggregates,
// varchar/bool arguments, RLE/dictionary encodings). Each kernel mirrors
// accumulate's semantics exactly: NULL arguments are skipped, sums track both
// integer and float forms, and min/max comparisons match Value.Compare for
// the block's type.
func (o *HashAggregationOperator) accumulateVec(spec *AggSpec, si int, ids []int32, p *block.Page) bool {
	if spec.Distinct {
		return false
	}
	entries := o.entries
	if spec.Func == plan.AggCountAll {
		for _, id := range ids {
			entries[id].States[si].Count++
		}
		return true
	}
	col := p.Col(spec.ArgCol)
	if lz, ok := col.(*block.LazyBlock); ok {
		col = lz.Load()
	}
	switch src := col.(type) {
	case *block.LongBlock:
		vals, nulls := src.Vals, src.Nulls
		switch spec.Func {
		case plan.AggCount:
			countNonNull(entries, si, ids, nulls)
		case plan.AggCountMerge:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				entries[id].States[si].Count += vals[r]
			}
		case plan.AggSum, plan.AggAvg:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				v := vals[r]
				st.Count++
				st.HasVal = true
				st.SumI += v
				st.SumF += float64(v)
			}
		case plan.AggMin:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				if v := vals[r]; !st.HasVal || v < st.MinMax.I {
					st.MinMax = types.Value{T: src.T, I: v}
					st.HasVal = true
				}
			}
		case plan.AggMax:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				if v := vals[r]; !st.HasVal || v > st.MinMax.I {
					st.MinMax = types.Value{T: src.T, I: v}
					st.HasVal = true
				}
			}
		default:
			return false
		}
		return true
	case *block.DoubleBlock:
		vals, nulls := src.Vals, src.Nulls
		switch spec.Func {
		case plan.AggCount:
			countNonNull(entries, si, ids, nulls)
		case plan.AggSum, plan.AggAvg:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				st.Count++
				st.HasVal = true
				st.SumF += vals[r]
			}
		case plan.AggMin:
			// v < cur matches compareFloat: NaN compares equal, so an
			// incumbent is never displaced by NaN and vice versa.
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				if v := vals[r]; !st.HasVal || v < st.MinMax.F {
					st.MinMax = types.DoubleValue(v)
					st.HasVal = true
				}
			}
		case plan.AggMax:
			for r, id := range ids {
				if nulls != nil && nulls[r] {
					continue
				}
				st := &entries[id].States[si]
				if v := vals[r]; !st.HasVal || v > st.MinMax.F {
					st.MinMax = types.DoubleValue(v)
					st.HasVal = true
				}
			}
		default:
			return false
		}
		return true
	}
	return false
}

// countNonNull is the shared COUNT(col) kernel over a flat null mask.
func countNonNull(entries []*groupEntry, si int, ids []int32, nulls []bool) {
	if nulls == nil {
		for _, id := range ids {
			entries[id].States[si].Count++
		}
		return
	}
	for r, id := range ids {
		if !nulls[r] {
			entries[id].States[si].Count++
		}
	}
}

func (o *HashAggregationOperator) accumulate(st *aggState, spec *AggSpec, p *block.Page, r int) error {
	if spec.Func == plan.AggCountAll {
		st.Count++
		return nil
	}
	col := p.Col(spec.ArgCol)
	if col.IsNull(r) {
		return nil
	}
	if spec.Distinct {
		if o.vec {
			if st.dset == nil {
				st.dset = newKeyTable(false, 1)
			}
			o.batch.buf = appendCellKey(o.batch.buf[:0], col, r)
			_, fresh := st.dset.getOrInsertBytes(hashRowKey(o.batch.buf), o.batch.buf)
			if !fresh {
				return nil
			}
			o.bytes += int64(len(o.batch.buf) + 16)
		} else {
			if st.distinct == nil {
				st.distinct = make(map[string]struct{})
			}
			var kb []byte
			kb = encodeRowKey(kb, p, r, []int{spec.ArgCol})
			k := string(kb)
			if _, seen := st.distinct[k]; seen {
				return nil
			}
			st.distinct[k] = struct{}{}
			o.bytes += int64(len(k) + 16)
		}
	}
	switch spec.Func {
	case plan.AggCount:
		st.Count++
	case plan.AggCountMerge:
		st.Count += col.Long(r)
	case plan.AggSum, plan.AggAvg:
		st.Count++
		st.HasVal = true
		if col.Type() == types.Double {
			st.SumF += col.Double(r)
		} else {
			st.SumI += col.Long(r)
			st.SumF += float64(col.Long(r))
		}
	case plan.AggMin:
		v := col.Value(r)
		if !st.HasVal || v.Compare(st.MinMax) < 0 {
			st.MinMax = v
			st.HasVal = true
		}
	case plan.AggMax:
		v := col.Value(r)
		if !st.HasVal || v.Compare(st.MinMax) > 0 {
			st.MinMax = v
			st.HasVal = true
		}
	default:
		return fmt.Errorf("unknown aggregate %q", spec.Func)
	}
	return nil
}

// result renders one aggregate's final value.
func (spec *AggSpec) result(st *aggState) types.Value {
	switch spec.Func {
	case plan.AggCount, plan.AggCountAll, plan.AggCountMerge:
		return types.BigintValue(st.Count)
	case plan.AggSum:
		if !st.HasVal {
			return types.NullValue(spec.Out)
		}
		if spec.Out == types.Double {
			return types.DoubleValue(st.SumF)
		}
		return types.BigintValue(st.SumI)
	case plan.AggAvg:
		if st.Count == 0 {
			return types.NullValue(types.Double)
		}
		return types.DoubleValue(st.SumF / float64(st.Count))
	case plan.AggMin, plan.AggMax:
		if !st.HasVal {
			return types.NullValue(spec.Out)
		}
		v, err := st.MinMax.Coerce(spec.Out)
		if err != nil {
			return st.MinMax
		}
		return v
	}
	return types.NullValue(spec.Out)
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
	outTypes := make([]types.Type, 0, len(o.groupTs)+len(o.aggs))
	outTypes = append(outTypes, o.groupTs...)
	for _, a := range o.aggs {
		outTypes = append(outTypes, a.Out)
	}
	// The last look at state a revoker may still be writing: once finished is
	// set Revoke is a no-op, so whoever holds o.mu here sees either all of a
	// revocation or none of it, and from here on the table, entries and
	// spillFiles are this goroutine's alone until Close.
	o.mu.Lock()
	if len(o.spillFiles) > 0 && len(o.entries) > 0 {
		// Spilled: the in-memory tail joins the files, so the drain below has
		// one source.
		if _, err := o.spillLocked(); err != nil {
			o.mu.Unlock()
			return err
		}
	}
	files := o.spillFiles
	o.mu.Unlock()
	if len(files) == 0 {
		// Global aggregation with no groups: one row even for empty input.
		if len(o.groupCols) == 0 && len(o.entries) == 0 {
			o.entries = append(o.entries, &groupEntry{Key: nil, States: make([]aggState, len(o.aggs))})
		}
		o.emitGroups(o.entries, outTypes)
		o.entries = nil
		return nil
	}
	return o.drainSpilled(files, outTypes)
}

// drainSpilled merges the spill files back one hash partition at a time, so
// peak memory stays ~1/spillPartitions of the table: each partition's pages
// go back through the lookup AddInput uses into a table reset per partition,
// their state columns merge by group id, and the partition's groups are
// emitted before the next one is read. A partition pass reads only that
// partition's extents of each file, so every record is read once.
func (o *HashAggregationOperator) drainSpilled(files []string, outTypes []types.Type) error {
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
		o.emitGroups(o.entries, outTypes)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, name := range files {
		spill.Remove(name)
	}
	o.spillFiles = nil
	o.resetTableLocked()
	o.bytes = 0
	return nil
}

// emitGroups renders group entries into output pages column-at-a-time: each
// output column unboxes straight into its typed slice, skipping the boxed
// row builder's per-row value copies. Field extraction matches BuildBlock
// exactly (raw field reads, no coercion).
func (o *HashAggregationOperator) emitGroups(groups []*groupEntry, outTypes []types.Type) {
	nkeys := len(o.groupTs)
	for start := 0; start < len(groups); start += o.pageSize {
		end := start + o.pageSize
		if end > len(groups) {
			end = len(groups)
		}
		chunk := groups[start:end]
		cols := make([]block.Block, len(outTypes))
		for c, t := range outTypes {
			ci := c
			get := func(g *groupEntry) types.Value { return g.Key[ci] }
			if c >= nkeys {
				spec := &o.aggs[c-nkeys]
				si := c - nkeys
				get = func(g *groupEntry) types.Value { return spec.result(&g.States[si]) }
			}
			cols[c] = buildGroupCol(t, chunk, get)
		}
		o.out = append(o.out, block.NewPage(cols...))
	}
}

// buildGroupCol builds one typed output column from a chunk of groups.
func buildGroupCol(t types.Type, groups []*groupEntry, get func(*groupEntry) types.Value) block.Block {
	n := len(groups)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	switch t {
	case types.Bigint, types.Date:
		vals := make([]int64, n)
		for i, g := range groups {
			v := get(g)
			if v.Null {
				setNull(i)
			}
			vals[i] = v.I
		}
		return &block.LongBlock{T: t, Vals: vals, Nulls: nulls}
	case types.Double:
		vals := make([]float64, n)
		for i, g := range groups {
			v := get(g)
			if v.Null {
				setNull(i)
			}
			vals[i] = v.F
		}
		return &block.DoubleBlock{Vals: vals, Nulls: nulls}
	case types.Varchar:
		vals := make([]string, n)
		for i, g := range groups {
			v := get(g)
			if v.Null {
				setNull(i)
			}
			vals[i] = v.S
		}
		return &block.VarcharBlock{Vals: vals, Nulls: nulls}
	case types.Boolean:
		vals := make([]bool, n)
		for i, g := range groups {
			v := get(g)
			if v.Null {
				setNull(i)
			}
			vals[i] = v.B
		}
		return &block.BoolBlock{Vals: vals, Nulls: nulls}
	default:
		// Array keys and untyped NULL-literal columns: box through the
		// generic builder, mirroring BuildBlock's handling.
		vals := make([]types.Value, n)
		for i, g := range groups {
			vals[i] = get(g)
		}
		return block.BuildBlock(t, vals)
	}
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
	defer o.mu.Unlock()
	for _, f := range o.spillFiles {
		spill.Remove(f)
	}
	o.spillFiles = nil
	o.entries, o.table, o.legacy, o.out = nil, nil, nil, nil
	o.ctx.Mem.Close()
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
// page. A function spills only the state it keeps: Count for the counts;
// Count, SumI, SumF, HasVal for sum and avg; HasVal, MinMax for min and max.
func spillStateCols(f plan.AggFunc) int {
	switch f {
	case plan.AggSum, plan.AggAvg:
		return 4
	case plan.AggMin, plan.AggMax:
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
	defer o.mu.Unlock()
	if !o.spillable || o.finished {
		return 0, nil
	}
	return o.spillLocked()
}

// spillLocked writes every live group to one new spill file, bucketed by
// partition, and resets the table. The pages are built column by column
// straight from the group entries. Caller holds o.mu.
func (o *HashAggregationOperator) spillLocked() (int64, error) {
	if len(o.entries) == 0 {
		return 0, nil
	}
	// Counting sort of the groups by partition. The partition comes from the
	// hash the lookup index already keyed the group on, so a key lands in the
	// same partition of every file this operator writes.
	parts := make([]uint8, len(o.entries))
	if o.vec {
		for id, h := range o.table.hashes {
			parts[id] = spillPartition(h)
		}
	} else {
		for k, id := range o.legacy {
			parts[id] = spillPartition(hashRowKey(k))
		}
	}
	var ends [spillPartitions + 1]int
	for _, part := range parts {
		ends[part+1]++
	}
	for part := 0; part < spillPartitions; part++ {
		ends[part+1] += ends[part]
	}
	next := ends
	groups := make([]*groupEntry, len(o.entries))
	for id, g := range o.entries {
		groups[next[parts[id]]] = g
		next[parts[id]]++
	}

	w, err := spill.NewWriter(o.spillDir, "agg")
	if err != nil {
		return 0, err
	}
	for part := 0; part < spillPartitions; part++ {
		for from := ends[part]; from < ends[part+1]; from += o.pageSize {
			to := min(from+o.pageSize, ends[part+1])
			if err := w.WritePage(part, o.spillPage(groups[from:to])); err != nil {
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
	o.resetTableLocked()
	o.bytes = 0
	if err := o.ctx.Mem.SetBytes(0); err != nil {
		return 0, err
	}
	return freed, nil
}

// spillPage is the columnar on-disk form of a run of groups: the group-key
// columns, then each aggregate's state columns (spillStateCols).
func (o *HashAggregationOperator) spillPage(groups []*groupEntry) *block.Page {
	n := len(groups)
	cols := make([]block.Block, 0, len(o.groupTs)+4*len(o.aggs))
	for k, t := range o.groupTs {
		k := k
		cols = append(cols, buildGroupCol(t, groups, func(g *groupEntry) types.Value { return g.Key[k] }))
	}
	for i := range o.aggs {
		a := &o.aggs[i]
		switch a.Func {
		case plan.AggSum, plan.AggAvg:
			counts, sumI, sumF, has := make([]int64, n), make([]int64, n), make([]float64, n), make([]bool, n)
			for j, g := range groups {
				st := &g.States[i]
				counts[j], sumI[j], sumF[j], has[j] = st.Count, st.SumI, st.SumF, st.HasVal
			}
			cols = append(cols,
				&block.LongBlock{T: types.Bigint, Vals: counts},
				&block.LongBlock{T: types.Bigint, Vals: sumI},
				&block.DoubleBlock{Vals: sumF},
				&block.BoolBlock{Vals: has})
		case plan.AggMin, plan.AggMax:
			has := make([]bool, n)
			for j, g := range groups {
				has[j] = g.States[i].HasVal
			}
			// Spilled in the aggregate's output type, which result coerces
			// to anyway.
			mm := a.Out
			if mm == types.Unknown {
				mm = types.Bigint
			}
			cols = append(cols, &block.BoolBlock{Vals: has}, buildGroupCol(mm, groups, func(g *groupEntry) types.Value {
				st := &g.States[i]
				if !st.HasVal {
					return types.NullValue(mm)
				}
				if st.MinMax.T != mm {
					if v, err := st.MinMax.Coerce(mm); err == nil {
						return v
					}
				}
				return st.MinMax
			}))
		default:
			counts := make([]int64, n)
			for j, g := range groups {
				counts[j] = g.States[i].Count
			}
			cols = append(cols, &block.LongBlock{T: types.Bigint, Vals: counts})
		}
	}
	return block.NewPage(cols...)
}

// mergeSpilledPage folds one spilled page into the table: its key columns
// resolve to group ids through the lookup AddInput uses, then each
// aggregate's state columns accumulate into the groups by id — mergeState,
// a column at a time. Caller owns the table (the operator is finished).
func (o *HashAggregationOperator) mergeSpilledPage(p *block.Page) error {
	want := len(o.groupTs)
	for i := range o.aggs {
		want += spillStateCols(o.aggs[i].Func)
	}
	if p.ColCount() != want {
		return fmt.Errorf("spilled page has %d columns, want %d", p.ColCount(), want)
	}
	ids, _ := o.resolveGroups(p, o.spillKeys)
	entries := o.entries
	c := len(o.groupTs)
	for i := range o.aggs {
		a := &o.aggs[i]
		switch a.Func {
		case plan.AggSum, plan.AggAvg:
			counts, ok0 := p.Col(c).(*block.LongBlock)
			sumI, ok1 := p.Col(c + 1).(*block.LongBlock)
			sumF, ok2 := p.Col(c + 2).(*block.DoubleBlock)
			has, ok3 := p.Col(c + 3).(*block.BoolBlock)
			if !(ok0 && ok1 && ok2 && ok3) {
				return fmt.Errorf("spilled state columns %d..%d are %T, %T, %T, %T", c, c+3, p.Col(c), p.Col(c+1), p.Col(c+2), p.Col(c+3))
			}
			for r, id := range ids {
				st := &entries[id].States[i]
				st.Count += counts.Vals[r]
				st.SumI += sumI.Vals[r]
				st.SumF += sumF.Vals[r]
				st.HasVal = st.HasVal || has.Vals[r]
			}
		case plan.AggMin, plan.AggMax:
			has, ok := p.Col(c).(*block.BoolBlock)
			if !ok {
				return fmt.Errorf("spilled state column %d is %T", c, p.Col(c))
			}
			vals := p.Col(c + 1)
			for r, id := range ids {
				if has.Vals[r] {
					mergeState(&entries[id].States[i], &aggState{HasVal: true, MinMax: vals.Value(r)}, a)
				}
			}
		default:
			counts, ok := p.Col(c).(*block.LongBlock)
			if !ok {
				return fmt.Errorf("spilled state column %d is %T", c, p.Col(c))
			}
			for r, id := range ids {
				entries[id].States[i].Count += counts.Vals[r]
			}
		}
		c += spillStateCols(a.Func)
	}
	return nil
}

// SpillCount reports how many times the operator spilled (for benches).
func (o *HashAggregationOperator) SpillCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spills
}

func mergeState(dst, src *aggState, spec *AggSpec) {
	switch spec.Func {
	case plan.AggCount, plan.AggCountAll, plan.AggCountMerge:
		dst.Count += src.Count
	case plan.AggSum, plan.AggAvg:
		dst.Count += src.Count
		dst.SumI += src.SumI
		dst.SumF += src.SumF
		dst.HasVal = dst.HasVal || src.HasVal
	case plan.AggMin:
		if src.HasVal && (!dst.HasVal || src.MinMax.Compare(dst.MinMax) < 0) {
			dst.MinMax = src.MinMax
			dst.HasVal = true
		}
	case plan.AggMax:
		if src.HasVal && (!dst.HasVal || src.MinMax.Compare(dst.MinMax) > 0) {
			dst.MinMax = src.MinMax
			dst.HasVal = true
		}
	}
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
