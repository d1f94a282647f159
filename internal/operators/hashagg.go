package operators

import (
	"errors"
	"fmt"
	"io"
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
	o.fixedKeys = true
	for _, t := range groupTs {
		if !fixedWidthKey(t) {
			o.fixedKeys = false
			break
		}
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

func (o *HashAggregationOperator) AddInput(p *block.Page) error {
	o.ctx.recordIn(p)
	o.mu.Lock()
	n := p.RowCount()
	var err error
	switch {
	case o.vec && o.fixedKeys:
		err = o.addInputVecFixed(p, n)
	case o.vec:
		err = o.addInputVecBytes(p, n)
	default:
		err = o.addInputRows(p, n)
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

// addInputVecFixed is the vectorized fixed-cell path: one tight probe pass
// resolves every row to a dense group id, then each aggregate runs as a
// columnar update loop over the id vector (§V-B). Caller holds o.mu.
func (o *HashAggregationOperator) addInputVecFixed(p *block.Page, n int) error {
	if cap(o.ids) < n {
		o.ids = make([]int32, n)
	}
	ids := o.ids[:n]
	nk, na := len(o.groupCols), len(o.aggs)
	freshBytes := int64(9*nk) + int64(64*na) + 48
	runID := int32(-1)
	resolved := false
	if nk == 1 {
		runID, resolved = o.resolveEncodedSingle(p, ids, n)
	}
	if !resolved {
		o.batch.reset(p, o.groupCols, true)
		if nk == 1 {
			// Single-key fast path: probe on scalars, no per-row slicing.
			cells, tags, hashes := o.batch.cells, o.batch.tags, o.batch.hashes
			c0 := o.groupCols[0]
			for r := 0; r < n; r++ {
				id, fresh := o.table.getOrInsertFixed1(hashes[r], cells[r], tags[r])
				if fresh {
					g := o.newGroupLocked()
					g.Key[0] = p.Col(c0).Value(r)
					o.entries = append(o.entries, g)
					o.bytes += freshBytes
				}
				ids[r] = int32(id)
			}
		} else {
			for r := 0; r < n; r++ {
				cells, tags := o.batch.row(r)
				id, fresh := o.table.getOrInsertFixed(o.batch.hashes[r], cells, tags)
				if fresh {
					g := o.newGroupLocked()
					for i, c := range o.groupCols {
						g.Key[i] = p.Col(c).Value(r)
					}
					o.entries = append(o.entries, g)
					o.bytes += freshBytes
				}
				ids[r] = int32(id)
			}
		}
	}
	return o.accumulatePage(ids, runID, p, n)
}

// addInputVecBytes is the vectorized byte-layout path (varchar/array/mixed
// group keys): one pass resolves every row to a dense group id — probing the
// table once per dictionary entry or RLE run instead of materializing a
// canonical key encoding per row — then each aggregate runs over the id
// vector with the same columnar kernels as the fixed path (§V-B). Caller
// holds o.mu.
func (o *HashAggregationOperator) addInputVecBytes(p *block.Page, n int) error {
	if cap(o.ids) < n {
		o.ids = make([]int32, n)
	}
	ids := o.ids[:n]
	runID := int32(-1)
	resolved := false
	if len(o.groupCols) == 1 {
		runID, resolved = o.resolveEncodedSingle(p, ids, n)
	}
	if !resolved {
		o.batch.reset(p, o.groupCols, false)
		na := len(o.aggs)
		for r := 0; r < n; r++ {
			o.batch.buf = encodeRowKey(o.batch.buf[:0], p, r, o.groupCols)
			id, fresh := o.table.getOrInsertBytes(o.batch.hashes[r], o.batch.buf)
			if fresh {
				g := o.newGroupLocked()
				for i, c := range o.groupCols {
					g.Key[i] = p.Col(c).Value(r)
				}
				o.entries = append(o.entries, g)
				o.bytes += int64(len(o.batch.buf)) + int64(64*na) + 48
			}
			ids[r] = int32(id)
		}
	}
	return o.accumulatePage(ids, runID, p, n)
}

// resolveEncodedSingle resolves dictionary/RLE-encoded single-column group
// keys by distinct entry: the key table is probed once per referenced
// dictionary id (or once per page for RLE) and rows gather their group ids
// through the index vector. A runID >= 0 marks a page whose rows all fall in
// one group, letting aggregates fold whole RLE runs in a single step.
// resolved=false means the key column is flat and the caller should run the
// batch path. Caller holds o.mu.
func (o *HashAggregationOperator) resolveEncodedSingle(p *block.Page, ids []int32, n int) (runID int32, resolved bool) {
	switch kc := loadCol(p.Col(o.groupCols[0])).(type) {
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
		for r := 0; r < n; r++ {
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

// addInputRows is the legacy row-at-a-time map path, kept as the ablation
// baseline (OpContext.DisableVecKernels). Caller holds o.mu.
func (o *HashAggregationOperator) addInputRows(p *block.Page, n int) error {
	var buf []byte
	for r := 0; r < n; r++ {
		buf = encodeRowKey(buf[:0], p, r, o.groupCols)
		id, ok := o.legacy[string(buf)]
		fresh := false
		if !ok {
			id = len(o.entries)
			o.legacy[string(buf)] = id
			fresh = true
			o.bytes += int64(len(buf))
		}
		if fresh {
			key := make([]types.Value, len(o.groupCols))
			for i, c := range o.groupCols {
				key[i] = p.Col(c).Value(r)
			}
			o.entries = append(o.entries, &groupEntry{Key: key, States: make([]aggState, len(o.aggs))})
			o.bytes += int64(64*len(o.aggs)) + 48
		}
		g := o.entries[id]
		for i := range o.aggs {
			if err := o.accumulate(&g.States[i], &o.aggs[i], p, r); err != nil {
				return err
			}
		}
	}
	return nil
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
	// Global aggregation with no groups: one row even for empty input.
	if len(o.groupCols) == 0 && len(o.entries) == 0 && len(o.spillFiles) == 0 {
		o.entries = append(o.entries, &groupEntry{Key: nil, States: make([]aggState, len(o.aggs))})
	}
	outTypes := make([]types.Type, 0, len(o.groupTs)+len(o.aggs))
	outTypes = append(outTypes, o.groupTs...)
	for _, a := range o.aggs {
		outTypes = append(outTypes, a.Out)
	}
	if len(o.spillFiles) == 0 {
		o.emitGroups(o.entries, outTypes)
		o.entries = nil
		return nil
	}
	// Spilled: flush the in-memory tail too, then merge one hash partition
	// at a time so peak memory stays ~1/spillPartitions of the table.
	o.mu.Lock()
	if len(o.entries) > 0 {
		if _, err := o.revokeLocked(); err != nil {
			o.mu.Unlock()
			return err
		}
	}
	o.mu.Unlock()
	for part := 0; part < spillPartitions; part++ {
		merged := make(map[string]*groupEntry)
		for _, name := range o.spillFiles {
			if err := o.mergePartition(name, part, merged); err != nil {
				return err
			}
		}
		groups := make([]*groupEntry, 0, len(merged))
		for _, g := range merged {
			groups = append(groups, g)
		}
		o.emitGroups(groups, outTypes)
	}
	for _, name := range o.spillFiles {
		spill.Remove(name)
	}
	o.spillFiles = nil
	o.entries = nil
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

// mergePartition folds one spill file's pages of one partition into the
// merged map. Records tagged with other partitions are skipped without
// buffering or decoding their page frames.
func (o *HashAggregationOperator) mergePartition(name string, part int, merged map[string]*groupEntry) error {
	r, err := spill.OpenReader(name)
	if err != nil {
		return err
	}
	defer r.Close()
	nk, na := len(o.groupCols), len(o.aggs)
	var kb []byte
	for {
		p, err := r.NextPage(part)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("spill file %s: %w", name, err)
		}
		if p.ColCount() != nk+5*na {
			return fmt.Errorf("spill file %s: page has %d columns, want %d", name, p.ColCount(), nk+5*na)
		}
		for row := 0; row < p.RowCount(); row++ {
			vals := p.Row(row)
			key := vals[:nk:nk]
			states := make([]aggState, na)
			for i := range states {
				base := nk + 5*i
				states[i] = aggState{
					Count:  vals[base].I,
					SumI:   vals[base+1].I,
					SumF:   vals[base+2].F,
					HasVal: vals[base+3].B,
					MinMax: vals[base+4],
				}
			}
			kb = encodeValueKey(kb[:0], key)
			g, ok := merged[string(kb)]
			if !ok {
				merged[string(kb)] = &groupEntry{Key: key, States: states}
				continue
			}
			for i := range g.States {
				mergeState(&g.States[i], &states[i], &o.aggs[i])
			}
		}
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

// spillSchema is the columnar on-disk form of a spilled aggregation table:
// the group-key columns followed by five state columns per aggregate
// (Count, SumI, SumF, HasVal, MinMax). Pages go through the binary page
// codec (internal/block), partition-tagged per spill record.
func (o *HashAggregationOperator) spillSchema() []types.Type {
	ts := make([]types.Type, 0, len(o.groupTs)+5*len(o.aggs))
	ts = append(ts, o.groupTs...)
	for _, a := range o.aggs {
		mm := a.Out
		if mm == types.Unknown {
			mm = types.Bigint
		}
		ts = append(ts, types.Bigint, types.Bigint, types.Double, types.Boolean, mm)
	}
	return ts
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

// Revoke spills the hash table to a temp file and clears it.
func (o *HashAggregationOperator) Revoke() (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.revokeLocked()
}

func (o *HashAggregationOperator) revokeLocked() (int64, error) {
	if len(o.entries) == 0 {
		return 0, nil
	}
	w, err := spill.NewWriter(o.spillDir, "agg")
	if err != nil {
		return 0, err
	}
	schema := o.spillSchema()
	builders := make([]*block.PageBuilder, spillPartitions)
	flush := func(part int) error {
		pb := builders[part]
		if pb == nil {
			return nil
		}
		builders[part] = nil
		return w.WritePage(part, pb.Build())
	}
	var kb []byte
	var row []types.Value
	for _, g := range o.entries {
		// The partition is derived from the canonical encoding of the boxed
		// group key — the same bytes the legacy map used — so spill files
		// written by the vectorized and legacy paths merge interchangeably.
		kb = encodeValueKey(kb[:0], g.Key)
		part := int(hashRowKey(kb) % spillPartitions)
		row = row[:0]
		row = append(row, g.Key...)
		for i := range g.States {
			st := &g.States[i]
			mm := schema[len(o.groupTs)+5*i+4]
			mv := types.NullValue(mm)
			if st.HasVal && !st.MinMax.Null && st.MinMax.T != types.Unknown {
				mv = st.MinMax
				if cv, cerr := mv.Coerce(mm); cerr == nil {
					mv = cv
				}
			}
			row = append(row,
				types.BigintValue(st.Count),
				types.BigintValue(st.SumI),
				types.DoubleValue(st.SumF),
				types.BooleanValue(st.HasVal),
				mv,
			)
		}
		if builders[part] == nil {
			builders[part] = block.NewPageBuilder(schema)
		}
		builders[part].AppendRow(row)
		if builders[part].RowCount() >= o.pageSize {
			if err := flush(part); err != nil {
				w.Abort()
				return 0, err
			}
		}
	}
	for part := range builders {
		if err := flush(part); err != nil {
			w.Abort()
			return 0, err
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
