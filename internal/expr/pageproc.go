package expr

import (
	"math"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/types"
)

// PageProcessor evaluates a filter and a set of projections one page at a
// time. It implements the paper's compressed-execution optimizations (§V-E):
// when every input column of a projection arrives dictionary-encoded, the
// projection is evaluated once per combination of dictionary entries and the
// output is a dictionary block over the composed indices; when successive
// pages share their dictionaries, the computed results are retained and
// reused; RLE inputs are evaluated once per run; constant subtrees are
// evaluated once per processor and emitted as RLE blocks.
// Projections the vectorized kernels cover (§V-B) run loop-per-operator over
// the typed column vectors, fused with the filter's selection vector; the
// interpreter is the fallback for everything else and the ablation baseline
// (NewInterpretedPageProcessor).
type PageProcessor struct {
	filterExpr  Expr  // nil means no filter
	filter      selFn // selection kernels, or the interpreter over filterExpr
	filterCols  []int // column indices referenced by the filter
	projections []*Evaluator
	identCol    []int   // input column a projection passes through, or -1
	identFirst  []int   // first projection passing the same input column through (itself if none earlier)
	projInputs  [][]int // referenced column indices per projection
	projConst   []bool  // deterministic zero-input projections (RLE output)
	projEncoded []bool  // deterministic projections of 1..maxDictInputs columns: one result per combination of their entries

	// dyn, when set, returns the dynamic-filter selection kernels to run
	// ahead of the filter: this page's, so a summary that arrives between two
	// pages of a split filters the second (SetDynamicFilters).
	dyn func() []SelVector

	selOut []int // selection output buffer, grown by the rows that survive
	selTmp []int // the second output buffer a chain of selections alternates with

	// borrow: the output page is read before the next Process call and not
	// after, so its arrays can be the projectors' own (BorrowOutput).
	borrow bool

	// Vectorized projection state: one projector per covered projection
	// (nil entries run on the interpreter), the CSE slots in evaluation
	// order, which slots covered projections actually reference, and the
	// per-page evaluation context.
	projVec        []*vecProjector
	cseSlots       []*cseSlot
	slotNeeded     []bool
	cseHitsPerPage int64
	vin            vecInput

	// constVal caches the 1-row result of each constant projection.
	constVal []block.Block

	// Per-dictionary projection cache: maps (projection, input dictionary
	// blocks) to the projected dictionary, emulating Presto's retained-array
	// optimization for shared dictionaries. Bounded: when full, the oldest
	// entry is evicted (cheap FIFO approximation of LRU — long-lived scans
	// cycle through few distinct dictionaries, so recency ~= insertion).
	dictCache map[dictCacheKey]block.Block
	dictOrder []dictCacheKey
	// dictIdx holds, per projection, the index vector of a dictionary output
	// while output is borrowed (BorrowOutput); it is refilled for the next
	// page. Made when the first dictionary output is.
	dictIdx [][]int32

	// rleFiller caches the placeholder column of the pages the dictionary/RLE
	// fast paths evaluate over, instead of allocating one per call.
	rleFillerVal block.Block
	rleFiller    *block.RLEBlock

	// Stats observed by the lazy-loading and compressed-execution benches.
	Stats ProcessorStats
}

// maxDictInputs is how many dictionary-encoded input columns a projection may
// read and still be evaluated by combination.
const maxDictInputs = 4

// dictCacheKey identifies a cached dictionary projection: the projection (two
// projections over the same dictionaries compute different outputs) and the
// dictionary of each of its inputs, in input order.
type dictCacheKey struct {
	proj  int
	dicts [maxDictInputs]block.Block
}

// dictCacheCap bounds the per-processor dictionary projection cache.
const dictCacheCap = 64

// ProcessorStats counts work done by a page processor.
type ProcessorStats struct {
	PagesIn        int64
	RowsIn         int64
	RowsOut        int64
	DynFiltered    int64 // rows the dynamic filters dropped ahead of the filter
	DictEvals      int64 // projections evaluated once-per-dictionary
	DictRows       int64 // rows whose projection was emitted as indices into such results
	FullEvals      int64 // projections evaluated once-per-row
	DictCacheHits  int64 // shared-dictionary result reuse
	DictEvictions  int64 // dictionary cache entries evicted at capacity
	VecProjEvals   int64 // projections evaluated by vectorized kernels
	CSEHits        int64 // shared-subtree evaluations saved by CSE
	ConstRLEEvals  int64 // constant projections folded to RLE output
	CellsProcessed int64
}

// poisonBorrowed, when not empty, makes a borrowing processor overwrite its
// output vectors at the start of every Process, so that a consumer that kept
// part of a borrowed page past its time reads values no input holds. Nothing
// but tests turns it on: this package's through export_test.go, and
// scripts/check.sh by linking it on (-ldflags -X) under the aggregation
// differential walls of the other packages.
var poisonBorrowed string

// PoisonsBorrowed reports whether the borrowed-page poison is on; an operator
// outside this package that lends its output (the lookup join) asks before
// every page and overwrites its lent vectors with PoisonVectors.
func PoisonsBorrowed() bool { return poisonBorrowed != "" }

// NewPageProcessor compiles filter (may be nil) and projections. The pages
// it returns are owned by the caller and immutable, unless BorrowOutput says
// otherwise.
func NewPageProcessor(filter Expr, projections []Expr) *PageProcessor {
	pp := newPageProcessor(filter, projections, Compile)
	if filter != nil {
		pp.filter = compileSel(filter, false)
	}
	for i, e := range projections {
		pp.projConst[i] = len(pp.projInputs[i]) == 0 && IsDeterministic(e)
	}
	pp.compileVectorized(projections)
	return pp
}

// NewInterpretedPageProcessor builds a processor that uses only the
// interpreter — the baseline side of the codegen ablation.
func NewInterpretedPageProcessor(filter Expr, projections []Expr) *PageProcessor {
	pp := newPageProcessor(filter, projections, InterpretOnly)
	pp.interpretFilter()
	return pp
}

func newPageProcessor(filter Expr, projections []Expr, evaluator func(Expr) *Evaluator) *PageProcessor {
	pp := &PageProcessor{
		dictCache:   make(map[dictCacheKey]block.Block),
		filterExpr:  filter,
		projEncoded: make([]bool, 0, len(projections)),
		projConst:   make([]bool, len(projections)),
		constVal:    make([]block.Block, len(projections)),
		projVec:     make([]*vecProjector, len(projections)),
	}
	if filter != nil {
		pp.filterCols = Columns(filter)
	}
	firstIdent := map[int]int{}
	for i, e := range projections {
		pp.projections = append(pp.projections, evaluator(e))
		inputs := Columns(e)
		pp.projInputs = append(pp.projInputs, inputs)
		// One result per combination of entries is the result of every row
		// only if equal inputs give equal outputs.
		pp.projEncoded = append(pp.projEncoded, len(inputs) >= 1 && len(inputs) <= maxDictInputs && IsDeterministic(e))
		ident, first := -1, i
		if c, ok := e.(*ColumnRef); ok {
			ident = c.Index
			if j, seen := firstIdent[ident]; seen {
				first = j
			} else {
				firstIdent[ident] = i
			}
		}
		pp.identCol = append(pp.identCol, ident)
		pp.identFirst = append(pp.identFirst, first)
	}
	return pp
}

// BorrowOutput tells the processor, once and before its first page, that
// whoever receives an output page is done with it, and with every array
// under it, before the next Process call. Filtered pass-through columns and
// kernel-evaluated projections are from then on written into vectors the
// processor owns and overwrites for the next page, so a driver allocates them
// once and not per page; the index vector of a dictionary output (a filtered
// pass-through dictionary column, a projection evaluated by combination) is
// lent under the same rule, its dictionary never. Everything else — an
// unfiltered pass-through column, RLE and array outputs, interpreted
// projections — stays an owned, immutable block as without the call.
func (pp *PageProcessor) BorrowOutput() { pp.borrow = true }

// BorrowsOutput reports whether BorrowOutput has been called.
func (pp *PageProcessor) BorrowsOutput() bool { return pp.borrow }

// compileVectorized plans CSE across the projection list and picks each
// covered projection's projector: its evaluator's own when CSE left it
// alone, one compiled over the rewritten expression when it reads a slot.
func (pp *PageProcessor) compileVectorized(projections []Expr) {
	rewritten, slots := planCSE(projections)
	for i, e := range rewritten {
		switch {
		case pp.identCol[i] >= 0 || pp.projConst[i]:
			// identity and constant projections have dedicated paths
		case countSlotRefs(e) == 0:
			pp.projVec[i] = pp.projections[i].vec
		default:
			pp.projVec[i] = compileVecProj(e)
		}
	}
	if len(slots) == 0 {
		return
	}
	// A slot is needed only if some covered projection (or a needed later
	// slot) reads it; interpreted projections use their original,
	// unrewritten expressions.
	needed := make([]bool, len(slots))
	for i, e := range rewritten {
		if pp.projVec[i] != nil {
			markSlotRefs(e, needed)
		}
	}
	for k := len(slots) - 1; k >= 0; k-- {
		if needed[k] {
			markSlotRefs(slots[k].expr, needed)
		}
	}
	refs, evals := 0, 0
	for i, e := range rewritten {
		if pp.projVec[i] != nil {
			refs += countSlotRefs(e)
		}
	}
	for k, s := range slots {
		if needed[k] {
			refs += countSlotRefs(s.expr)
			evals++
		}
	}
	if evals == 0 {
		return
	}
	pp.cseSlots = slots
	pp.slotNeeded = needed
	pp.cseHitsPerPage = int64(refs - evals)
}

// interpretFilter runs this processor's filter on the interpreter.
func (pp *PageProcessor) interpretFilter() {
	if pp.filterExpr != nil {
		pp.filter = selInterp(pp.filterExpr, false)
	}
}

// SetDynamicFilters puts dynamic join filters ahead of the processor's own
// filter: sels is asked before every page for the selection kernels of the
// summaries that have arrived, and the rows they drop are neither filtered nor
// gathered again — a page is narrowed to one selection vector and gathered
// once, into lent vectors under BorrowOutput. Call before the first page, on
// the processor that reads the subscribed scan's pages.
func (pp *PageProcessor) SetDynamicFilters(sels func() []SelVector) { pp.dyn = sels }

// Process filters p and computes the projections, returning the output page
// (nil when no rows pass the filter).
func (pp *PageProcessor) Process(p *block.Page) (*block.Page, error) {
	pp.Stats.PagesIn++
	pp.Stats.RowsIn += int64(p.RowCount())
	if pp.borrow && poisonBorrowed != "" {
		pp.poisonOutput()
	}
	n := p.RowCount()
	var selected []int
	if pp.filter != nil || pp.dyn != nil {
		selected = pp.selectRows(p)
		if len(selected) == 0 {
			return nil, nil
		}
		if len(selected) == n {
			selected = nil // every row passed: nothing to gather
		}
	}
	outRows := n
	if selected != nil {
		outRows = len(selected)
	}
	pp.Stats.RowsOut += int64(outRows)

	if len(pp.projections) == 0 {
		// Zero-column output (e.g. COUNT(*) over a pruned scan): only the
		// row count survives.
		return block.NewEmptyPage(outRows), nil
	}

	pp.vin = vecInput{p: p, sel: selected, n: outRows, shared: pp.vin.shared[:0]}
	if len(pp.cseSlots) > 0 {
		if err := pp.evalCSESlots(); err != nil {
			return nil, err
		}
	}

	var gathered *block.Page
	cols := make([]block.Block, len(pp.projections))
	for i := range pp.projections {
		if j := pp.identFirst[i]; j < i {
			cols[i] = cols[j] // a column projected twice is gathered once
			continue
		}
		col, err := pp.project(i, p, selected, outRows, &gathered)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return block.NewPage(cols...), nil
}

// evalCSESlots computes the needed shared subtrees once per page; their
// selection-aligned outputs are read by the projectors as virtual columns.
func (pp *PageProcessor) evalCSESlots() error {
	for k, s := range pp.cseSlots {
		if !pp.slotNeeded[k] {
			pp.vin.shared = append(pp.vin.shared, nil)
			continue
		}
		// A slot's block is read by this page's projectors and copied from,
		// never handed out, so it is always scratch.
		b, err := s.proj.eval(&pp.vin, true)
		if err != nil {
			return err
		}
		pp.vin.shared = append(pp.vin.shared, b)
		pp.Stats.VecProjEvals++
	}
	pp.Stats.CSEHits += pp.cseHitsPerPage
	return nil
}

// identity is the process-wide identity row vector 0, 1, 2, …: every
// selection chain starts from a prefix of it. It is shared by all processors
// on all goroutines, so it is read-only — a selection kernel reads in and
// appends to out, never the reverse — and grows by publishing a longer copy.
var identity atomic.Pointer[[]int]

// identityRows returns the first n entries of the shared identity vector.
func identityRows(n int) []int {
	cur := identity.Load()
	if cur != nil && len(*cur) >= n {
		return (*cur)[:n]
	}
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	// Lose the race to another grower and v is still a valid identity; the
	// published vector only ever gets longer.
	identity.CompareAndSwap(cur, &v)
	return v
}

// selectRows returns the rows of p that pass the dynamic filters and then the
// filter. The result aliases processor-owned buffers (or the shared identity
// vector) and is valid until the next page.
func (pp *PageProcessor) selectRows(p *block.Page) []int {
	n := p.RowCount()
	// Each selection reads rows and appends to the buffer rows does not alias;
	// the two output buffers then trade places. They start small and keep what
	// append grew them to, so a selective read pays for the rows that survive
	// and a full scan pays one doubling sequence on its first page.
	rows, out, spare := identityRows(n), &pp.selOut, &pp.selTmp
	run := func(sel selFn, in []int) []int {
		if *out == nil {
			*out = make([]int, 0, min(n, 64))
		}
		res := sel(p, in, (*out)[:0])
		*out = res[:0]
		out, spare = spare, out
		return res
	}
	if pp.dyn != nil {
		for _, sel := range pp.dyn() {
			if len(rows) == 0 {
				break
			}
			rows = run(sel, rows)
		}
		pp.Stats.DynFiltered += int64(n - len(rows))
	}
	if pp.filter == nil || len(rows) == 0 {
		return rows
	}
	// RLE fast path: if every column the filter references is RLE the result
	// is all-or-nothing; evaluate the first row only.
	if pp.allFilterInputsRLE(p) {
		if len(run(pp.filter, rows[:1])) == 0 {
			return nil
		}
		return rows
	}
	pp.Stats.CellsProcessed += int64(len(rows))
	return run(pp.filter, rows)
}

// allFilterInputsRLE reports whether every column the filter actually
// references is run-length encoded. Only referenced columns matter: a flat
// payload column elsewhere in the page must not defeat the fast path, and a
// const-only filter (no referenced columns) gets no fast path.
func (pp *PageProcessor) allFilterInputsRLE(p *block.Page) bool {
	if len(pp.filterCols) == 0 {
		return false
	}
	for _, c := range pp.filterCols {
		if _, ok := p.Col(c).(*block.RLEBlock); !ok {
			return false
		}
	}
	return true
}

// project computes projection i over the selected rows of p. gathered caches
// the FilterPositions page across projections of the same input page, so the
// interpreted fallback gathers at most once per page.
func (pp *PageProcessor) project(i int, p *block.Page, selected []int, outRows int, gathered **block.Page) (block.Block, error) {
	inputs := pp.projInputs[i]

	// Identity projection: just gather the input column — into the
	// projector's own vector when the page is borrowed and the column is flat
	// (the kernels would expand an encoded one); a dictionary column keeps its
	// dictionary under gathered indices.
	if c := pp.identCol[i]; c >= 0 {
		col := p.Col(c)
		if selected == nil {
			return col, nil
		}
		if d, ok := col.(*block.DictionaryBlock); ok {
			return block.NewDictionaryBlock(d.Dict, pp.composeIndices(i, []*block.DictionaryBlock{d}, selected)), nil
		}
		if vp := pp.projections[i].vec; pp.borrow && vp != nil && isFlat(unwrapLazy(col)) {
			return vp.eval(&pp.vin, true)
		}
		return block.CopyPositions(col, selected), nil
	}

	// Constant subtree: evaluate once per processor, emit an RLE run.
	if pp.projConst[i] && outRows > 0 {
		one, err := pp.constOne(i, p)
		if err != nil {
			return nil, err
		}
		return block.NewRLEBlockFromBlock(one, outRows), nil
	}

	// Dictionary fast path: every input column is dictionary-encoded.
	if pp.projEncoded[i] && outRows > 0 {
		if blk := pp.projectDictionary(i, p, selected, outRows); blk != nil {
			return blk, nil
		}
	}

	// RLE fast path: every referenced input is a single run, so the
	// projection has one distinct result; evaluate it once.
	if pp.projEncoded[i] && outRows > 0 && allInputsRLE(p, inputs) {
		out, err := pp.projections[i].EvalPage(pp.rleRunPage(p, inputs))
		if err != nil {
			return nil, err
		}
		pp.Stats.DictEvals++
		pp.Stats.CellsProcessed++
		return block.NewRLEBlockFromBlock(out, outRows), nil
	}

	// Vectorized kernels, fused with the selection vector: compute only the
	// surviving rows, straight from the source page.
	if pp.projVec[i] != nil {
		blk, err := pp.projVec[i].eval(&pp.vin, pp.borrow)
		if err != nil {
			return nil, err
		}
		pp.Stats.VecProjEvals++
		pp.Stats.CellsProcessed += int64(outRows * len(inputs))
		return blk, nil
	}

	// Interpreted path: gather selected rows, evaluate per row.
	in := p
	if selected != nil {
		if *gathered == nil {
			*gathered = p.FilterPositions(selected)
		}
		in = *gathered
	}
	pp.Stats.FullEvals++
	pp.Stats.CellsProcessed += int64(in.RowCount() * len(inputs))
	return pp.projections[i].EvalPage(in)
}

// isFlat reports whether b is a plain typed block the column kernels gather
// from without changing its encoding.
func isFlat(b block.Block) bool {
	switch b.(type) {
	case *block.LongBlock, *block.DoubleBlock, *block.VarcharBlock, *block.BoolBlock:
		return true
	}
	return false
}

// poisonOutput overwrites the vectors borrowed output pages view.
func (pp *PageProcessor) poisonOutput() {
	for i, vp := range pp.projVec {
		if vp != nil {
			vp.poison()
		}
		if ident := pp.projections[i].vec; ident != nil {
			ident.poison()
		}
	}
	for _, idx := range pp.dictIdx {
		fillCap(idx, math.MinInt32) // addresses no dictionary entry
	}
}

// constOne evaluates constant projection i once, caching the 1-row result.
func (pp *PageProcessor) constOne(i int, p *block.Page) (block.Block, error) {
	if pp.constVal[i] != nil {
		return pp.constVal[i], nil
	}
	ncols := p.ColCount()
	if ncols == 0 {
		ncols = 1 // the projection reads no columns; give the page a row
	}
	one, err := pp.projections[i].EvalPage(block.NewPage(pp.placeholderCols(ncols, 1)...))
	if err != nil {
		return nil, err
	}
	pp.Stats.ConstRLEEvals++
	pp.constVal[i] = one
	return one, nil
}

// projectDictionary computes projection i, whose inputs all arrive
// dictionary-encoded in p, once per combination of their dictionaries' entries
// rather than once per row: the output is a dictionary block of the
// per-combination results under the rows' composed indices. The results are
// cached per (projection, dictionaries), so successive pages sharing their
// dictionaries reuse the computation; the cache is bounded at dictCacheCap
// entries with FIFO eviction. It returns nil, and the caller takes a row-level
// path, when an input is not a dictionary; when the page has fewer surviving
// rows than there are combinations to evaluate (the paper's guard, §V-E: the
// row path then does less work); and when evaluation fails — a combination no
// surviving row has (an unreferenced zero divisor, say) may be the one that
// failed, and the row paths touch only surviving rows, so errors surface
// exactly when a referenced row triggers them.
func (pp *PageProcessor) projectDictionary(i int, p *block.Page, selected []int, outRows int) block.Block {
	inputs := pp.projInputs[i]
	var srcs [maxDictInputs]*block.DictionaryBlock
	key := dictCacheKey{proj: i}
	combos := 1
	for k, c := range inputs {
		d, ok := p.Col(c).(*block.DictionaryBlock)
		if !ok {
			return nil
		}
		srcs[k], key.dicts[k] = d, d.Dict
		if combos <= outRows { // else already too many; and no overflow
			combos *= d.Dict.Len()
		}
	}
	projDict, ok := pp.dictCache[key]
	if ok {
		pp.Stats.DictCacheHits++
	} else {
		if combos > outRows {
			return nil
		}
		out, err := pp.projections[i].EvalPage(pp.combinationPage(p.ColCount(), inputs, srcs[:len(inputs)], combos))
		if err != nil {
			return nil
		}
		pp.Stats.DictEvals++
		pp.Stats.CellsProcessed += int64(combos * len(inputs))
		if len(pp.dictCache) >= dictCacheCap {
			oldest := pp.dictOrder[0]
			pp.dictOrder = pp.dictOrder[1:]
			delete(pp.dictCache, oldest)
			pp.Stats.DictEvictions++
		}
		pp.dictCache[key] = out
		pp.dictOrder = append(pp.dictOrder, key)
		projDict = out
	}
	pp.Stats.DictRows += int64(outRows)
	return block.NewDictionaryBlock(projDict, pp.composeIndices(i, srcs[:len(inputs)], selected))
}

// composeIndices returns, for every surviving row, the index of its
// combination of dictionary entries: the first input's index varies slowest.
// One input under no selection is its own index vector; anything else is
// written into a vector the processor lends when its output is borrowed.
func (pp *PageProcessor) composeIndices(i int, srcs []*block.DictionaryBlock, selected []int) []int32 {
	first := srcs[0].Indices
	if len(srcs) == 1 && selected == nil {
		return first
	}
	n := len(first)
	if selected != nil {
		n = len(selected)
	}
	var out []int32
	if pp.borrow {
		if pp.dictIdx == nil {
			pp.dictIdx = make([][]int32, len(pp.projections))
		}
		pp.dictIdx[i] = growSlice(pp.dictIdx[i], n)
		out = pp.dictIdx[i]
	} else {
		out = make([]int32, n)
	}
	if selected == nil {
		copy(out, first)
	} else {
		for j, r := range selected {
			out[j] = first[r]
		}
	}
	for _, src := range srcs[1:] {
		width, idx := int32(src.Dict.Len()), src.Indices
		if selected == nil {
			for j := range out {
				out[j] = out[j]*width + idx[j]
			}
		} else {
			for j, r := range selected {
				out[j] = out[j]*width + idx[r]
			}
		}
	}
	return out
}

// combinationPage builds the page a projection is evaluated over once per
// combination: row j holds, at each input column, the entry of that input's
// dictionary that combination j (composeIndices) addresses.
func (pp *PageProcessor) combinationPage(ncols int, inputs []int, srcs []*block.DictionaryBlock, combos int) *block.Page {
	cols := pp.placeholderCols(ncols, combos)
	stride := combos
	for k, c := range inputs {
		dict := srcs[k].Dict
		if len(inputs) == 1 {
			cols[c] = dict
			break
		}
		width := dict.Len()
		stride /= width
		idx := make([]int32, combos)
		for j := range idx {
			idx[j] = int32(j / stride % width)
		}
		cols[c] = block.NewDictionaryBlock(dict, idx)
	}
	return block.NewPage(cols...)
}

// allInputsRLE reports whether every referenced input column is a single
// RLE run.
func allInputsRLE(p *block.Page, inputs []int) bool {
	for _, c := range inputs {
		if _, ok := p.Col(c).(*block.RLEBlock); !ok {
			return false
		}
	}
	return true
}

// rleRunPage builds a 1-row page holding each referenced RLE input's run
// value, for evaluating an all-RLE projection once.
func (pp *PageProcessor) rleRunPage(p *block.Page, inputs []int) *block.Page {
	cols := pp.placeholderCols(p.ColCount(), 1)
	for _, c := range inputs {
		cols[c] = p.Col(c).(*block.RLEBlock).Val
	}
	return block.NewPage(cols...)
}

// placeholderCols returns ncols columns of n rows for a page of which a
// projection reads only the positions the caller then fills in: all columns
// of a page must have equal length, so the others repeat a cached RLE null.
func (pp *PageProcessor) placeholderCols(ncols, n int) []block.Block {
	cols := make([]block.Block, ncols)
	filler := pp.filler(n)
	for i := range cols {
		cols[i] = filler
	}
	return cols
}

// filler returns the processor's cached placeholder column, rebuilt only
// when the requested length changes.
func (pp *PageProcessor) filler(n int) *block.RLEBlock {
	if pp.rleFiller == nil || pp.rleFiller.Count != n {
		if pp.rleFillerVal == nil {
			pp.rleFillerVal = block.BuildBlock(types.Boolean, []types.Value{types.NullValue(types.Boolean)})
		}
		pp.rleFiller = block.NewRLEBlockFromBlock(pp.rleFillerVal, n)
	}
	return pp.rleFiller
}
