package expr

import (
	"slices"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/dynfilter"
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
	*Program

	// dyn, when set, holds the dynamic join filters run ahead of the filter
	// (SetDynamicFilters).
	dyn *dynFilters

	// borrow: the output page is read before the next Process call and not
	// after, so its arrays can be leased from scratch (BorrowOutput).
	borrow bool
	// keepSel: the consumer reads a page through the filter's selection
	// (LendSelection).
	keepSel bool

	// scratch lends every vector a page needs: the kernels' temporaries, the
	// selection chain's outputs, CSE slot outputs and, under BorrowOutput, the
	// output vectors. Process rewinds it; the driver that runs the processor
	// releases it when it finishes (Scratch).
	scratch block.Arena
	// vin is the page's evaluation context; its memo slots keep the selection
	// kernels' dictionary verdicts from page to page.
	vin vecInput
	// maskedOut holds a borrowed page's masked columns (projectMasked).
	maskedOut []block.MaskedBlock

	// constVal caches the 1-row result of each constant projection, made on
	// the first.
	constVal []block.Block

	// Per-dictionary projection cache: maps (projection, input dictionary
	// blocks) to the projected dictionary, emulating Presto's retained-array
	// optimization for shared dictionaries; made on the first entry.
	// Bounded: when full, the oldest entry is evicted (cheap FIFO
	// approximation of LRU — long-lived scans cycle through few distinct
	// dictionaries, so recency ~= insertion).
	dictCache map[dictCacheKey]block.Block
	dictOrder []dictCacheKey

	// rleFiller caches the placeholder column of the pages the dictionary/RLE
	// fast paths evaluate over, instead of allocating one per call.
	rleFillerVal block.Block
	rleFiller    *block.RLEBlock

	// Stats observed by the lazy-loading and compressed-execution benches.
	Stats ProcessorStats
}

// Program is a compiled filter and projection list. It holds no mutable
// state: a kernel leases its temporaries from the evaluating processor's
// arena, keeps its dictionary verdicts (and a parameterised IN list's set) in
// the processor's memo slots and reads a Param from the processor's
// parameters, so one program can serve processors on any number of
// goroutines, of any number of tasks, each with its own literals.
type Program struct {
	filterExpr  Expr  // nil means no filter
	filter      selFn // selection kernels, or the interpreter over filterExpr
	filterCols  []int // column indices referenced by the filter
	memos       int   // memo slots the filter's and the projections' kernels use (selCompiler)
	projections []*Evaluator
	identCol    []int       // input column a projection passes through, or -1
	identFirst  []int       // first projection passing the same input column through (itself if none earlier)
	projInputs  [][]int     // referenced column indices per projection
	projConst   []bool      // deterministic zero-input projections (RLE output)
	projEncoded []bool      // deterministic projections of 1..maxDictInputs columns: one result per combination of their entries
	masks       []*progMask // per projection, its mask (Mask), or nil

	// Vectorized projection state: one projector per covered projection
	// (nil entries run on the interpreter), the CSE slots in evaluation
	// order, which slots covered projections actually reference, and the
	// shared-subtree evaluations a page saves.
	projVec        []*vecProjector
	cseSlots       []*cseSlot
	slotNeeded     []bool
	cseHitsPerPage int64
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

// poisonBorrowed, when not empty, makes every arena poison the vectors it
// takes back (block.PoisonScratch): a borrowing processor's output vectors at
// the start of every Process, a lending join's and a lending aggregation's at
// every output page, a lending scan's lake columns at its next page, and every
// scratch vector when its driver finishes, so that a consumer that kept part
// of a borrowed page past its time, or anyone who kept a vector past its
// lease, reads values no input holds. Nothing but tests turns it on: this
// package's through export_test.go, and scripts/check.sh by linking it on
// (-ldflags -X) under the differential walls of the other packages.
var poisonBorrowed string

func init() {
	if poisonBorrowed != "" {
		block.PoisonScratch(true)
	}
}

// NewPageProcessor compiles filter (may be nil) and projections. The pages
// it returns are owned by the caller and immutable, unless BorrowOutput says
// otherwise.
func NewPageProcessor(filter Expr, projections []Expr) *PageProcessor {
	return CompileProgram(filter, projections, nil).NewProcessor(nil)
}

// Mask is a masked aggregate's argument projection (plan.Aggregate's Mask):
// the projection e is evaluated only at the rows where Pred is TRUE, and its
// column is a block.MaskedBlock of the values there, every other row reading
// Else, a literal or a parameter (nil: NULL) — CASE WHEN Pred THEN e ELSE
// Else END, with Pred evaluated at every row and e only where it holds, as
// CASE evaluates them.
type Mask struct {
	Pred Expr
	Else Expr
}

// progMask is a Mask compiled: the selection of Pred's TRUE positions, and
// the ELSE.
type progMask struct {
	sel selFn
	els Expr
}

// CompileProgram compiles filter and projections onto the selection and
// projection kernels. masks, when not nil, holds one entry per projection:
// its Mask, or nil.
func CompileProgram(filter Expr, projections []Expr, masks []*Mask) *Program {
	var c selCompiler
	prog := newProgram(filter, projections, masks, c.evaluator, c.compileMask)
	if filter != nil {
		prog.filter = c.compileWhere(filter)
	}
	for i, e := range projections {
		prog.projConst[i] = len(prog.projInputs[i]) == 0 && IsDeterministic(e)
	}
	prog.compileVectorized(&c, projections)
	prog.memos = c.memos
	return prog
}

// NewInterpretedPageProcessor builds a processor that uses only the
// interpreter — the baseline side of the codegen ablation.
func NewInterpretedPageProcessor(filter Expr, projections []Expr) *PageProcessor {
	return InterpretedProgram(filter, projections, nil).NewProcessor(nil)
}

// InterpretedProgram is CompileProgram on the interpreter only.
func InterpretedProgram(filter Expr, projections []Expr, masks []*Mask) *Program {
	prog := newProgram(filter, projections, masks, InterpretOnly, selStrict)
	prog.interpretFilter()
	return prog
}

// NewProcessor gives prog the state one processor keeps. params are what its
// Params read, each of the Param's type and not NULL; the processor reads them
// and never writes them.
func (prog *Program) NewProcessor(params []types.Value) *PageProcessor {
	return &PageProcessor{
		Program: prog,
		vin:     vecInput{memo: make([]dictSel, prog.memos), params: params},
	}
}

func newProgram(filter Expr, projections []Expr, masks []*Mask, evaluator func(Expr) *Evaluator, mask func(Expr) selFn) *Program {
	prog := &Program{
		filterExpr:  filter,
		projEncoded: make([]bool, 0, len(projections)),
		projConst:   make([]bool, len(projections)),
		projVec:     make([]*vecProjector, len(projections)),
		masks:       make([]*progMask, len(projections)),
	}
	if filter != nil {
		prog.filterCols = Columns(filter)
	}
	for i, m := range masks {
		if m != nil {
			prog.masks[i] = &progMask{sel: mask(m.Pred), els: m.Else}
		}
	}
	firstIdent := map[int]int{}
	for i, e := range projections {
		prog.projections = append(prog.projections, evaluator(e))
		inputs := Columns(e)
		prog.projInputs = append(prog.projInputs, inputs)
		// One result per combination of entries is the result of every row
		// only if equal inputs give equal outputs.
		prog.projEncoded = append(prog.projEncoded, len(inputs) >= 1 && len(inputs) <= maxDictInputs && IsDeterministic(e))
		ident, first := -1, i
		if c, ok := e.(*ColumnRef); ok {
			ident = c.Index
			// A masked column is its own: its rows are its mask's.
			if prog.masks[i] == nil {
				if j, seen := firstIdent[ident]; seen {
					first = j
				} else {
					firstIdent[ident] = i
				}
			}
		}
		prog.identCol = append(prog.identCol, ident)
		prog.identFirst = append(prog.identFirst, first)
	}
	return prog
}

// BorrowOutput tells the processor, once and before its first page, that
// whoever receives an output page is done with it, and with every array
// under it, before the next Process call. Filtered pass-through columns and
// kernel-evaluated projections are from then on written into vectors leased
// from the processor's arena, which the next Process takes back; the index
// vector of a dictionary output (a filtered pass-through dictionary column, a
// projection evaluated by combination) is lent under the same rule, its
// dictionary never. Everything else — an unfiltered pass-through column, RLE
// and array outputs, interpreted projections — stays an owned, immutable
// block as without the call.
func (pp *PageProcessor) BorrowOutput() { pp.borrow = true }

// LendSelection tells the processor, once and after BorrowOutput, that its
// consumer is a hash aggregation, which reads a page through a selection
// (DESIGN.md, "Who owns a page"): a filtered pass-through column then goes out
// as its source block under the filter's selection (block.SelectedBlock), and
// a column whose dictionary the processor keeps or computes keeps its source
// indices, instead of being gathered.
func (pp *PageProcessor) LendSelection() { pp.keepSel = true }

// Scratch is the arena the processor leases every vector of a page from. The
// driver that runs the processor releases it when it finishes; a processor
// nobody releases leaves its vectors to the collector.
func (pp *PageProcessor) Scratch() *block.Arena { return &pp.scratch }

// BorrowsOutput reports whether BorrowOutput has been called.
func (pp *PageProcessor) BorrowsOutput() bool { return pp.borrow }

// compileVectorized plans CSE across the projection list and picks each
// covered projection's projector: its evaluator's own when CSE left it
// alone, one compiled by c over the rewritten expression when it reads a
// slot. A constant projection has its own path; an identity one runs its
// projector only to gather a borrowed flat column.
func (prog *Program) compileVectorized(c *selCompiler, projections []Expr) {
	// A masked projection runs over its mask's rows, which a CSE slot (over
	// the page's) is not aligned with: it takes no part in the planning.
	shared := projections
	if slices.ContainsFunc(prog.masks, func(m *progMask) bool { return m != nil }) {
		shared = slices.Clone(projections)
		for i, m := range prog.masks {
			if m != nil {
				shared[i] = &Const{Val: types.NullValue(projections[i].Type())}
			}
		}
	}
	rewritten, slots := planCSE(c, shared)
	for i, e := range rewritten {
		switch {
		case prog.masks[i] != nil:
			prog.projVec[i] = prog.projections[i].vec
		case prog.projConst[i]:
		case countSlotRefs(e) == 0:
			prog.projVec[i] = prog.projections[i].vec
		default:
			prog.projVec[i] = c.compileVecProj(e)
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
		if prog.projVec[i] != nil {
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
		if prog.projVec[i] != nil {
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
	prog.cseSlots = slots
	prog.slotNeeded = needed
	prog.cseHitsPerPage = int64(refs - evals)
}

// interpretFilter runs the program's filter on the interpreter.
func (prog *Program) interpretFilter() {
	if prog.filterExpr != nil {
		prog.filter = selInterp(prog.filterExpr, false)
	}
}

// DynFilter is a dynamic join filter that has arrived at a scan: it drops the
// rows whose column Col, of type T, holds no key Summary may hold, and tells
// Count, page by page, how many rows it tested and how many passed. Summary is
// not disabled.
type DynFilter struct {
	Col     int
	T       types.Type
	Summary *dynfilter.Summary
	Count   func(tested, passed int)
}

// dynFilters is a processor's dynamic join filters: arrivals counts the
// summaries that have arrived so far, arrived lists the filters among them,
// and leaves are those filters compiled when the count was seen.
type dynFilters struct {
	arrivals func() int64
	arrived  func() []DynFilter
	seen     int64
	filters  []DynFilter
	leaves   []selFn
}

// SetDynamicFilters puts dynamic join filters ahead of the processor's own
// filter. Before every page the processor reads arrivals, and when the count
// has moved it compiles what arrived returns as leaves of the predicate
// compiler, each with fresh memo slots past the program's: a summary that
// arrives between two pages of a split filters the second. The rows they drop
// are neither filtered nor gathered again — a page is narrowed to one
// selection vector and gathered once, into lent vectors under BorrowOutput.
// Call before the first page, on the processor that reads the subscribed
// scan's pages.
func (pp *PageProcessor) SetDynamicFilters(arrivals func() int64, arrived func() []DynFilter) {
	pp.dyn = &dynFilters{arrivals: arrivals, arrived: arrived, seen: -1}
}

// dynLeaves returns the arrived dynamic filters' leaves, compiled again when
// the arrival count has moved since they were.
func (pp *PageProcessor) dynLeaves() []selFn {
	d := pp.dyn
	if n := d.arrivals(); n != d.seen {
		c := selCompiler{memos: pp.memos}
		d.seen, d.filters, d.leaves = n, d.arrived(), d.leaves[:0]
		for _, f := range d.filters {
			d.leaves = append(d.leaves, c.compileDynFilter(f))
		}
		// A verdict kept under an earlier summary is not the new one's.
		pp.vin.memo = append(pp.vin.memo[:pp.memos], make([]dictSel, c.memos-pp.memos)...)
	}
	return d.leaves
}

// Process filters p and computes the projections, returning the output page
// (nil when no rows pass the filter).
func (pp *PageProcessor) Process(p *block.Page) (*block.Page, error) {
	pp.Stats.PagesIn++
	pp.Stats.RowsIn += int64(p.RowCount())
	pp.start(p)
	n := p.RowCount()
	var selected []int
	if pp.filter != nil || pp.dyn != nil {
		selected = pp.selectRows()
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

	pp.vin.sel, pp.vin.n = selected, outRows
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
		var col block.Block
		var err error
		if pp.masks[i] != nil {
			col, err = pp.projectMasked(i, p, selected, outRows)
		} else {
			col, err = pp.project(i, p, selected, outRows, &gathered)
		}
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

// start begins page p: the arena takes back what the previous page leased —
// the vectors of a borrowed output page with it, whose window ends here — and
// the evaluation context is set to every row of p.
func (pp *PageProcessor) start(p *block.Page) {
	pp.scratch.Rewind()
	pp.begin(p, &pp.scratch)
}

// begin sets the evaluation context to every row of p, leasing from a.
func (pp *PageProcessor) begin(p *block.Page, a *block.Arena) {
	pp.vin = vecInput{p: p, n: p.RowCount(), shared: pp.vin.shared[:0], scratch: a, memo: pp.vin.memo, params: pp.vin.params}
}

// Select is the processor's filter half, for a caller that gathers the rows
// it keeps itself (a join's residual): it returns the rows of p that pass the
// dynamic filters and the predicate, as Process selects them. Its vectors are
// leased from a — the caller's arena, which its driver releases — and are the
// caller's until it rewinds a; the result may be the shared identity vector,
// which nobody writes.
func (pp *PageProcessor) Select(p *block.Page, a *block.Arena) []int {
	pp.begin(p, a)
	return pp.selectRows()
}

// identity is the process-wide identity row vector 0, 1, 2, …: every
// selection chain starts from a prefix of it. It is shared by all processors
// on all goroutines, so it is read-only — a selection kernel reads rows and
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

// selectRows returns the rows of the page being processed that pass the
// dynamic filters and then the filter. The result is leased from the arena
// (or is the shared identity vector) and is valid until the next page.
func (pp *PageProcessor) selectRows() []int {
	in := &pp.vin
	n := in.p.RowCount()
	// Each selection reads rows and appends to a vector leased for as many
	// rows, so a kernel's append never grows it.
	rows := identityRows(n)
	run := func(sel selFn, rows []int) []int {
		// Neither fails: a failing leaf of a WHERE clause counts as NULL.
		out, _ := sel(in, rows, leaseRows(in, len(rows)))
		return out
	}
	if pp.dyn != nil {
		for i, sel := range pp.dynLeaves() {
			if len(rows) == 0 {
				break
			}
			out := run(sel, rows)
			pp.dyn.filters[i].Count(len(rows), len(out))
			rows = out
		}
	}
	if pp.filter == nil || len(rows) == 0 {
		return rows
	}
	// RLE fast path: if every column the filter references is RLE the result
	// is all-or-nothing; evaluate the first row only.
	if pp.allFilterInputsRLE(in.p) {
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
func (prog *Program) allFilterInputsRLE(p *block.Page) bool {
	if len(prog.filterCols) == 0 {
		return false
	}
	for _, c := range prog.filterCols {
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
		if pp.keepSel {
			return selectedCol(col, selected), nil
		}
		if d, ok := col.(*block.DictionaryBlock); ok {
			return block.NewDictionaryBlock(d.Dict, pp.composeIndices([]*block.DictionaryBlock{d}, selected)), nil
		}
		if vp := pp.projVec[i]; pp.borrow && vp != nil && isFlat(unwrapLazy(col)) {
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
		out, err := pp.projections[i].evalPage(pp.rleRunPage(p, inputs), &pp.scratch, pp.vin.memo, pp.vin.params)
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
	return pp.projections[i].evalPage(in, &pp.scratch, pp.vin.memo, pp.vin.params)
}

// selectedCol is col at the source rows sel, read in place: a run stays a
// run, anything else is viewed through sel — a lazy column loaded first, as
// a gather would load it, so that a reader of the view's cells does not go
// through the lazy block for each.
func selectedCol(col block.Block, sel []int) block.Block {
	col = unwrapLazy(col)
	if r, ok := col.(*block.RLEBlock); ok {
		return block.NewRLEBlockFromBlock(r.Val, len(sel))
	}
	return &block.SelectedBlock{Src: col, Sel: sel}
}

// projectMasked computes masked projection i (Mask): the mask's TRUE
// positions are selected among the page's output positions, the projection is
// evaluated at their rows only — a pass-through column read in place, a
// kernel-covered one over them as its selection, anything else on the
// interpreter over them gathered — and the column is a block.MaskedBlock of
// those values.
func (pp *PageProcessor) projectMasked(i int, p *block.Page, selected []int, outRows int) (block.Block, error) {
	m := pp.masks[i]
	in := &pp.vin
	pos, err := m.sel(in, identityRows(outRows), leaseRows(in, outRows))
	if err != nil {
		return nil, err
	}
	rows := pos
	if selected != nil {
		rows = block.Lease[int](&pp.scratch, len(pos))
		for k, j := range pos {
			rows[k] = selected[j]
		}
	}
	if !pp.borrow {
		// The page is the caller's to keep: nothing of it may be leased.
		pos, rows = slices.Clone(pos), slices.Clone(rows)
	}
	var vals block.Block
	switch {
	case pp.identCol[i] >= 0:
		vals = selectedCol(p.Col(pp.identCol[i]), rows)
	case pp.projVec[i] != nil:
		// The page's context, narrowed to the mask's rows for the call; a
		// masked projection reads no CSE slot (compileVectorized).
		sel, n := in.sel, in.n
		in.sel, in.n = rows, len(rows)
		vals, err = pp.projVec[i].eval(in, pp.borrow)
		in.sel, in.n = sel, n
		pp.Stats.VecProjEvals++
	default:
		pp.Stats.FullEvals++
		vals, err = pp.projections[i].evalPage(p.FilterPositions(rows), &pp.scratch, in.memo, in.params)
	}
	if err != nil {
		return nil, err
	}
	pp.Stats.CellsProcessed += int64(len(rows) * len(pp.projInputs[i]))
	els := types.NullValue(vals.Type())
	switch e := m.els.(type) {
	case *Const:
		els = e.Val
	case *Param:
		els = in.params[e.Index]
	}
	if !pp.borrow {
		return &block.MaskedBlock{Rows: pos, Vals: vals, N: outRows, Else: els}, nil
	}
	// A borrowed page's blocks are read before the next Process too: the
	// header is the processor's, rewritten from page to page.
	if pp.maskedOut == nil {
		pp.maskedOut = make([]block.MaskedBlock, len(pp.projections))
	}
	pp.maskedOut[i] = block.MaskedBlock{Rows: pos, Vals: vals, N: outRows, Else: els}
	return &pp.maskedOut[i], nil
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

// constOne evaluates constant projection i once, caching the 1-row result.
func (pp *PageProcessor) constOne(i int, p *block.Page) (block.Block, error) {
	if pp.constVal == nil {
		pp.constVal = make([]block.Block, len(pp.projections))
	}
	if pp.constVal[i] != nil {
		return pp.constVal[i], nil
	}
	ncols := p.ColCount()
	if ncols == 0 {
		ncols = 1 // the projection reads no columns; give the page a row
	}
	one, err := pp.projections[i].evalPage(block.NewPage(pp.placeholderCols(ncols, 1)...), &pp.scratch, pp.vin.memo, pp.vin.params)
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
		out, err := pp.projections[i].evalPage(pp.combinationPage(p.ColCount(), inputs, srcs[:len(inputs)], combos), &pp.scratch, pp.vin.memo, pp.vin.params)
		if err != nil {
			return nil
		}
		pp.Stats.DictEvals++
		pp.Stats.CellsProcessed += int64(combos * len(inputs))
		if pp.dictCache == nil {
			pp.dictCache = make(map[dictCacheKey]block.Block)
		}
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
	if pp.keepSel && len(inputs) == 1 && selected != nil {
		return &block.SelectedBlock{Src: block.NewDictionaryBlock(projDict, srcs[0].Indices), Sel: selected}
	}
	return block.NewDictionaryBlock(projDict, pp.composeIndices(srcs[:len(inputs)], selected))
}

// composeIndices returns, for every surviving row, the index of its
// combination of dictionary entries: the first input's index varies slowest.
// One input under no selection is its own index vector; anything else is
// written into a vector leased from the arena when the output is borrowed.
func (pp *PageProcessor) composeIndices(srcs []*block.DictionaryBlock, selected []int) []int32 {
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
		out = block.Lease[int32](&pp.scratch, n)
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
