package expr

import (
	"cmp"
	"slices"

	"repro/internal/block"
	"repro/internal/types"
)

// Columnar filter kernels (§V-E): instead of evaluating a predicate
// row-by-row, a compiled filter runs as a tree of selection kernels that
// scan the typed value slices of flat blocks directly and produce the
// selection vector in one pass. Conjunctions chain kernels so each stage only
// inspects rows that survived the previous one; RLE inputs are decided once
// per run and dictionary inputs once per distinct entry.

// selFn evaluates a predicate over the rows of page in.p listed in rows,
// appending to out the rows where the predicate is definitely true (or, when
// compiled with neg=true, definitely false). Rows where the predicate is NULL
// are never appended in either polarity, which is exactly SQL filter
// semantics and makes NOT compilable by polarity flipping (De Morgan) instead
// of three-valued negation. out has room for every row of rows, so append
// never grows it. A kernel keeps no state of its own: its temporaries are
// leased from in.scratch and its dictionary verdicts kept in in.memo.
type selFn func(in *vecInput, rows, out []int) []int

func selNone(_ *vecInput, _ []int, out []int) []int   { return out }
func selAll(_ *vecInput, rows []int, out []int) []int { return append(out, rows...) }

// selCompiler compiles a predicate into selection kernels, and numbers the
// kernels that keep a dictionary memo (selDict): the evaluating processor
// gives each its slot of vecInput.memo, so that the compiled tree holds no
// mutable state and one tree can serve processors on several goroutines.
type selCompiler struct {
	memos int
}

// memo hands out the next memo slot.
func (c *selCompiler) memo() int {
	c.memos++
	return c.memos - 1
}

// compileSel builds a selection kernel for e. neg=true asks for the rows
// where e is definitely false. It never fails: a sub-expression without a
// specialized selection kernel runs as its vectorized boolean kernel, and one
// the kernels do not cover at all runs on the interpreter; both are evaluated
// only over the current selection, so composition with specialized siblings
// stays cheap.
func (c *selCompiler) compileSel(e Expr, neg bool) selFn {
	if s, ok := c.compileSelKernel(e, neg); ok {
		return s
	}
	if k, ok := vecBool(e); ok {
		return selVecBool(e, k, neg)
	}
	return selInterp(e, neg)
}

// compileSelKernel builds the specialized selection kernel for e, if its
// shape has one; connectives compose whatever compileSel gives their operands.
func (c *selCompiler) compileSelKernel(e Expr, neg bool) (selFn, bool) {
	switch x := e.(type) {
	case *Const:
		v := x.Val
		if !v.Null && v.B != neg {
			return selAll, true
		}
		return selNone, true
	case *Not:
		return c.compileSel(x.E, !neg), true
	case *And:
		l, r := c.compileSel(x.L, neg), c.compileSel(x.R, neg)
		if !neg {
			// TRUE(L AND R) = TRUE(L) ∩ TRUE(R): chain, so R only
			// inspects rows that survived L.
			return selIntersectChain(l, r), true
		}
		// FALSE(L AND R) = FALSE(L) ∪ FALSE(R).
		return selUnion(l, r), true
	case *Or:
		l, r := c.compileSel(x.L, neg), c.compileSel(x.R, neg)
		if !neg {
			return selUnion(l, r), true
		}
		return selIntersectChain(l, r), true
	case *Compare:
		return c.compileSelCompare(x, neg)
	case *Between:
		return c.compileSelBetween(x, neg)
	case *In:
		return c.compileSelIn(x, neg)
	case *Like:
		return c.compileSelLike(x, neg)
	case *IsNull:
		if col, ok := x.E.(*ColumnRef); ok {
			// IS [NOT] NULL never yields NULL itself.
			return selIsNull(col.Index, x.Negate != neg), true
		}
	case *ColumnRef:
		if x.T == types.Boolean {
			return selBoolCol(x.Index, neg), true
		}
	}
	return nil, false
}

// selVecBool drives a vectorized boolean kernel over the current selection
// (col-vs-col compares, arithmetic inside a predicate, CASE conditions). The
// kernel reads the selection as in's: it is set for the call and put back.
func selVecBool(e Expr, k boolKernel, neg bool) selFn {
	interp := selInterp(e, neg)
	return func(in *vecInput, rows, out []int) []int {
		n := len(rows)
		sel, outRows := in.sel, in.n
		in.sel, in.n = rows, n
		if n == in.p.RowCount() {
			in.sel = nil // rows is ascending and duplicate-free, so this is every row
		}
		vals, nulls := block.Lease[bool](in.scratch, n), block.Lease[bool](in.scratch, n)
		_, err := k(in, nil, vals, nulls)
		in.sel, in.n = sel, outRows
		if err != nil {
			// A kernel stops at the first failing row, but in a filter a
			// failing row just does not pass: decide the batch row by row.
			return interp(in, rows, out)
		}
		for i, r := range rows {
			if !nulls[i] && vals[i] != neg {
				out = append(out, r)
			}
		}
		return out
	}
}

// selInterp evaluates e on the interpreter for each row of the current
// selection, as a predicate: a leaf whose evaluation fails is NULL, and a
// NULL does not pass in either polarity.
func selInterp(e Expr, neg bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		var it Interpreter
		row := pageRow{p: in.p}
		for _, r := range rows {
			row.row = r
			if v := it.predicate(e, &row); !v.Null && v.B != neg {
				out = append(out, r)
			}
		}
		return out
	}
}

func selIntersectChain(l, r selFn) selFn {
	return func(in *vecInput, rows, out []int) []int {
		return r(in, l(in, rows, block.Lease[int](in.scratch, len(rows))[:0]), out)
	}
}

func selUnion(l, r selFn) selFn {
	return func(in *vecInput, rows, out []int) []int {
		ls := l(in, rows, block.Lease[int](in.scratch, len(rows))[:0])
		rs := r(in, rows, block.Lease[int](in.scratch, len(rows))[:0])
		return mergeUnion(ls, rs, out)
	}
}

// mergeUnion merges two ascending row lists, deduplicating.
func mergeUnion(a, b, out []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// negateCmp returns the complement operator: for non-null operands,
// NOT(a op b) == a negateCmp(op) b.
func negateCmp(op CmpOp) CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	default:
		return CmpLt
	}
}

// swapCmp mirrors the operator so (const op col) becomes (col swapCmp(op) const).
func swapCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

func cmpOrd[T cmp.Ordered](op CmpOp, a, b T) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	default:
		return a >= b
	}
}

// selCmpConst is the hot flat-block kernel: op is hoisted out of the loop so
// each variant is a branch-free-per-row monomorphic scan.
func selCmpConst[T cmp.Ordered](op CmpOp, vals []T, nulls []bool, c T, in, out []int) []int {
	if nulls == nil {
		switch op {
		case CmpEq:
			for _, r := range in {
				if vals[r] == c {
					out = append(out, r)
				}
			}
		case CmpNe:
			for _, r := range in {
				if vals[r] != c {
					out = append(out, r)
				}
			}
		case CmpLt:
			for _, r := range in {
				if vals[r] < c {
					out = append(out, r)
				}
			}
		case CmpLe:
			for _, r := range in {
				if vals[r] <= c {
					out = append(out, r)
				}
			}
		case CmpGt:
			for _, r := range in {
				if vals[r] > c {
					out = append(out, r)
				}
			}
		default:
			for _, r := range in {
				if vals[r] >= c {
					out = append(out, r)
				}
			}
		}
		return out
	}
	switch op {
	case CmpEq:
		for _, r := range in {
			if !nulls[r] && vals[r] == c {
				out = append(out, r)
			}
		}
	case CmpNe:
		for _, r := range in {
			if !nulls[r] && vals[r] != c {
				out = append(out, r)
			}
		}
	case CmpLt:
		for _, r := range in {
			if !nulls[r] && vals[r] < c {
				out = append(out, r)
			}
		}
	case CmpLe:
		for _, r := range in {
			if !nulls[r] && vals[r] <= c {
				out = append(out, r)
			}
		}
	case CmpGt:
		for _, r := range in {
			if !nulls[r] && vals[r] > c {
				out = append(out, r)
			}
		}
	default:
		for _, r := range in {
			if !nulls[r] && vals[r] >= c {
				out = append(out, r)
			}
		}
	}
	return out
}

// unwrapLazy materializes lazy columns so the kernels see the real encoding.
func unwrapLazy(b block.Block) block.Block {
	if lz, ok := b.(*block.LazyBlock); ok {
		return lz.Load()
	}
	return b
}

func (c *selCompiler) compileSelCompare(x *Compare, neg bool) (selFn, bool) {
	op := x.Op
	if neg {
		op = negateCmp(op)
	}
	var col *ColumnRef
	var con *Const
	if cr, ok := x.L.(*ColumnRef); ok {
		if k, ok2 := x.R.(*Const); ok2 {
			col, con = cr, k
		}
	}
	if col == nil {
		if k, ok := x.L.(*Const); ok {
			if cr, ok2 := x.R.(*ColumnRef); ok2 {
				col, con = cr, k
				op = swapCmp(op)
			}
		}
	}
	if col == nil {
		return nil, false
	}
	if con.Val.Null {
		// Comparison with NULL is NULL for every row: empty in both polarities.
		return selNone, true
	}
	switch types.CommonType(col.T, con.Val.T) {
	case types.Bigint, types.Date:
		if col.T != types.Bigint && col.T != types.Date {
			return nil, false
		}
		return selLongCmp(c.memo(), col.Index, op, con.Val.I), true
	case types.Double:
		var f float64
		switch con.Val.T {
		case types.Double:
			f = con.Val.F
		case types.Bigint, types.Date:
			f = float64(con.Val.I)
		default:
			return nil, false
		}
		switch col.T {
		case types.Double, types.Bigint, types.Date:
			return selDoubleCmp(c.memo(), col.Index, op, f), true
		}
		return nil, false
	case types.Varchar:
		if col.T != types.Varchar || con.Val.T != types.Varchar {
			return nil, false
		}
		return selStrCmp(c.memo(), col.Index, op, con.Val.S), true
	case types.Boolean:
		if col.T != types.Boolean || con.Val.T != types.Boolean || (op != CmpEq && op != CmpNe) {
			return nil, false
		}
		return selBoolCmp(col.Index, op == CmpEq, con.Val.B), true
	}
	return nil, false
}

// dictSel is the dictionary case of a selection kernel over one column:
// entries are tested once each and the verdicts kept while pages share the
// dictionary (paper §V-E). It is a processor's, in the memo slot of the kernel
// it serves (vecInput.memo), and outlives the page.
type dictSel struct {
	dict    block.Block // the dictionary verdict holds the verdicts of
	verdict []bool
}

// selDict appends the rows of rows whose dictionary entry passes test, which
// gives the verdict on a non-null entry; s is the calling kernel's memo. It
// declines (false) when b is not a dictionary block, and when its dictionary
// is new and has more entries than there are rows to select from: testing
// those rows then costs less than testing the entries (the paper's guard), and
// the kernel's row-level case does.
func selDict(s *dictSel, b block.Block, rows, out []int, test func(d block.Block, k int) bool) ([]int, bool) {
	col, ok := b.(*block.DictionaryBlock)
	if !ok {
		return out, false
	}
	if d := col.Dict; d != s.dict {
		if d.Len() > len(rows) {
			return out, false
		}
		s.verdict = slices.Grow(s.verdict[:0], d.Len())[:d.Len()]
		for k := range s.verdict {
			s.verdict[k] = !d.IsNull(k) && test(d, k)
		}
		s.dict = d
	}
	verdict, indices := s.verdict, col.Indices
	for _, r := range rows {
		if verdict[indices[r]] {
			out = append(out, r)
		}
	}
	return out, true
}

func selLongCmp(memo, idx int, op CmpOp, c int64) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return cmpOrd(op, d.Long(k), c) }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.LongBlock:
			return selCmpConst(op, col.Vals, col.Nulls, c, rows, out)
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && cmpOrd(op, col.Val.Long(0), c) {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && cmpOrd(op, b.Long(r), c) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func selDoubleCmp(memo, idx int, op CmpOp, c float64) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return cmpOrd(op, d.Double(k), c) }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.DoubleBlock:
			return selCmpConst(op, col.Vals, col.Nulls, c, rows, out)
		case *block.LongBlock:
			// Bigint/Date column widened to double by the comparison.
			nulls := col.Nulls
			for _, r := range rows {
				if (nulls == nil || !nulls[r]) && cmpOrd(op, float64(col.Vals[r]), c) {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && cmpOrd(op, col.Val.Double(0), c) {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && cmpOrd(op, b.Double(r), c) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func selStrCmp(memo, idx int, op CmpOp, c string) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return cmpOrd(op, d.Str(k), c) }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.VarcharBlock:
			return selCmpConst(op, col.Vals, col.Nulls, c, rows, out)
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && cmpOrd(op, col.Val.Str(0), c) {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && cmpOrd(op, b.Str(r), c) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

// selBoolCmp selects rows where (val == c) when eq, else (val != c).
func selBoolCmp(idx int, eq, c bool) selFn {
	// val == c  ⇔ val == c; val != c ⇔ val == !c — both are an equality test.
	want := c
	if !eq {
		want = !c
	}
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		switch col := b.(type) {
		case *block.BoolBlock:
			nulls := col.Nulls
			for _, r := range rows {
				if (nulls == nil || !nulls[r]) && col.Vals[r] == want {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && col.Val.Bool(0) == want {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && b.Bool(r) == want {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

// selBoolCol selects rows where a boolean column is definitely true
// (neg=false) or definitely false (neg=true).
func selBoolCol(idx int, neg bool) selFn {
	return selBoolCmp(idx, true, !neg)
}

// selIsNull selects rows where IsNull(col) != flip.
func selIsNull(idx int, flip bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if col, ok := b.(*block.RLEBlock); ok {
			if col.Val.IsNull(0) != flip {
				return append(out, rows...)
			}
			return out
		}
		for _, r := range rows {
			if b.IsNull(r) != flip {
				out = append(out, r)
			}
		}
		return out
	}
}

func (c *selCompiler) compileSelBetween(x *Between, neg bool) (selFn, bool) {
	col, ok := x.E.(*ColumnRef)
	if !ok {
		return nil, false
	}
	lo, ok1 := x.Lo.(*Const)
	hi, ok2 := x.Hi.(*Const)
	if !ok1 || !ok2 {
		return nil, false
	}
	if lo.Val.Null || hi.Val.Null {
		// NULL bound makes every non-degenerate row NULL. Rows where the
		// tested value is NULL are NULL too, so both polarities are empty.
		return selNone, true
	}
	flip := x.Negate != neg
	longT := func(t types.Type) bool { return t == types.Bigint || t == types.Date }
	switch types.CommonType(col.T, types.CommonType(lo.Val.T, hi.Val.T)) {
	case types.Bigint, types.Date:
		if !longT(col.T) || !longT(lo.Val.T) || !longT(hi.Val.T) {
			return nil, false
		}
		return selBetweenLong(c.memo(), col.Index, lo.Val.I, hi.Val.I, flip), true
	case types.Double:
		toF := func(v types.Value) (float64, bool) {
			switch v.T {
			case types.Double:
				return v.F, true
			case types.Bigint, types.Date:
				return float64(v.I), true
			}
			return 0, false
		}
		lf, lok := toF(lo.Val)
		hf, hok := toF(hi.Val)
		if !lok || !hok || (col.T != types.Double && !longT(col.T)) {
			return nil, false
		}
		return selBetweenDouble(col.Index, lf, hf, flip), true
	}
	return nil, false
}

func selBetweenLong(memo, idx int, lo, hi int64, flip bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return (d.Long(k) >= lo && d.Long(k) <= hi) != flip }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.LongBlock:
			nulls := col.Nulls
			if nulls == nil && !flip {
				for _, r := range rows {
					v := col.Vals[r]
					if v >= lo && v <= hi {
						out = append(out, r)
					}
				}
				return out
			}
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				v := col.Vals[r]
				if (v >= lo && v <= hi) != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) {
				v := col.Val.Long(0)
				if (v >= lo && v <= hi) != flip {
					return append(out, rows...)
				}
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) {
					v := b.Long(r)
					if (v >= lo && v <= hi) != flip {
						out = append(out, r)
					}
				}
			}
			return out
		}
	}
}

func selBetweenDouble(idx int, lo, hi float64, flip bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		switch col := b.(type) {
		case *block.DoubleBlock:
			nulls := col.Nulls
			if nulls == nil && !flip {
				vals := col.Vals
				for _, r := range rows {
					v := vals[r]
					if v >= lo && v <= hi {
						out = append(out, r)
					}
				}
				return out
			}
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				v := col.Vals[r]
				if (v >= lo && v <= hi) != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.LongBlock:
			nulls := col.Nulls
			if nulls == nil && !flip {
				vals := col.Vals
				for _, r := range rows {
					v := float64(vals[r])
					if v >= lo && v <= hi {
						out = append(out, r)
					}
				}
				return out
			}
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				v := float64(col.Vals[r])
				if (v >= lo && v <= hi) != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) {
				v := col.Val.Double(0)
				if (v >= lo && v <= hi) != flip {
					return append(out, rows...)
				}
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) {
					v := b.Double(r)
					if (v >= lo && v <= hi) != flip {
						out = append(out, r)
					}
				}
			}
			return out
		}
	}
}

func (c *selCompiler) compileSelIn(x *In, neg bool) (selFn, bool) {
	col, ok := x.E.(*ColumnRef)
	if !ok {
		return nil, false
	}
	for _, le := range x.List {
		if _, ok := le.(*Const); !ok {
			return nil, false
		}
	}
	flip := x.Negate != neg
	listNull := false
	for _, le := range x.List {
		listNull = listNull || le.(*Const).Val.Null
	}
	if listNull && flip {
		// A value that matches no other element is NULL against a NULL one:
		// IN is never definitely false, and this polarity keeps no row (SQL's
		// three-valued IN, as the interpreter's). The other polarity keeps
		// the members of the rest of the list.
		return selNone, true
	}
	switch col.T {
	case types.Bigint, types.Date:
		set := make(map[int64]bool, len(x.List))
		for _, le := range x.List {
			if k := le.(*Const); !k.Val.Null {
				set[k.Val.I] = true
			}
		}
		return selInLong(c.memo(), col.Index, set, flip), true
	case types.Varchar:
		set := make(map[string]bool, len(x.List))
		for _, le := range x.List {
			if k := le.(*Const); !k.Val.Null {
				set[k.Val.S] = true
			}
		}
		return selInStr(c.memo(), col.Index, set, flip), true
	}
	return nil, false
}

func selInLong(memo, idx int, set map[int64]bool, flip bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return set[d.Long(k)] != flip }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.LongBlock:
			nulls := col.Nulls
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				if set[col.Vals[r]] != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && set[col.Val.Long(0)] != flip {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && set[b.Long(r)] != flip {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func selInStr(memo, idx int, set map[string]bool, flip bool) selFn {
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return set[d.Str(k)] != flip }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.VarcharBlock:
			nulls := col.Nulls
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				if set[col.Vals[r]] != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && set[col.Val.Str(0)] != flip {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && set[b.Str(r)] != flip {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func (c *selCompiler) compileSelLike(x *Like, neg bool) (selFn, bool) {
	pat, ok := x.Pattern.(*Const)
	if !ok || pat.Val.Null {
		return nil, false
	}
	col, ok := x.E.(*ColumnRef)
	if !ok || col.T != types.Varchar {
		return nil, false
	}
	return selLike(c.memo(), col.Index, pat.Val.S, x.Negate != neg), true
}

func selLike(memo, idx int, pattern string, flip bool) selFn {
	// The big win: the (potentially expensive) match runs once per distinct
	// entry instead of once per row.
	return func(in *vecInput, rows, out []int) []int {
		b := unwrapLazy(in.p.Col(idx))
		if res, ok := selDict(&in.memo[memo], b, rows, out, func(d block.Block, k int) bool { return likeMatch(d.Str(k), pattern) != flip }); ok {
			return res
		}
		switch col := b.(type) {
		case *block.VarcharBlock:
			nulls := col.Nulls
			for _, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				if likeMatch(col.Vals[r], pattern) != flip {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && likeMatch(col.Val.Str(0), pattern) != flip {
				return append(out, rows...)
			}
			return out
		default:
			for _, r := range rows {
				if !b.IsNull(r) && likeMatch(b.Str(r), pattern) != flip {
					out = append(out, r)
				}
			}
			return out
		}
	}
}
