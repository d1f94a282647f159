package expr

import (
	"cmp"
	"slices"

	"repro/internal/block"
	"repro/internal/types"
)

// The predicate compiler (§V-B, §V-E): every predicate — a WHERE clause, a
// CASE WHEN condition, a boolean-valued projection — compiles into a tree of
// selection kernels that scan typed value vectors and produce, in one pass,
// the positions where it is TRUE, or those where it is FALSE. Conjunctions
// chain kernels so each stage only inspects positions an earlier one left
// undecided. A column is read in place: RLE inputs are decided once per run
// and dictionary inputs once per distinct entry. Any other operand is
// evaluated at the positions by its value kernel (vecproj.go).
//
// Where the predicate sits fixes what a failing leaf (a division by zero, say)
// means. In a WHERE clause it counts as NULL, the interpreter's predicate
// rule: the row just does not pass. Everywhere else it raises its error, as
// Eval does. In both, a connective evaluates its right operand only at the
// positions its left operand did not decide, as the interpreter's lazy AND
// and OR do.

// selFn evaluates a predicate at the positions rows, ascending and
// duplicate-free, appending to out those where it is TRUE (or, compiled with
// neg=true, FALSE). NULL is appended in neither polarity, which is SQL filter
// semantics and makes NOT compilable by polarity flipping (De Morgan) instead
// of three-valued negation. Positions are a value kernel's: in.sel maps them
// to rows of in.p, and a WHERE clause, which runs with no selection, sees rows.
// out has room for every position of rows, so append never grows it. A kernel
// keeps no state of its own: its temporaries are leased from in.scratch and
// its dictionary verdicts kept in in.memo. Only a predicate compiled outside a
// WHERE clause returns an error.
type selFn func(in *vecInput, rows, out []int) ([]int, error)

func selNone(_ *vecInput, _ []int, out []int) ([]int, error)   { return out, nil }
func selAll(_ *vecInput, rows []int, out []int) ([]int, error) { return append(out, rows...), nil }

// selCompiler compiles predicates into selection kernels and expressions into
// value kernels, and numbers the kernels that keep a dictionary memo
// (selDict): the evaluating processor gives each its slot of vecInput.memo, so
// that the compiled tree holds no mutable state and one tree can serve
// processors on several goroutines.
type selCompiler struct {
	memos int
}

// memo hands out the next memo slot.
func (c *selCompiler) memo() int {
	c.memos++
	return c.memos - 1
}

// compileWhere compiles a WHERE clause. A leaf no kernel covers runs on the
// interpreter, and a batch on which some leaf's kernels fail is decided row by
// row there, where a failing leaf counts as NULL.
func (c *selCompiler) compileWhere(e Expr) selFn {
	s, _ := c.compileSel(e, false, true)
	return func(in *vecInput, rows, out []int) ([]int, error) {
		if res, err := s(in, rows, out); err == nil {
			return res, nil
		}
		return selInterp(e, false)(in, rows, out)
	}
}

// compileSel builds the selection of e's TRUE positions, or of its FALSE ones
// when neg. In a WHERE clause (where) it never fails: a leaf the kernels do not
// cover runs on the interpreter. Elsewhere it fails when some leaf has no
// kernel, and the expression that holds the predicate runs on the interpreter.
func (c *selCompiler) compileSel(e Expr, neg, where bool) (selFn, bool) {
	switch x := e.(type) {
	case *Const:
		if !x.Val.Null && x.Val.B != neg {
			return selAll, true
		}
		return selNone, true
	case *Not:
		return c.compileSel(x.E, !neg, where)
	case *And:
		return c.compileConnective(x.L, x.R, true, neg, where)
	case *Or:
		return c.compileConnective(x.L, x.R, false, neg, where)
	case *Case:
		// CASE WHEN p THEN a ELSE NOT a END is a where p is TRUE and NOT a
		// everywhere else, NULL included. (In a WHERE clause a failing p fails
		// the CASE, which the leaf case decides.)
		if cond, then, ok := boolSwitch(x); ok && !where {
			s, ok := c.compileSel(cond, false, where)
			if !ok || then != neg {
				return s, ok
			}
			return selComplement(s), true
		}
	}
	s, ok := c.compileLeaf(e, neg)
	if !ok && where {
		return selInterp(e, neg), true
	}
	return s, ok
}

// compileConnective compiles L AND R (dec=true) or L OR R (dec=false). The
// left operand decides the connective at its positions of polarity dec (FALSE
// for AND, TRUE for OR), and the right operand is evaluated only at the rest.
// Asked for polarity dec, the result is those positions and the right
// operand's among the rest. Asked for the other, it is the positions where both
// operands hold: in a WHERE clause the right operand's among the left's (a
// chain); elsewhere the left's and the right's among the rest, so that the
// right operand is evaluated, and fails, wherever the interpreter evaluates it.
func (c *selCompiler) compileConnective(l, r Expr, dec, neg, where bool) (selFn, bool) {
	ls, lok := c.compileSel(l, neg, where)
	rs, rok := c.compileSel(r, neg, where)
	if !lok || !rok {
		return nil, false
	}
	switch {
	case neg == dec:
		return selEither(ls, rs), true
	case where:
		return selChain(ls, rs), true
	}
	ld, _ := c.compileSel(l, dec, where)
	return selBoth(ld, ls, rs), true
}

// leaseRows leases an empty position vector with room for n positions.
func leaseRows(in *vecInput, n int) []int { return block.Lease[int](in.scratch, n)[:0] }

// compileMask compiles a masked aggregate's predicate (Mask): its TRUE
// positions, with a failing leaf failing the page as it fails the CASE the
// mask stands for; a predicate the kernels do not cover runs on the
// interpreter.
func (c *selCompiler) compileMask(e Expr) selFn {
	if s, ok := c.compileSel(e, false, false); ok {
		return s
	}
	return selStrict(e)
}

// selStrict evaluates e on the interpreter at each position, as a CASE WHEN
// condition is evaluated: an evaluation that fails fails the page, and NULL
// does not pass.
func selStrict(e Expr) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		it := Interpreter{params: in.params}
		row := pageRow{p: in.p}
		for _, i := range rows {
			row.row = rowAt(in.sel, i)
			v, err := it.Eval(e, &row)
			if err != nil {
				return out, err
			}
			if !v.Null && v.B {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

// boolSwitch reports x as CASE WHEN cond THEN then ELSE NOT then END over
// non-null boolean constants: the form a mask of "cond is not TRUE" takes.
func boolSwitch(x *Case) (Expr, bool, bool) {
	if len(x.Whens) != 1 || x.Else == nil {
		return nil, false, false
	}
	t, tok := x.Whens[0].Then.(*Const)
	e, eok := x.Else.(*Const)
	if !tok || !eok || t.Val.Null || e.Val.Null || t.Val.T != types.Boolean || e.Val.T != types.Boolean || t.Val.B == e.Val.B {
		return nil, false, false
	}
	return x.Whens[0].Cond, t.Val.B, true
}

// selComplement keeps the positions s does not.
func selComplement(s selFn) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		ts, err := s(in, rows, leaseRows(in, len(rows)))
		if err != nil {
			return out, err
		}
		return selMinus(in, rows, ts, out), nil
	}
}

// selChain keeps the positions l keeps at which r holds too.
func selChain(l, r selFn) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		ls, err := l(in, rows, leaseRows(in, len(rows)))
		if err != nil {
			return out, err
		}
		return r(in, ls, out)
	}
}

// selEither keeps the positions dec keeps, and those r keeps among the rest.
func selEither(dec, r selFn) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		ds, err := dec(in, rows, leaseRows(in, len(rows)))
		switch {
		case err != nil:
			return out, err
		case len(ds) == 0:
			return r(in, rows, out)
		case len(ds) == len(rows):
			return append(out, ds...), nil
		}
		rest := selMinus(in, rows, ds, leaseRows(in, len(rows)))
		rs, err := r(in, rest, leaseRows(in, len(rest)))
		if err != nil {
			return out, err
		}
		return mergeUnion(ds, rs, out), nil
	}
}

// selBoth keeps the positions, among those dec does not keep, that l and r
// both keep.
func selBoth(dec, l, r selFn) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		ds, err := dec(in, rows, leaseRows(in, len(rows)))
		if err != nil {
			return out, err
		}
		rest := selMinus(in, rows, ds, leaseRows(in, len(rows)))
		ls, err := l(in, rest, leaseRows(in, len(rest)))
		if err != nil {
			return out, err
		}
		rs, err := r(in, rest, leaseRows(in, len(rest)))
		if err != nil {
			return out, err
		}
		return mergeIntersect(ls, rs, out), nil
	}
}

// selInterp evaluates e on the interpreter for each row of rows, as a WHERE
// clause does: a leaf whose evaluation fails is NULL, and a NULL does not pass
// in either polarity. A WHERE clause runs with no selection, so its positions
// are rows of in.p.
func selInterp(e Expr, neg bool) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		it := Interpreter{params: in.params}
		row := pageRow{p: in.p}
		for _, r := range rows {
			row.row = r
			if v := it.predicate(e, &row); !v.Null && v.B != neg {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

// mergeUnion merges two ascending position lists, deduplicating.
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

// mergeIntersect appends the positions two ascending lists share.
func mergeIntersect(a, b, out []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// selMinus appends the positions of rows that sub, a sublist of rows, does
// not hold. It marks sub's positions and keeps the unmarked rows by
// predication, so no load waits on the one before it.
func selMinus(in *vecInput, rows, sub, out []int) []int {
	if len(rows) == 0 {
		return out
	}
	mark := block.Lease[byte](in.scratch, rows[len(rows)-1]+1)
	for _, r := range rows {
		mark[r] = 0
	}
	for _, r := range sub {
		mark[r] = 1
	}
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	for _, r := range rows {
		buf[k] = r
		k += 1 - int(mark[r])
	}
	return out[:base+k]
}

// ---- leaves ----

// compileLeaf builds the selection kernel of a predicate that is not a
// connective, if the kernels cover it.
func (c *selCompiler) compileLeaf(e Expr, neg bool) (selFn, bool) {
	switch x := e.(type) {
	case *Compare:
		return c.compileCompare(x, neg)
	case *Between:
		return c.compileBetween(x, neg)
	case *In:
		return c.compileIn(x, neg)
	case *Like:
		pat, ok := scalarStr(x.Pattern)
		if !ok {
			return nil, false
		}
		flip := x.Negate != neg
		return selOperand(c, x.E, c.vecStr,
			func(in *vecInput, d block.Block, k int) bool { return likeMatch(d.Str(k), pat.at(in)) != flip },
			func(in *vecInput, vals []string, nulls []bool, rows, out []int) []int {
				p := pat.at(in)
				return passing(func(v string) bool { return likeMatch(v, p) != flip }, vals, nulls, rows, out)
			})
	case *IsNull:
		if col, ok := x.E.(*ColumnRef); ok {
			// IS [NOT] NULL never yields NULL itself.
			return selIsNull(col.Index, x.Negate != neg), true
		}
	case *ColumnRef:
		if x.T == types.Boolean {
			return selBoolCol(x.Index, !neg), true
		}
	case *Case:
		f, ok := c.vecBool(x)
		if !ok {
			return nil, false
		}
		return selValues(f, func(vals, nulls []bool, rows, out []int) []int { return selBools(vals, nulls, !neg, rows, out) }), true
	}
	return nil, false
}

// compileDynFilter compiles an arrived dynamic join filter as a leaf over its
// probe column: the positions whose key the summary may hold, NULL never (it
// joins no build row, and filters attach only to joins whose output drops
// unmatched probe rows). The verdict is the summary's typed membership test
// for the column's type. A BOOLEAN key has at most two members, so its leaf is
// a boolean column's, NOT NULL's, or selNone.
func (c *selCompiler) compileDynFilter(f DynFilter) selFn {
	s, col := f.Summary, &ColumnRef{Index: f.Col, T: f.T}
	switch f.T {
	case types.Bigint, types.Date:
		return selMember(c, col, c.vecLong, block.Block.Long, s.MatchLong)
	case types.Double:
		return selMember(c, col, c.vecDouble, block.Block.Double, s.MatchDouble)
	case types.Varchar:
		return selMember(c, col, c.vecStr, block.Block.Str, s.MatchStr)
	case types.Boolean:
		switch yes, no := s.MatchBool(true), s.MatchBool(false); {
		case yes && no:
			return selIsNull(f.Col, true)
		case yes || no:
			return selBoolCol(f.Col, yes)
		}
		return selNone
	}
	return selAll
}

// selMember is the leaf testing a column's values for membership: a
// dictionary's entries and a run are decided by member once each
// (selOperand), a flat vector by predication (members).
func selMember[T block.Elem](c *selCompiler, col *ColumnRef, compile func(Expr) (vkernel[T], bool),
	value func(block.Block, int) T, member func(T) bool) selFn {
	s, _ := selOperand(c, col, compile, func(_ *vecInput, d block.Block, k int) bool { return member(value(d, k)) },
		func(_ *vecInput, vals []T, nulls []bool, rows, out []int) []int {
			return members(member, vals, nulls, rows, out)
		})
	return s
}

// evalAt evaluates the value kernel k at the positions rows into vectors
// leased from in.scratch, indexed by position; nulls is nil when no position
// is NULL.
func evalAt[T block.Elem](in *vecInput, k vkernel[T], rows []int) ([]T, []bool, error) {
	idx := rows
	if len(rows) == in.n {
		idx = nil // every position
	}
	vals, nulls := block.Lease[T](in.scratch, in.n), block.Lease[bool](in.scratch, in.n)
	has, err := k(in, idx, vals, nulls)
	if !has {
		nulls = nil
	}
	return vals, nulls, err
}

func isNull(nulls []bool, i int) bool { return nulls != nil && nulls[i] }

// selValues is a leaf over one operand evaluated by its value kernel: test
// appends the positions whose value passes and is not NULL.
func selValues[T block.Elem](f vkernel[T], test func(vals []T, nulls []bool, rows, out []int) []int) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		vals, nulls, err := evalAt(in, f, rows)
		if err != nil {
			return out, err
		}
		return test(vals, nulls, rows, out), nil
	}
}

// selOperand is a leaf that tests one operand's values: verdict is the test of
// entry k of a block, not NULL, and test the same over a value vector; both
// are given the page's evaluation context, which a test against a parameter
// reads it from. A column operand is read in place: a dictionary's entries
// are tested once each, a run once, and a flat block's own vectors when no
// selection maps positions to its rows. Any other operand, or encoding, is
// evaluated by its value kernel.
func selOperand[T block.Elem](c *selCompiler, e Expr, compile func(Expr) (vkernel[T], bool),
	verdict func(in *vecInput, d block.Block, k int) bool, test func(in *vecInput, vals []T, nulls []bool, rows, out []int) []int) (selFn, bool) {
	f, ok := compile(e)
	if !ok {
		return nil, false
	}
	col, ok := e.(*ColumnRef)
	if !ok {
		return func(in *vecInput, rows, out []int) ([]int, error) {
			vals, nulls, err := evalAt(in, f, rows)
			if err != nil {
				return out, err
			}
			return test(in, vals, nulls, rows, out), nil
		}, true
	}
	memo := c.memo()
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b, sel := in.colBlock(col.Index)
		if res, ok := selDict(&in.memo[memo], b, sel, rows, out, func(d block.Block, k int) bool { return verdict(in, d, k) }); ok {
			return res, nil
		}
		if run, ok := b.(*block.RLEBlock); ok {
			return selRun(!run.Val.IsNull(0) && verdict(in, run.Val, 0), rows, out), nil
		}
		vals, nulls, ok := flatVectors[T](b)
		if !ok || sel != nil {
			vals, nulls, _ = evalAt(in, f, rows) // a column's kernel does not fail
		}
		return test(in, vals, nulls, rows, out), nil
	}, true
}

// flatVectors returns b's value and null vectors when b is a flat block of
// values of type T.
func flatVectors[T block.Elem](b block.Block) ([]T, []bool, bool) {
	var vals any
	var nulls []bool
	switch col := b.(type) {
	case *block.LongBlock:
		vals, nulls = col.Vals, col.Nulls
	case *block.DoubleBlock:
		vals, nulls = col.Vals, col.Nulls
	case *block.VarcharBlock:
		vals, nulls = col.Vals, col.Nulls
	default:
		return nil, nil, false
	}
	v, ok := vals.([]T)
	return v, nulls, ok
}

// passing is the value-vector test of pass, for tests that cost more than a
// branch (a LIKE match, a set lookup).
func passing[T any](pass func(T) bool, vals []T, nulls []bool, rows, out []int) []int {
	for _, r := range rows {
		if !isNull(nulls, r) && pass(vals[r]) {
			out = append(out, r)
		}
	}
	return out
}

// members is the value-vector test of member by predication: a probe filter
// passes most rows, and its test decides no branch.
func members[T any](member func(T) bool, vals []T, nulls []bool, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	if nulls == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(member(vals[r]))
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(!nulls[r]) & b2i(member(vals[r]))
		}
	}
	return out[:base+k]
}

// selPair is a leaf over two operands evaluated by their value kernels.
func selPair[T block.Elem](lf, rf vkernel[T], pass func(a, b T) bool) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		a, an, err := evalAt(in, lf, rows)
		if err != nil {
			return out, err
		}
		b, bn, err := evalAt(in, rf, rows)
		if err != nil {
			return out, err
		}
		for _, r := range rows {
			if !isNull(an, r) && !isNull(bn, r) && pass(a[r], b[r]) {
				out = append(out, r)
			}
		}
		return out, nil
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

// b2i is 1 for true and 0 for false. The compiler makes it a flag read, not a
// branch, so a kernel can add a test's outcome to its cursor.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// num is what the typed compare and BETWEEN kernels read.
type num interface{ int64 | float64 }

// ordered is what a comparison kernel reads: a value kernel's element type
// that Go orders.
type ordered interface {
	cmp.Ordered
	block.Elem
}

func (c *selCompiler) compileCompare(x *Compare, neg bool) (selFn, bool) {
	op, l, r := x.Op, x.L, x.R
	if isLiteral(l) {
		op, l, r = swapCmp(op), r, l // the constant on the right
	}
	switch types.CommonType(l.Type(), r.Type()) {
	case types.Bigint, types.Date:
		return compileCmp(c, op, neg, l, r, scalarLong, c.vecLong, block.Block.Long, selCmpConst[int64])
	case types.Double:
		return compileCmp(c, op, neg, l, r, scalarDouble, c.vecDouble, block.Block.Double, selCmpConst[float64])
	case types.Varchar:
		return compileCmp(c, op, neg, l, r, scalarStr, c.vecStr, block.Block.Str, selStrCmpConst)
	case types.Boolean:
		if op != CmpEq && op != CmpNe {
			return nil, false
		}
		eq := op == CmpEq
		if col, ok := l.(*ColumnRef); ok {
			if k, ok := r.(*Const); ok && !k.Val.Null {
				return selBoolCol(col.Index, (k.Val.B == eq) != neg), true
			}
		}
		lf, lok := c.vecBool(l)
		rf, rok := c.vecBool(r)
		if !lok || !rok {
			return nil, false
		}
		return selPair(lf, rf, func(a, b bool) bool { return (a == b) == eq != neg }), true
	}
	return nil, false
}

// compileCmp compiles l op r, tested != flip: against a scalar constant, a
// test of one operand's values, else of two. NOT is the test's outcome
// flipped, not the complement operator: NaN fails both a < b and a >= b, so
// NOT (a < b) keeps it.
func compileCmp[T ordered](c *selCompiler, op CmpOp, flip bool, l, r Expr, scalar func(Expr) (scalar[T], bool),
	compile func(Expr) (vkernel[T], bool), value func(block.Block, int) T,
	cmpConst func(CmpOp, bool, []T, []bool, T, []int, []int) []int) (selFn, bool) {
	if k, ok := scalar(r); ok {
		return selOperand(c, l, compile, func(in *vecInput, d block.Block, i int) bool { return cmpOrd(op, value(d, i), k.at(in)) != flip },
			func(in *vecInput, vals []T, nulls []bool, rows, out []int) []int {
				return cmpConst(op, flip, vals, nulls, k.at(in), rows, out)
			})
	}
	lf, lok := compile(l)
	rf, rok := compile(r)
	if !lok || !rok {
		return nil, false
	}
	return selPair(lf, rf, func(a, b T) bool { return cmpOrd(op, a, b) != flip }), true
}

func (c *selCompiler) compileBetween(x *Between, neg bool) (selFn, bool) {
	flip := x.Negate != neg
	switch types.CommonType(x.E.Type(), types.CommonType(x.Lo.Type(), x.Hi.Type())) {
	case types.Bigint, types.Date:
		return compileRange(c, x, flip, scalarLong, c.vecLong, block.Block.Long)
	case types.Double:
		return compileRange(c, x, flip, scalarDouble, c.vecDouble, block.Block.Double)
	}
	return nil, false
}

// between is BETWEEN's test on one value.
func between[T num](v, lo, hi T) bool { return v >= lo && v <= hi }

// compileRange compiles BETWEEN, tested != flip: between constant bounds, a
// test of one operand's values, else of three. A NaN lies between no bounds,
// so NOT BETWEEN keeps it, as the interpreter does.
func compileRange[T interface {
	num
	block.Elem
}](c *selCompiler, x *Between, flip bool, scalar func(Expr) (scalar[T], bool), compile func(Expr) (vkernel[T], bool), value func(block.Block, int) T) (selFn, bool) {
	lo, lok := scalar(x.Lo)
	hi, hok := scalar(x.Hi)
	if lok && hok {
		return selOperand(c, x.E, compile, func(in *vecInput, d block.Block, k int) bool {
			return between(value(d, k), lo.at(in), hi.at(in)) != flip
		},
			func(in *vecInput, vals []T, nulls []bool, rows, out []int) []int {
				return selBetweenConst(flip, vals, nulls, lo.at(in), hi.at(in), rows, out)
			})
	}
	vf, ok1 := compile(x.E)
	lf, ok2 := compile(x.Lo)
	hf, ok3 := compile(x.Hi)
	if !ok1 || !ok2 || !ok3 {
		return nil, false
	}
	return func(in *vecInput, rows, out []int) ([]int, error) {
		v, vn, err := evalAt(in, vf, rows)
		if err != nil {
			return out, err
		}
		l, ln, err := evalAt(in, lf, rows)
		if err != nil {
			return out, err
		}
		h, hn, err := evalAt(in, hf, rows)
		if err != nil {
			return out, err
		}
		for _, r := range rows {
			if !isNull(vn, r) && !isNull(ln, r) && !isNull(hn, r) && between(v[r], l[r], h[r]) != flip {
				out = append(out, r)
			}
		}
		return out, nil
	}, true
}

func (c *selCompiler) compileIn(x *In, neg bool) (selFn, bool) {
	for _, le := range x.List {
		if !isLiteral(le) {
			return nil, false
		}
	}
	flip := x.Negate != neg
	switch x.E.Type() {
	case types.Bigint, types.Date:
		return compileInList(c, x, flip, scalarLong, c.vecLong, block.Block.Long)
	case types.Double:
		return compileInList(c, x, flip, scalarDouble, c.vecDouble, block.Block.Double)
	case types.Varchar:
		return compileInList(c, x, flip, scalarStr, c.vecStr, block.Block.Str)
	}
	return nil, false
}

// compileInList compiles IN over a list of constants and parameters, tested
// != flip. A NULL element is in no set: a value that matches no other element
// is NULL against it, not FALSE (SQL's three-valued IN, as the interpreter's),
// so that polarity keeps no row. A list of constants is one set, built here; a
// list that holds a parameter is a set per processor, built from its
// parameters on the first page and kept in a memo slot.
func compileInList[T interface {
	comparable
	block.Elem
}](c *selCompiler, x *In, flip bool, scalarOf func(Expr) (scalar[T], bool), compile func(Expr) (vkernel[T], bool), value func(block.Block, int) T) (selFn, bool) {
	var list []scalar[T]
	listNull, params := false, false
	for _, le := range x.List {
		if k, ok := le.(*Const); ok && k.Val.Null {
			listNull = true
			continue
		}
		s, ok := scalarOf(le)
		if !ok {
			return nil, false
		}
		list, params = append(list, s), params || s.param >= 0
	}
	setOf := func(in *vecInput) map[T]bool {
		set := make(map[T]bool, len(list))
		for _, s := range list {
			set[s.at(in)] = true
		}
		return set
	}
	var set func(in *vecInput) map[T]bool
	if params {
		slot := c.memo()
		set = func(in *vecInput) map[T]bool {
			m := &in.memo[slot]
			if m.members == nil {
				m.members = setOf(in)
			}
			return m.members.(map[T]bool)
		}
	} else {
		lits := setOf(nil)
		set = func(*vecInput) map[T]bool { return lits }
	}
	return selOperand(c, x.E, compile,
		func(in *vecInput, d block.Block, k int) bool {
			member := set(in)[value(d, k)]
			return member != flip && (member || !listNull)
		},
		func(in *vecInput, vals []T, nulls []bool, rows, out []int) []int {
			s := set(in)
			return passing(func(v T) bool {
				member := s[v]
				return member != flip && (member || !listNull)
			}, vals, nulls, rows, out)
		})
}

// ---- column kernels ----

// A selection kernel over a flat column appends by predication: it stores
// every candidate position at the cursor and advances the cursor by the test's
// outcome, 0 or 1, with the null test folded into the same 0/1 and NOT folded
// in as an exclusive or (flip). The store is unconditional, which selFn's
// contract allows: out has room for every position of rows. No position's
// outcome decides a branch, so the kernel costs the same at every pass ratio;
// a kernel that branched on it would stall on every mispredicted row, most
// often near half. The operator is switched once, outside the loop.

// selCmpConst appends the positions r of rows where vals[r] op c is true, !=
// flip, and vals[r] is not NULL. When rows holds as many positions as vals has
// values, it is every position (rows is ascending and duplicate-free), and a
// NULL-free column is then read in order, with no position vector to read it
// through.
func selCmpConst[T num](op CmpOp, flip bool, vals []T, nulls []bool, c T, rows, out []int) []int {
	base, f := len(out), b2i(flip)
	buf, k := out[base:base+len(rows)], 0
	switch {
	case nulls != nil:
		switch op {
		case CmpEq:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] == c) ^ f)
			}
		case CmpNe:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] != c) ^ f)
			}
		case CmpLt:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] < c) ^ f)
			}
		case CmpLe:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] <= c) ^ f)
			}
		case CmpGt:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] > c) ^ f)
			}
		default:
			for _, r := range rows {
				buf[k] = r
				k += b2i(!nulls[r]) & (b2i(vals[r] >= c) ^ f)
			}
		}
	case len(rows) == len(vals):
		buf = buf[:len(vals)]
		switch op {
		case CmpEq:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v == c) ^ f
			}
		case CmpNe:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v != c) ^ f
			}
		case CmpLt:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v < c) ^ f
			}
		case CmpLe:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v <= c) ^ f
			}
		case CmpGt:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v > c) ^ f
			}
		default:
			for r, v := range vals {
				buf[k] = r
				k += b2i(v >= c) ^ f
			}
		}
	default:
		switch op {
		case CmpEq:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] == c) ^ f
			}
		case CmpNe:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] != c) ^ f
			}
		case CmpLt:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] < c) ^ f
			}
		case CmpLe:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] <= c) ^ f
			}
		case CmpGt:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] > c) ^ f
			}
		default:
			for _, r := range rows {
				buf[k] = r
				k += b2i(vals[r] >= c) ^ f
			}
		}
	}
	return out[:base+k]
}

// selBetweenConst appends the positions r of rows where lo <= vals[r] <= hi
// is true, != flip, and vals[r] is not NULL, reading a NULL-free column in
// order when rows is every position, as selCmpConst does.
func selBetweenConst[T num](flip bool, vals []T, nulls []bool, lo, hi T, rows, out []int) []int {
	base, f := len(out), b2i(flip)
	buf, k := out[base:base+len(rows)], 0
	switch {
	case nulls != nil:
		for _, r := range rows {
			v := vals[r]
			buf[k] = r
			k += b2i(!nulls[r]) & ((b2i(v >= lo) & b2i(v <= hi)) ^ f)
		}
	case len(rows) == len(vals):
		buf = buf[:len(vals)]
		for r, v := range vals {
			buf[k] = r
			k += (b2i(v >= lo) & b2i(v <= hi)) ^ f
		}
	default:
		for _, r := range rows {
			v := vals[r]
			buf[k] = r
			k += (b2i(v >= lo) & b2i(v <= hi)) ^ f
		}
	}
	return out[:base+k]
}

// selStrCmpConst is selCmpConst over strings, whose compare is a call to the
// runtime anyway.
func selStrCmpConst(op CmpOp, flip bool, vals []string, nulls []bool, c string, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	for _, r := range rows {
		buf[k] = r
		k += b2i(!isNull(nulls, r) && cmpOrd(op, vals[r], c) != flip)
	}
	return out[:base+k]
}

// selBools appends the positions r of rows where vals[r] == want and is not
// NULL, by predication.
func selBools(vals, nulls []bool, want bool, rows, out []int) []int {
	base, f := len(out), b2i(!want)
	buf, k := out[base:base+len(rows)], 0
	if nulls == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(vals[r]) ^ f
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(!nulls[r]) & (b2i(vals[r]) ^ f)
		}
	}
	return out[:base+k]
}

// unwrapLazy materializes lazy columns so the kernels see the real encoding.
func unwrapLazy(b block.Block) block.Block {
	if lz, ok := b.(*block.LazyBlock); ok {
		return lz.Load()
	}
	return b
}

// dictSel is the dictionary case of a selection kernel over one column:
// entries are tested once each and the verdicts kept while pages share the
// dictionary (paper §V-E). It is a processor's, in the memo slot of the kernel
// it serves (vecInput.memo), and outlives the page.
type dictSel struct {
	dict    block.Block // the dictionary verdict holds the verdicts of
	verdict []bool
	// members is an IN list's set when the list holds parameters: built from
	// the processor's parameters on its first page (compileInList).
	members any
}

// selDict appends the positions of rows whose dictionary entry passes test,
// which gives the verdict on a non-null entry; s is the calling kernel's memo
// and sel maps positions to b's rows. It declines (false) when b is not a
// dictionary block, and when its dictionary is new and has more entries than
// there are positions to select from: testing those positions then costs less
// than testing the entries (the paper's guard), and the kernel's row-level
// case does.
func selDict(s *dictSel, b block.Block, sel, rows, out []int, test func(d block.Block, k int) bool) ([]int, bool) {
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
	return selVerdicts(s.verdict, col.Indices, sel, rows, out), true
}

// selVerdicts appends the positions r of rows whose dictionary entry (indices
// of the row sel maps r to) has a true verdict, by predication.
func selVerdicts(verdict []bool, indices []int32, sel, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	if sel == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(verdict[indices[r]])
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(verdict[indices[sel[r]]])
		}
	}
	return out[:base+k]
}

// selRun decides a page whose column is one run (RLE) by its value: every
// position or none.
func selRun(pass bool, rows, out []int) []int {
	if pass {
		return append(out, rows...)
	}
	return out
}

// rowAt is the row of a block that sel maps position i to.
func rowAt(sel []int, i int) int {
	if sel != nil {
		return sel[i]
	}
	return i
}

// selBoolCol selects the positions where a boolean column is want.
func selBoolCol(idx int, want bool) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b, sel := in.colBlock(idx)
		switch col := b.(type) {
		case *block.BoolBlock:
			if sel == nil {
				return selBools(col.Vals, col.Nulls, want, rows, out), nil
			}
		case *block.RLEBlock:
			return selRun(!col.Val.IsNull(0) && col.Val.Bool(0) == want, rows, out), nil
		}
		for _, r := range rows {
			if br := rowAt(sel, r); !b.IsNull(br) && b.Bool(br) == want {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

// selIsNull selects the positions where IsNull(col) != flip.
func selIsNull(idx int, flip bool) selFn {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b, sel := in.colBlock(idx)
		if col, ok := b.(*block.RLEBlock); ok {
			return selRun(col.Val.IsNull(0) != flip, rows, out), nil
		}
		for _, r := range rows {
			if b.IsNull(rowAt(sel, r)) != flip {
				out = append(out, r)
			}
		}
		return out, nil
	}
}
