package expr

import (
	"repro/internal/block"
	"repro/internal/types"
)

// Evaluator computes a full output column for an input page. It is the
// paper's two evaluation strategies (§V-B) behind one call: expressions the
// vectorized kernels cover run as a kernel tree specialized to the
// expression (constants folded in, type dispatch done once, monomorphic
// inner loops); everything else runs on the tree-walking interpreter, which
// stays the semantic reference. An Evaluator holds no mutable state, so one
// may serve any number of goroutines.
type Evaluator struct {
	e     Expr
	vec   *vecProjector // nil: interpreted
	memos int           // memo slots EvalPage gives vec's kernels (selCompiler)
}

// Compile builds an evaluator for e, specialized where the kernels cover it.
func Compile(e Expr) *Evaluator {
	var c selCompiler
	ev := c.evaluator(e)
	ev.memos = c.memos
	return ev
}

// evaluator builds an evaluator for e whose kernels are numbered among c's:
// a program's evaluators share their processor's memo slots.
func (c *selCompiler) evaluator(e Expr) *Evaluator {
	return &Evaluator{e: e, vec: c.compileVecProj(e)}
}

// InterpretOnly wraps e in a pure-interpreter evaluator: the baseline side
// of the codegen ablation and the oracle of the differential tests.
func InterpretOnly(e Expr) *Evaluator {
	return &Evaluator{e: e}
}

// EvalPage computes the output column for every row of p, reading params
// where the expression holds a Param. The kernels' dictionary verdicts last
// the call: an evaluator is shared, so it keeps none.
func (ev *Evaluator) EvalPage(p *block.Page, params []types.Value) (block.Block, error) {
	return ev.evalPage(p, nil, make([]dictSel, ev.memos), params)
}

// evalPage is EvalPage with the kernels' temporaries leased from scratch and
// their dictionary verdicts kept in memo, the slots of the compiler that built
// ev; the output block is the caller's.
func (ev *Evaluator) evalPage(p *block.Page, scratch *block.Arena, memo []dictSel, params []types.Value) (block.Block, error) {
	n := p.RowCount()
	if ev.vec != nil {
		return ev.vec.eval(&vecInput{p: p, n: n, scratch: scratch, memo: memo, params: params}, false)
	}
	it := Interpreter{params: params}
	vals := make([]types.Value, n)
	row := pageRow{p: p}
	for i := range vals {
		row.row = i
		v, err := it.Eval(ev.e, &row)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return block.BuildBlock(ev.e.Type(), vals), nil
}

// pageRow adapts one row of a page as an interpreter Row.
type pageRow struct {
	p   *block.Page
	row int
}

func (r *pageRow) ColValue(i int) types.Value { return r.p.Col(i).Value(r.row) }
