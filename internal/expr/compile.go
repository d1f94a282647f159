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
// stays the semantic reference. An Evaluator reuses scratch buffers across
// pages and is not safe for concurrent use.
type Evaluator struct {
	e   Expr
	vec *vecProjector // nil: interpreted
	it  Interpreter
}

// Compile builds an evaluator for e, specialized where the kernels cover it.
func Compile(e Expr) *Evaluator {
	return &Evaluator{e: e, vec: compileVecProj(e)}
}

// InterpretOnly wraps e in a pure-interpreter evaluator: the baseline side
// of the codegen ablation and the oracle of the differential tests.
func InterpretOnly(e Expr) *Evaluator {
	return &Evaluator{e: e}
}

// EvalPage computes the output column for every row of p.
func (ev *Evaluator) EvalPage(p *block.Page) (block.Block, error) {
	n := p.RowCount()
	if ev.vec != nil {
		return ev.vec.eval(&vecInput{p: p, n: n}, false)
	}
	vals := make([]types.Value, n)
	row := pageRow{p: p}
	for i := range vals {
		row.row = i
		v, err := ev.it.Eval(ev.e, &row)
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
