package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/types"
)

// selThroughPages is three pages of 512 rows of (f bigint, k bigint, s
// varchar, v double, w bigint): f = row mod 10 decides the filter, k and s are
// the group keys and v and w the arguments. keyEnc encodes k and s, argEnc v
// and w: "flat", "dictionary" (a dictionary a page; a double stays flat),
// "rle" (one run a page) or "lazy" (a lake column, its loads counted in
// loads). With nulls every key and argument column holds NULLs.
func selThroughPages(keyEnc, argEnc string, nulls bool, loads *int) []*block.Page {
	const rows = 512
	var pages []*block.Page
	encode := func(b block.Block, enc string) block.Block {
		switch enc {
		case "dictionary":
			return block.DictEncode(b, 1)
		case "rle":
			return block.NewRLEBlockFromBlock(block.CopyPositions(b, []int{0}), b.Len())
		case "lazy":
			return block.NewLazyBlock(b.Type(), b.Len(), func(*block.Arena) block.Block { *loads++; return b })
		}
		return b
	}
	for p := 0; p < 3; p++ {
		f, k, w := make([]int64, rows), make([]int64, rows), make([]int64, rows)
		s, v := make([]string, rows), make([]float64, rows)
		var kn, sn, vn, wn []bool
		if nulls {
			kn, sn, vn, wn = make([]bool, rows), make([]bool, rows), make([]bool, rows), make([]bool, rows)
		}
		for r := range rows {
			f[r] = int64(r % 10)
			k[r], s[r] = int64((r*7+p)%5), fmt.Sprintf("s%d", (r*3+p)%4)
			v[r], w[r] = float64(r%13)/4, int64(r%17-8)
			if nulls {
				kn[r], sn[r], vn[r], wn[r] = r%11 == 3, r%9 == 5, r%7 == 2, r%6 == 1
				if kn[r] {
					k[r] = 0
				}
				if sn[r] {
					s[r] = ""
				}
				if vn[r] {
					v[r] = 0
				}
				if wn[r] {
					w[r] = 0
				}
			}
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(f, nil),
			encode(block.NewLongBlock(k, kn), keyEnc), encode(block.NewVarcharBlock(s, sn), keyEnc),
			encode(block.NewDoubleBlock(v, vn), argEnc), encode(block.NewLongBlock(w, wn), argEnc)))
	}
	return pages
}

// selThroughPlan is a partial aggregation grouping by k and s (a byte-layout
// key), or by k alone (fixed cells) when byK, over the columns' projection
// under f < keep: count(*), count, sum, min and max of both arguments, and the
// sum of k + 1 (a projection of one dictionary column, when k is one).
func selThroughPlan(keep int64, byK bool) plan.Node {
	b, d, v := types.Bigint, types.Double, types.Varchar
	scan := &plan.Scan{Handle: plan.TableHandle{Catalog: "mem", Table: "t"}, Columns: []string{"f", "k", "s", "v", "w"},
		Out: plan.Schema{{Name: "f", T: b}, {Name: "k", T: b}, {Name: "s", T: v}, {Name: "v", T: d}, {Name: "w", T: b}}}
	filter := &plan.Filter{Input: scan, Predicate: &expr.Compare{Op: expr.CmpLt, L: col(0, b), R: lit(types.BigintValue(keep))}}
	args := project(filter, col(1, b), col(2, v), col(3, d), col(4, b), arith(expr.OpAdd, col(1, b), lit(types.BigintValue(1)), b))
	out := plan.Schema{{Name: "_k0", T: b}, {Name: "_k1", T: v}}
	aggs := []plan.Aggregate{{Func: plan.AggCountAll, Out: b}}
	for _, a := range []struct {
		f   plan.AggFunc
		arg int
		t   types.Type
	}{{plan.AggCount, 2, b}, {plan.AggSum, 2, d}, {plan.AggMin, 2, d}, {plan.AggMax, 2, d},
		{plan.AggCount, 3, b}, {plan.AggSum, 3, b}, {plan.AggMin, 3, b}, {plan.AggMax, 3, b}, {plan.AggSum, 4, b}} {
		aggs = append(aggs, plan.Aggregate{Func: a.f, Arg: col(a.arg, args.Out[a.arg].T), Out: a.t})
	}
	for range aggs {
		out = append(out, plan.Field{Name: fmt.Sprintf("_p%d", len(out)), T: types.Bigint})
	}
	keys := []expr.Expr{col(0, b), col(1, v)}
	if byK {
		keys, out = keys[:1], slices.Delete(out, 1, 2)
	}
	return &plan.Aggregation{Input: args, GroupBy: keys, Aggregates: aggs, Step: plan.AggPartial, Out: out}
}

// aggregateRows drives pages through the fragment's processor and aggregation
// — the processor lending its output to the aggregation, as a driver's chain
// is put together, or, with lend false, handing it gathered pages — and
// returns the groups, sorted.
func aggregateRows(t *testing.T, root plan.Node, pages []*block.Page, lend bool) []string {
	t.Helper()
	task := compileTestFragment(t, root)
	ops, err := task.compiled[0].mkOps(&driverCtx{task: task})
	if err != nil {
		t.Fatal(err)
	}
	if lend {
		lendOutputs(ops)
	}
	fp, agg := ops[0].(*operators.FilterProjectOperator), ops[1].(*operators.HashAggregationOperator)
	drive(t, fp, agg, pages)
	agg.Finish()
	var rows []string
	for !agg.IsFinished() {
		p, err := agg.Output()
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; p != nil && r < p.RowCount(); r++ {
			var cells []string
			for _, v := range p.Row(r) {
				cells = append(cells, v.String())
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
	}
	finish(fp, agg)
	slices.Sort(rows)
	return rows
}

// TestSelectionThroughAggregation: an aggregation that reads a processor's
// pages through the filter's selection (DESIGN.md, "Who owns a page") groups
// and aggregates exactly as one handed gathered pages does — for flat,
// dictionary, RLE and lazy lake keys and arguments, each with and without
// NULLs, under a filter that keeps no row, some rows and every row. A lazy
// column of a page the filter empties is never loaded. scripts/check.sh runs
// it with the scratch poison linked on, so a vector read after its page shows.
func TestSelectionThroughAggregation(t *testing.T) {
	encodings := []string{"flat", "dictionary", "rle", "lazy"}
	for _, keyEnc := range encodings {
		for _, argEnc := range encodings {
			for _, nulls := range []bool{false, true} {
				for _, c := range []struct {
					keep int64
					byK  bool
				}{{0, false}, {4, false}, {10, false}, {4, true}, {10, true}} {
					name := fmt.Sprintf("keys=%s args=%s nulls=%v keep=%d/10 by k alone=%v", keyEnc, argEnc, nulls, c.keep, c.byK)
					var loads int
					got := aggregateRows(t, selThroughPlan(c.keep, c.byK), selThroughPages(keyEnc, argEnc, nulls, &loads), true)
					if (keyEnc == "lazy" || argEnc == "lazy") && (c.keep == 0) != (loads == 0) {
						t.Errorf("%s: %d lazy columns loaded", name, loads)
					}
					want := aggregateRows(t, selThroughPlan(c.keep, c.byK), selThroughPages(keyEnc, argEnc, nulls, &loads), false)
					if c.keep > 0 && len(want) == 0 {
						t.Fatalf("%s: no group", name)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: read through the selection\n%s\ngathered\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
					}
				}
			}
		}
	}
}
