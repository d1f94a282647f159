package operators

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// fuzzJoinPages turns fuzz bytes into (key BIGINT, payload BIGINT) pages: a
// byte is a row whose key is NULL (one byte in eleven) or one of thirteen
// values, so keys repeat; the payload numbers the side's rows in arrival
// order. Page sizes cycle through sizes, 0 to 8 rows a page, with at most
// three empty pages.
func fuzzJoinPages(data, sizes []byte, base int64) []*block.Page {
	if len(sizes) == 0 {
		sizes = []byte{8}
	}
	var pages []*block.Page
	empty := 0
	for at, i := 0, 0; at < len(data); i++ {
		n := int(sizes[i%len(sizes)] % 9)
		if n == 0 && empty < 3 {
			empty++
			pages = append(pages, twoColPage(nil, nil))
			continue
		}
		n = min(max(n, 1), len(data)-at)
		keys, nulls, payload := make([]int64, n), make([]bool, n), make([]int64, n)
		for r, b := range data[at : at+n] {
			keys[r], nulls[r], payload[r] = int64(b%13), b%11 == 0, base+int64(at+r)
		}
		pages = append(pages, block.NewPage(block.NewLongBlock(keys, nulls), block.NewLongBlock(payload, nil)))
		at += n
	}
	return pages
}

// oddPayloadSum is a residual over two (key, payload) BIGINT sides:
// probe.payload + build.payload is odd.
var oddPayloadSum = &expr.Compare{Op: expr.CmpEq, R: expr.NewConst(types.BigintValue(1)), L: &expr.Arith{Op: expr.OpMod, T: types.Bigint,
	L: &expr.Arith{Op: expr.OpAdd, T: types.Bigint, L: &expr.ColumnRef{Index: 1, T: types.Bigint}, R: &expr.ColumnRef{Index: 3, T: types.Bigint}},
	R: expr.NewConst(types.BigintValue(2))}}

// drainPeers drives probe operators of one bridge as drivers do, a turn each
// in rotation: a turn hands an operator its next page of inputs if it wants
// one, finishes it as soon as its last page is in — while it may still have
// pairs of that page to emit — and then, unless it is blocked, takes one
// output page, rendered before the next turn. It returns the rows in the
// order they came out.
func drainPeers(t *testing.T, ops []*LookupJoinOperator, inputs [][]*block.Page) [][]types.Value {
	t.Helper()
	inputs = append([][]*block.Page(nil), inputs...)
	var out [][]types.Value
	for idle := 0; ; {
		done, moved := true, false
		for i, op := range ops {
			if op.IsFinished() {
				continue
			}
			done = false
			if len(inputs[i]) > 0 && op.NeedsInput() {
				if err := op.AddInput(inputs[i][0]); err != nil {
					t.Fatal(err)
				}
				inputs[i], moved = inputs[i][1:], true
			}
			if len(inputs[i]) == 0 && !op.finished {
				op.Finish()
			}
			if op.IsBlocked() {
				continue
			}
			p, err := op.Output()
			if err != nil {
				t.Fatal(err)
			}
			if p != nil && p.RowCount() > 0 {
				for r := range p.RowCount() {
					out = append(out, p.Row(r))
				}
				moved = true
			}
		}
		switch {
		case done:
			return out
		case moved:
			idle = 0
		case idle > 2: // an Output that emits nothing may still claim or end
			t.Fatal("the probe operators stalled")
		default:
			idle++
		}
	}
}

// FuzzJoinIndex holds the join's one output path against the per-row
// reference: random BIGINT keys with duplicates and NULLs, split into random
// page sizes (empty pages among them), built and probed under every join
// type, keyed and keyless, with no residual and with one over both sides'
// payloads, return refJoinRows' rows, and every probe row's matches come out
// in build arrival order. Two probe operators share the probe pages and are
// finished as soon as their last page is in, as drivers finish them.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 0, 14, 27}, []byte{1, 3, 5, 0, 22, 14}, []byte{2, 0, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, []byte{7, 20, 8}, []byte{1})
	f.Add([]byte{}, []byte{4, 5}, []byte{0})
	ts := []types.Type{types.Bigint, types.Bigint}
	joinTypes := append(allJoinTypes[:len(allJoinTypes):len(allJoinTypes)], struct {
		name string
		jt   plan.JoinType
	}{"cross", plan.CrossJoin})
	f.Fuzz(func(t *testing.T, build, probe, sizes []byte) {
		if len(build) > 512 || len(probe) > 512 {
			t.Skip("sides past 512 rows add time, not shapes")
		}
		buildPages, probePages := fuzzJoinPages(build, sizes, 0), fuzzJoinPages(probe, sizes[min(1, len(sizes)):], 1000)
		for _, shape := range joinShapes {
			var keys []int
			if shape.keyed {
				keys = []int{0}
			}
			var residual expr.Expr
			if shape.residual {
				residual = oddPayloadSum
			}
			for _, tc := range joinTypes {
				if tc.jt == plan.CrossJoin && shape.keyed {
					continue // a CROSS join has no key
				}
				bridge := NewJoinBridge()
				bridge.AddBuilder()
				hb := NewHashBuild(NopContext(), bridge, keys, ts[:len(keys)])
				for _, p := range buildPages {
					if err := hb.AddInput(p); err != nil {
						t.Fatal(err)
					}
				}
				hb.Finish()
				bridge.NoMoreBuilders()
				ops, inputs := make([]*LookupJoinOperator, 2), make([][]*block.Page, 2)
				for i := range ops {
					bridge.AddProbe()
					ops[i] = NewLookupJoin(NopContext(), bridge, tc.jt, keys, NewJoinResidual(residual, len(ts), expr.NewPageProcessor), ts, ts, 5)
				}
				bridge.NoMoreProbes()
				for i, p := range probePages {
					inputs[i%2] = append(inputs[i%2], p)
				}
				rows := drainPeers(t, ops, inputs)
				got := map[string]int{}
				for _, row := range rows {
					got[rowText(row)]++
				}
				name := fmt.Sprintf("%s, %s, %d build pages, %d probe pages", shape.name, tc.name, len(buildPages), len(probePages))
				assertSameCounts(t, name, got, refJoin(t, tc.jt, buildPages, probePages, keys, keys, residual, ts, ts))
				if tc.jt != plan.SemiJoin && tc.jt != plan.AntiJoin {
					arrivalOrderPairs(t, name, rows, 1, 3)
				}
			}
		}
	})
}
