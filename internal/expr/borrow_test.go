package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// TestBorrowedOutputDifferential runs every projection shape through a
// borrowing processor and an owning one over the same pages, with the poison
// on: a borrowed page read before the next Process call must equal the owned
// page, and an owned page must still read the same after later pages have
// gone through — immutability is what every consumer but a declared one
// relies on.
func TestBorrowedOutputDifferential(t *testing.T) {
	PoisonBorrowedPages(t)
	r := rand.New(rand.NewSource(41))
	pages := []*block.Page{
		projTestPage(r, 211),
		projTestPage(r, 1024), // grows every scratch vector
		projTestPage(r, 1),
		projTestPage(r, 300),
	}
	filters := []Expr{
		nil,
		&Compare{Op: CmpGt, L: colRef(7, types.Bigint), R: longConst(-1)},          // passes all
		&Compare{Op: CmpGt, L: colRef(0, types.Bigint), R: longConst(0)},           // about half
		&Compare{Op: CmpEq, L: colRef(0, types.Bigint), R: longConst(3)},           // sparse
		&Not{E: &IsNull{E: colRef(5, types.Varchar)}},                              // null test
		&Compare{Op: CmpEq, L: colRef(4, types.Varchar), R: strConst("run")},       // RLE fast path
		&Compare{Op: CmpEq, L: colRef(4, types.Varchar), R: strConst("other run")}, // RLE, nothing passes
	}
	exprs := projExpressions()
	for fi, f := range filters {
		// All shapes in one list, so CSE slots and repeated identity columns
		// are in play; the row id column twice on top of that.
		proj := append(append([]Expr{}, exprs...), colRef(7, types.Bigint), colRef(7, types.Bigint))
		owned := NewPageProcessor(f, proj)
		borrowed := NewPageProcessor(f, proj)
		borrowed.BorrowOutput()
		var kept []*block.Page
		var keptWant []string
		for gi, p := range pages {
			o, err := owned.Process(p)
			if err != nil {
				t.Fatalf("filter %d page %d: owned: %v", fi, gi, err)
			}
			b, err := borrowed.Process(p)
			if err != nil {
				t.Fatalf("filter %d page %d: borrowed: %v", fi, gi, err)
			}
			want := renderOut(o)
			if got := renderOut(b); got != want {
				t.Fatalf("filter %d page %d:\nborrowed %s\nowned    %s", fi, gi, got, want)
			}
			kept, keptWant = append(kept, o), append(keptWant, want)
		}
		for gi, o := range kept {
			if got := renderOut(o); got != keptWant[gi] {
				t.Fatalf("filter %d: owned page %d changed after later pages:\nnow  %s\nthen %s", fi, gi, got, keptWant[gi])
			}
		}
	}
}

// TestBorrowedOutputNeverLendsEncodedOrPassThrough pins down what is never
// scratch: an unfiltered pass-through column is the input block itself, RLE
// and constant outputs stay RLE, and an interpreted projection's block is
// freshly built — all of them still intact after the next page, poison on. A
// filtered dictionary column stays a dictionary over the input's dictionary,
// which is never lent; its index vector is, like a flat vector.
func TestBorrowedOutputNeverLendsEncodedOrPassThrough(t *testing.T) {
	PoisonBorrowedPages(t)
	r := rand.New(rand.NewSource(43))
	length, _ := LookupBuiltin("length")
	proj := []Expr{
		colRef(2, types.Varchar), // dictionary
		colRef(4, types.Varchar), // RLE
		strConst("k"),            // constant
		&Call{Fn: length, Args: []Expr{colRef(5, types.Varchar)}}, // interpreted
		colRef(0, types.Bigint),                                   // flat: the one that is lent when filtered
	}
	filter := &Compare{Op: CmpGt, L: colRef(0, types.Bigint), R: longConst(0)}

	pp := NewPageProcessor(filter, proj)
	pp.BorrowOutput()
	p1 := projTestPage(r, 400)
	out1, err := pp.Process(p1)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := out1.Col(0).(*block.DictionaryBlock); !ok || d.Dict != p1.Col(2).(*block.DictionaryBlock).Dict {
		t.Errorf("filtered dictionary column came out as %T, want a dictionary over the input's", out1.Col(0))
	}
	for _, c := range []int{1, 2} {
		if _, ok := out1.Col(c).(*block.RLEBlock); !ok {
			t.Errorf("column %d came out as %T, want RLE", c, out1.Col(c))
		}
	}
	want := map[int]string{1: "", 2: "", 3: ""}
	for c := range want {
		want[c] = renderBlock(out1.Col(c), out1.RowCount())
	}
	lent := renderBlock(out1.Col(4), out1.RowCount())
	dict1 := out1.Col(0).(*block.DictionaryBlock)
	dictWant := renderBlock(dict1.Dict, dict1.Dict.Len())
	idxLent := fmt.Sprint(dict1.Indices)
	if _, err := pp.Process(projTestPage(r, 400)); err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got := renderBlock(out1.Col(c), out1.RowCount()); got != want[c] {
			t.Errorf("column %d of a borrowed page changed with the next page: it was lent and must not be", c)
		}
	}
	if got := renderBlock(dict1.Dict, dict1.Dict.Len()); got != dictWant {
		t.Error("the dictionary of a borrowed dictionary column changed with the next page")
	}
	if fmt.Sprint(dict1.Indices) == idxLent {
		t.Error("the filtered dictionary column's index vector survived the next page unpoisoned: it was not lent, or the poison is off")
	}
	if got := renderBlock(out1.Col(4), out1.RowCount()); got == lent {
		t.Error("the filtered flat column survived the next page unpoisoned: it was not lent, or the poison is off")
	}

	// Unfiltered: every identity column passes through as the input block.
	pass := NewPageProcessor(nil, proj)
	pass.BorrowOutput()
	out, err := pass.Process(p1)
	if err != nil {
		t.Fatal(err)
	}
	for c, src := range map[int]int{0: 2, 1: 4, 4: 0} {
		if out.Col(c) != p1.Col(src) {
			t.Errorf("unfiltered identity column %d is not the input block", c)
		}
	}
}

// TestIdentityProjectedTwiceGatheredOnce: a source column that appears twice
// in the projection list (sum and avg of one column) is gathered once and the
// block shared, in owned and borrowed mode alike.
func TestIdentityProjectedTwiceGatheredOnce(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	p := projTestPage(r, 128)
	proj := []Expr{colRef(1, types.Double), colRef(0, types.Bigint), colRef(1, types.Double)}
	filter := &Compare{Op: CmpGt, L: colRef(0, types.Bigint), R: longConst(0)}
	for _, borrow := range []bool{false, true} {
		pp := NewPageProcessor(filter, proj)
		if borrow {
			pp.BorrowOutput()
		}
		out, err := pp.Process(p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Col(0) != out.Col(2) {
			t.Errorf("borrow=%v: the column projected twice was gathered twice", borrow)
		}
		if out.Col(0) == out.Col(1) {
			t.Errorf("borrow=%v: distinct columns share a block", borrow)
		}
		ref, err := NewInterpretedPageProcessor(filter, proj).Process(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderOut(out), renderOut(ref); got != want {
			t.Errorf("borrow=%v:\ngot  %s\nwant %s", borrow, got, want)
		}
	}
}

// TestBorrowedErrorSurfacesForSamePage: a borrowing processor reports an
// evaluation error for the page that causes it, like an owning one.
func TestBorrowedErrorSurfacesForSamePage(t *testing.T) {
	PoisonBorrowedPages(t)
	div := &Arith{Op: OpDiv, L: longConst(100), R: colRef(0, types.Bigint), T: types.Bigint}
	pp := NewPageProcessor(nil, []Expr{div, colRef(0, types.Bigint)})
	pp.BorrowOutput()
	ok := block.NewPage(block.NewLongBlock([]int64{1, 2, 5}, nil))
	bad := block.NewPage(block.NewLongBlock([]int64{1, 0, 5}, nil))
	for i, c := range []struct {
		p    *block.Page
		fail bool
	}{{ok, false}, {bad, true}, {ok, false}} {
		out, err := pp.Process(c.p)
		if (err != nil) != c.fail {
			t.Fatalf("page %d: err = %v, want failure %v", i, err, c.fail)
		}
		if err == nil && fmt.Sprint(out.Col(0).Long(2)) != "20" {
			t.Fatalf("page %d: 100/5 = %d", i, out.Col(0).Long(2))
		}
	}
}

// TestRewriteDescendsIntoLambdaBodies: a lambda may capture input columns,
// and Walk visits them, so Rewrite must reach them too — remapping or
// composing projections would otherwise leave a stale column index behind.
func TestRewriteDescendsIntoLambdaBodies(t *testing.T) {
	body := &Arith{Op: OpAdd, L: &LambdaRef{I: 0, T: types.Bigint}, R: colRef(3, types.Bigint), T: types.Bigint}
	e := &Call{Args: []Expr{colRef(1, types.Array), &Lambda{NParams: 1, Body: body}}}
	got := Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*ColumnRef); ok {
			return &ColumnRef{Index: c.Index + 10, T: c.T, Name: c.Name}
		}
		return nil
	})
	if cols := Columns(got); len(cols) != 2 || cols[0] != 11 || cols[1] != 13 {
		t.Fatalf("columns after rewrite = %v, want [11 13]", cols)
	}
}
