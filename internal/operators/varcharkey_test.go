package operators

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// varcharKeyPages is one page per encoding of the same thirty rows of a
// (BIGINT, VARCHAR) key — five times over the VARCHAR column "a", "", "bb",
// "a", NULL, "ccc" — flat, dictionary, selected and lazy, and an RLE page of
// (2, "bb"). A dictionary or RLE page encodes both columns so, and has more
// rows than combinations of dictionary entries, so that its keys resolve once
// per combination (resolveEncoded).
func varcharKeyPages() map[string]*block.Page {
	var longs []int64
	var strs []string
	var nulls []bool
	var idx []int32
	for range 5 {
		longs = append(longs, 1, 1, 2, 1, 1, 3)
		strs = append(strs, "a", "", "bb", "a", "", "ccc")
		nulls = append(nulls, false, false, false, false, true, false)
		idx = append(idx, 0, 1, 2, 0, 3, 4)
	}
	n := len(longs)
	flatLongs := func() block.Block { return block.NewLongBlock(longs, nil) }
	flatStrs := func() block.Block { return block.NewVarcharBlock(strs, nulls) }
	// The selected page reads every row of a longer page but its first two.
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i + 2
	}
	wideLongs := block.NewLongBlock(append([]int64{9, 9}, longs...), nil)
	wideStrs := block.NewVarcharBlock(append([]string{"x", "y"}, strs...), append([]bool{false, false}, nulls...))
	return map[string]*block.Page{
		"flat": block.NewPage(flatLongs(), flatStrs()),
		"dictionary": block.NewPage(
			block.NewDictionaryBlock(block.NewLongBlock([]int64{1, 1, 2, 1, 3}, nil), idx),
			block.NewDictionaryBlock(block.NewVarcharBlock([]string{"a", "", "bb", "", "ccc"}, []bool{false, false, false, true, false}), idx)),
		"rle":      block.NewPage(block.NewRLEBlock(types.BigintValue(2), n), block.NewRLEBlock(types.VarcharValue("bb"), n)),
		"selected": block.NewPage(&block.SelectedBlock{Src: wideLongs, Sel: sel}, &block.SelectedBlock{Src: wideStrs, Sel: sel}),
		"lazy": block.NewPage(
			block.NewLazyBlock(types.Bigint, n, func(*block.Arena) block.Block { return flatLongs() }),
			block.NewLazyBlock(types.Varchar, n, func(*block.Arena) block.Block { return flatStrs() })),
	}
}

// TestVarcharCellKeys: a VARCHAR key is a cell — its tag and a hash of its
// bytes — whose bytes the table keeps and compares when two cells are equal.
func TestVarcharCellKeys(t *testing.T) {
	varchar := []types.Type{types.Varchar}

	t.Run("equal cells, different strings", func(t *testing.T) {
		// Two strings given the same hand-built cell stay two entries, in a
		// group table and in a linked build table, and each lookup finds its own.
		cells, tags := []uint64{42}, []byte{block.CellVarchar}
		h := fixedHash(cells, tags)
		group := newKeyTable(&tableLease{}, varchar, 0)
		for want, s := range []string{"a", "b"} {
			if id, fresh := group.getOrInsert(h, cells, tags, []string{s}); id != want || !fresh {
				t.Errorf("group table: %q enters as %d (fresh %v), want a new entry %d", s, id, fresh, want)
			}
		}
		build := newKeyTable(&tableLease{}, varchar, 2)
		for _, s := range []string{"a", "b"} {
			build.cells, build.tags = append(build.cells, cells...), append(build.tags, tags...)
			build.keepStrs(tags, []string{s})
			build.n++
		}
		for e := build.n - 1; e >= 0; e-- {
			if q := build.link(e); q >= 0 {
				t.Errorf("linked table: entry %d links to %d, a different string", e, q)
			}
		}
		for want, s := range []string{"a", "b"} {
			for name, tab := range map[string]*keyTable{"group": group, "linked": build} {
				if id := tab.lookup(h, cells, tags, []string{s}); id != want {
					t.Errorf("%s table: %q found at %d, want %d", name, s, id, want)
				}
			}
		}
		if id := group.lookup(h, cells, tags, []string{"c"}); id != -1 {
			t.Errorf("a third string with the same cell found entry %d", id)
		}
	})

	pages := varcharKeyPages()
	var all []*block.Page
	for _, enc := range []string{"flat", "dictionary", "rle", "selected", "lazy"} {
		all = append(all, pages[enc])
	}
	specs := []AggSpec{{Func: plan.AggCountAll, ArgCol: -1, Out: types.Bigint}}
	for _, key := range []struct {
		cols []int
		ts   []types.Type
	}{{[]int{1}, varchar}, {[]int{0, 1}, []types.Type{types.Bigint, types.Varchar}}} {
		t.Run(fmt.Sprintf("encodings, keys %v", key.ts), func(t *testing.T) {
			// Every encoding's rows resolve to the entry of their key: one group
			// per key over all five pages, '' and NULL apart.
			ctx := NopContext()
			op := NewHashAggregation(ctx, key.cols, key.ts, specs, false, 0, 0)
			got := rowCounts(drain(t, op, all...))
			assertSameCounts(t, "grouped", got, rowCounts([]*block.Page{refAggregate(all, key.cols, key.ts, specs)}))
			if rows := ctx.Stats.Snapshot().DictRows; rows != 60 {
				t.Errorf("%d rows resolved per combination of dictionary entries, want the dictionary and RLE pages' 60", rows)
			}
			// The join's build of the flat page, probed by every encoding.
			probeTs := []types.Type{types.Bigint, types.Varchar}
			for enc, probe := range pages {
				bridge := NewJoinBridge()
				bridge.AddBuilder()
				hb := NewHashBuild(NopContext(), bridge, key.cols, key.ts)
				if err := hb.AddInput(pages["flat"]); err != nil {
					t.Fatal(err)
				}
				bridge.NoMoreBuilders()
				hb.Finish()
				bridge.AddProbe()
				op := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, key.cols, nil, probeTs, probeTs, 0)
				got := rowCounts(drain(t, op, probe))
				assertSameCounts(t, "joined, probe "+enc, got, refJoin(t, plan.InnerJoin, []*block.Page{pages["flat"]}, []*block.Page{probe}, key.cols, key.cols, nil, probeTs, probeTs))
			}
		})
	}

	t.Run("empty string against NULL", func(t *testing.T) {
		p := block.NewPage(block.NewVarcharBlock([]string{"", "", "", ""}, []bool{false, true, false, true}))
		op := NewHashAggregation(NopContext(), []int{0}, varchar, specs, false, 0, 0)
		if got := rowCounts(drain(t, op, p)); len(got) != 2 || got["|2"] != 1 || got["NULL|2"] != 1 {
			t.Errorf("'' and NULL, two rows each: groups %v, want '' and NULL apart", got)
		}
		if got := joinOnce(t, plan.InnerJoin, p, p, varchar, varchar); len(got) != 1 || got["|"] != 4 {
			t.Errorf("'' and NULL joined to themselves: %v, want the two '' rows matching each other only", got)
		}
	})

	t.Run("all-NULL first page", func(t *testing.T) {
		// The first page's key column is all NULL, typed by its block as BOOLEAN
		// or untyped; the planner's VARCHAR still keys the pages that follow.
		for _, first := range []block.Block{
			block.NewBoolBlock(make([]bool, 3), []bool{true, true, true}),
			&block.LongBlock{T: types.Unknown, Vals: make([]int64, 3), Nulls: []bool{true, true, true}},
		} {
			pages := []*block.Page{block.NewPage(first), block.NewPage(block.NewVarcharBlock([]string{"a", "b", "a", ""}, nil)),
				block.NewPage(block.NewVarcharBlock([]string{"b", "", "c"}, []bool{false, false, true}))}
			op := NewHashAggregation(NopContext(), []int{0}, varchar, specs, false, 0, 0)
			out := drain(t, op, pages...)
			assertSameCounts(t, fmt.Sprintf("after a %T", first), rowCounts(out), rowCounts([]*block.Page{refAggregate(pages, []int{0}, varchar, specs)}))
			for _, p := range out {
				if _, ok := p.Col(0).(*block.VarcharBlock); !ok {
					t.Errorf("after a %T: the key column comes back as %T", first, p.Col(0))
				}
			}
			bridge := NewJoinBridge()
			bridge.AddBuilder()
			hb := NewHashBuild(NopContext(), bridge, []int{0}, varchar)
			for _, p := range pages {
				if err := hb.AddInput(p); err != nil {
					t.Fatal(err)
				}
			}
			bridge.NoMoreBuilders()
			hb.Finish()
			bridge.AddProbe()
			probe := block.NewPage(block.NewVarcharBlock([]string{"a", "b", "", "c", "z"}, nil))
			join := NewLookupJoin(NopContext(), bridge, plan.InnerJoin, []int{0}, nil, varchar, varchar, 0)
			assertSameCounts(t, fmt.Sprintf("joined after a %T", first), rowCounts(drain(t, join, probe)),
				refJoin(t, plan.InnerJoin, pages, []*block.Page{probe}, []int{0}, []int{0}, nil, varchar, varchar))
		}
	})
}
