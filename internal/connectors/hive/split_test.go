package hive

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/connector"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestSplitsCutAtStripes: a file is one split per stripe (loaded writes 100
// rows in stripes of 32, 32, 32 and 4), read eagerly, lazily and under a
// constraint. The splits cover every stripe once and weigh its exact rows;
// draining them returns the file's rows (under the constraint, the rows of
// the stripes its statistics keep); the schema file CreateTable wrote yields
// no split; NextBatch(max) returns at most max, so NextBatch(1) walks the file
// one stripe at a time; and opening a split reads no footer.
func TestSplitsCutAtStripes(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		c := loaded(t, lazy)
		files, _, _, err := listDataFiles(filepath.Join(c.cfg.Dir, "t"))
		if err != nil || len(files) != 2 {
			t.Fatalf("files %v, %v: want the schema file and one data file", files, err)
		}
		var data string
		var footer *orcish.Footer
		for _, f := range files {
			ft, err := orcish.ReadFooter(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(ft.Stripes) > 0 {
				data, footer = f, ft
			}
		}
		if footer == nil || len(footer.Stripes) != 4 || footer.Rows != 100 {
			t.Fatalf("data file %q: want 4 stripes of 100 rows, footer %+v", data, footer)
		}
		for _, constrained := range []bool{false, true} {
			handle := plan.TableHandle{Catalog: "hive", Table: "t", Constraint: plan.AllDomain()}
			want := ids(0, 100)
			if constrained {
				lo := types.BigintValue(90)
				handle.Constraint.Columns["id"] = plan.RangeDomain(types.Bigint, &lo, nil, true, false)
				want = ids(64, 100) // stripes [64, 95] and [96, 99]
			}
			for _, max := range []int{1, 3, 16} {
				name := map[bool]string{false: "eager", true: "lazy"}[lazy]
				if constrained {
					name += " constrained"
				}
				splits := enumerate(t, c, handle, max, name)
				var stripes []int
				var rows int64
				for _, s := range splits {
					hs := s.(*split)
					if hs.file.path != data {
						t.Errorf("%s: a split of %s, want only %s", name, hs.file.path, data)
					}
					stripes = append(stripes, hs.stripe)
					rows += s.EstimatedRows()
				}
				if !slices.Equal(stripes, []int{0, 1, 2, 3}) || rows != footer.Rows {
					t.Errorf("%s, NextBatch(%d): splits cut stripes %v weighing %d rows, want [0 1 2 3] and %d",
						name, max, stripes, rows, footer.Rows)
				}
				before := c.MetaStats()
				if got := drain(t, c, splits, handle); !slices.Equal(got, want) {
					t.Errorf("%s, NextBatch(%d): drained ids %v, want %v", name, max, got, want)
				}
				if after := c.MetaStats(); after.Hits+after.Misses != before.Hits+before.Misses {
					t.Errorf("%s: opening splits read the footer cache (%+v → %+v)", name, before, after)
				}
			}
		}
	}
}

// enumerate drains a split source in batches of at most max, checking that
// no batch is larger and that only the last is empty.
func enumerate(t *testing.T, c *Connector, handle plan.TableHandle, max int, name string) []connector.Split {
	t.Helper()
	src, err := c.Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var out []connector.Split
	for {
		batch, err := src.NextBatch(max)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Splits) > max || len(batch.Splits) == 0 && !batch.Done {
			t.Errorf("%s: NextBatch(%d) returned %d splits, done %v", name, max, len(batch.Splits), batch.Done)
		}
		out = append(out, batch.Splits...)
		if batch.Done {
			return out
		}
	}
}

// drain reads every split and returns the ids it read, in order.
func drain(t *testing.T, c *Connector, splits []connector.Split, handle plan.TableHandle) []int64 {
	t.Helper()
	var got []int64
	for _, s := range splits {
		ps, err := c.PageSource(s, []string{"s", "id"}, handle)
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, err := ps.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			for r := range p.RowCount() {
				if p.Col(0).Str(r) != "x" {
					t.Fatalf("row %d: s = %q", r, p.Col(0).Str(r))
				}
				got = append(got, p.Col(1).Long(r))
			}
		}
		ps.Close()
	}
	return got
}

func ids(from, to int64) []int64 {
	var out []int64
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
