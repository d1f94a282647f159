package connector

import (
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// fuzzValue draws one non-null value of t from b, a few values wide so that
// domains and batches meet often; doubles include -0, NaN and the infinities.
func fuzzValue(t types.Type, b byte) types.Value {
	switch t {
	case types.Double:
		switch b % 16 {
		case 12:
			return types.DoubleValue(math.NaN())
		case 13:
			return types.DoubleValue(math.Copysign(0, -1))
		case 14:
			return types.DoubleValue(math.Inf(1))
		case 15:
			return types.DoubleValue(math.Inf(-1))
		}
		return types.DoubleValue(float64(b%12)/2 - 2)
	case types.Varchar:
		return types.VarcharValue(string([]byte{'a' + b%4, 'a' + b/4%3}[:1+b/12%2]))
	}
	return types.BigintValue(int64(b%12) - 4)
}

// fuzzDomain builds a column domain of t from spec: points, or ranges whose
// bounds may be open, closed or missing, and whether NULL is allowed. A
// domain over a BIGINT column may hold DOUBLE bounds, as a comparison with a
// fractional literal gives.
func fuzzDomain(t types.Type, spec []byte) *plan.ColumnDomain {
	if len(spec) == 0 {
		return &plan.ColumnDomain{T: t}
	}
	cd := &plan.ColumnDomain{T: t, NullAllowed: spec[0]&1 != 0}
	points := spec[0]&2 != 0
	vt := t
	if t == types.Bigint && spec[0]&4 != 0 {
		vt = types.Double
	}
	spec = spec[1:]
	for len(spec) >= 2 && len(cd.Points)+len(cd.Ranges) < 4 {
		lo, hi := fuzzValue(vt, spec[0]), fuzzValue(vt, spec[1])
		if points {
			cd.Points = append(cd.Points, lo)
			spec = spec[2:]
			continue
		}
		flags := byte(0)
		if len(spec) >= 3 {
			flags = spec[2]
		}
		r := plan.Range{LoClosed: flags&1 != 0, HiClosed: flags&2 != 0}
		if flags&4 == 0 {
			r.Lo = &lo
		}
		if flags&8 == 0 {
			r.Hi = &hi
		}
		cd.Ranges = append(cd.Ranges, r)
		spec = spec[min(3, len(spec)):]
	}
	return cd
}

// fuzzPages builds an appended batch of one column of t over one or two
// pages: each byte a row, a NULL when its top bit is set.
func fuzzPages(t types.Type, rows []byte) ([]*block.Page, []types.Value) {
	var pages []*block.Page
	var vals []types.Value
	for len(rows) > 0 {
		n := min(len(rows), 1+int(rows[0]%5))
		b := block.NewPageBuilder([]types.Type{t})
		for _, r := range rows[:n] {
			v := types.NullValue(t)
			if r&0x80 == 0 {
				v = fuzzValue(t, r)
			}
			b.AppendRow([]types.Value{v})
			vals = append(vals, v)
		}
		pages = append(pages, b.Build())
		rows = rows[n:]
	}
	return pages, vals
}

// FuzzAppendDisjoint: whenever an appended batch's summary says it is
// disjoint from a domain, no row of the batch satisfies the domain.
func FuzzAppendDisjoint(f *testing.F) {
	f.Add(uint8(0), []byte{2, 3, 3}, []byte{1, 2, 0x80})
	f.Add(uint8(0), []byte{1, 0, 5, 3}, []byte{7, 9})
	f.Add(uint8(1), []byte{0, 2, 8, 1}, []byte{12, 3})
	f.Add(uint8(1), []byte{3, 13, 13}, []byte{6, 4})
	f.Add(uint8(2), []byte{0, 1, 9, 2}, []byte{0, 17, 0x81})
	f.Add(uint8(0), []byte{6, 5, 5}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, typ uint8, domSpec, rows []byte) {
		ct := []types.Type{types.Bigint, types.Double, types.Varchar}[int(typ)%3]
		cd := fuzzDomain(ct, domSpec)
		pages, vals := fuzzPages(ct, rows)
		s := SummarizeAppend([]Column{{Name: "c", T: ct}}, pages)
		if s.Rows != int64(len(vals)) {
			t.Fatalf("summary counts %d rows, batch has %d", s.Rows, len(vals))
		}
		if !s.Disjoint(&plan.Domain{Columns: map[string]*plan.ColumnDomain{"c": cd}}) {
			return
		}
		for _, v := range vals {
			if cd.Contains(v) {
				t.Fatalf("summary %+v called the batch disjoint from %s, but %v satisfies it", s.Columns[0], cd, v)
			}
		}
	})
}

// TestAppendSummaryDisjoint: the cases a cached result's scans meet.
func TestAppendSummaryDisjoint(t *testing.T) {
	cols := []Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Bigint}}
	row := func(k types.Value) *AppendSummary {
		b := block.NewPageBuilder([]types.Type{types.Bigint, types.Bigint})
		b.AppendRow([]types.Value{k, types.BigintValue(1)})
		return SummarizeAppend(cols, []*block.Page{b.Build()})
	}
	point := func(k int64, nulls bool) *plan.Domain {
		cd := plan.PointDomain(types.Bigint, types.BigintValue(k))
		cd.NullAllowed = nulls
		return &plan.Domain{Columns: map[string]*plan.ColumnDomain{"k": cd}}
	}
	for _, c := range []struct {
		name string
		s    *AppendSummary
		d    *plan.Domain
		want bool
	}{
		{"another key", row(types.BigintValue(4)), point(3, false), true},
		{"the same key", row(types.BigintValue(3)), point(3, false), false},
		{"a NULL key, NULL not allowed", row(types.NullValue(types.Bigint)), point(3, false), true},
		{"a NULL key, NULL allowed", row(types.NullValue(types.Bigint)), point(3, true), false},
		{"an unconstrained scan", row(types.BigintValue(4)), nil, false},
		{"a column the batch does not have", row(types.BigintValue(4)),
			&plan.Domain{Columns: map[string]*plan.ColumnDomain{"x": plan.PointDomain(types.Bigint, types.BigintValue(3))}}, false},
		{"an empty batch", SummarizeAppend(cols, nil), nil, true},
	} {
		if got := c.s.Disjoint(c.d); got != c.want {
			t.Errorf("%s: Disjoint = %v, want %v", c.name, got, c.want)
		}
	}
}
