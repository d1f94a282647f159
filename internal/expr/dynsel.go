package expr

import (
	"repro/internal/block"
	"repro/internal/dynfilter"
	"repro/internal/types"
)

// Dynamic-filter selection kernels: a runtime join-key summary attaches to the
// page processor on a probe scan as an extra vecfilter predicate, run ahead of
// the processor's own (PageProcessor.SetDynamicFilters). The kernels follow
// the same shape as the static ones in vecfilter.go — typed flat-slice loops,
// once-per-run RLE decisions, once-per-entry dictionary verdicts — with
// membership delegated to the summary's normalized-cell testers, and flat
// columns appended by predication. NULL probe keys never pass (they cannot
// match any build row, and filters only attach to join types whose output
// drops unmatched probe rows).

// SelVector is the exported name of the selection-kernel shape (vecfilter's
// selFn): another package holds the kernels and hands them to a processor
// (PageProcessor.SetDynamicFilters), which runs them.
type SelVector = selFn

// CountedSel runs sel and tells count, per page, how many rows it was given
// and how many it passed.
func CountedSel(sel SelVector, count func(in, out int)) SelVector {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		out, err := sel(in, rows, out)
		count(len(rows), len(out))
		return out, err
	}
}

// DynFilterSel builds a selection kernel testing column idx of type t
// against the summary. A disabled summary selects everything.
func DynFilterSel(idx int, t types.Type, s *dynfilter.Summary) SelVector {
	if s == nil || s.Disabled {
		return selAll
	}
	switch t {
	case types.Bigint, types.Date:
		return dynSelLong(idx, s)
	case types.Double:
		return dynSelDouble(idx, s)
	case types.Varchar:
		return dynSelStr(idx, s)
	case types.Boolean:
		return dynSelBool(idx, s)
	default:
		return selAll
	}
}

func dynSelLong(idx int, s *dynfilter.Summary) SelVector {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b := unwrapLazy(in.p.Col(idx))
		switch col := b.(type) {
		case *block.LongBlock:
			return dynSelLongs(s, col.Vals, col.Nulls, rows, out), nil
		case *block.RLEBlock:
			return selRun(!col.Val.IsNull(0) && s.MatchLong(col.Val.Long(0)), rows, out), nil
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := block.Lease[bool](in.scratch, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchLong(d.Long(k))
			}
			return selVerdicts(verdict, col.Indices, nil, rows, out), nil
		default:
			for _, r := range rows {
				if !b.IsNull(r) && s.MatchLong(b.Long(r)) {
					out = append(out, r)
				}
			}
			return out, nil
		}
	}
}

func dynSelDouble(idx int, s *dynfilter.Summary) SelVector {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b := unwrapLazy(in.p.Col(idx))
		switch col := b.(type) {
		case *block.DoubleBlock:
			return dynSelDoubles(s, col.Vals, col.Nulls, rows, out), nil
		case *block.LongBlock:
			// Bigint/Date probe column joined against a double build key.
			return dynSelLongs(s, col.Vals, col.Nulls, rows, out), nil
		case *block.RLEBlock:
			return selRun(!col.Val.IsNull(0) && s.MatchValue(col.Val.Value(0)), rows, out), nil
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := block.Lease[bool](in.scratch, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchValue(d.Value(k))
			}
			return selVerdicts(verdict, col.Indices, nil, rows, out), nil
		default:
			for _, r := range rows {
				if !b.IsNull(r) && s.MatchValue(b.Value(r)) {
					out = append(out, r)
				}
			}
			return out, nil
		}
	}
}

func dynSelStr(idx int, s *dynfilter.Summary) SelVector {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b := unwrapLazy(in.p.Col(idx))
		switch col := b.(type) {
		case *block.VarcharBlock:
			return dynSelStrs(s, col.Vals, col.Nulls, rows, out), nil
		case *block.RLEBlock:
			return selRun(!col.Val.IsNull(0) && s.MatchStr(col.Val.Str(0)), rows, out), nil
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := block.Lease[bool](in.scratch, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchStr(d.Str(k))
			}
			return selVerdicts(verdict, col.Indices, nil, rows, out), nil
		default:
			for _, r := range rows {
				if !b.IsNull(r) && s.MatchStr(b.Str(r)) {
					out = append(out, r)
				}
			}
			return out, nil
		}
	}
}

func dynSelBool(idx int, s *dynfilter.Summary) SelVector {
	return func(in *vecInput, rows, out []int) ([]int, error) {
		b := unwrapLazy(in.p.Col(idx))
		if col, ok := b.(*block.RLEBlock); ok {
			return selRun(!col.Val.IsNull(0) && s.MatchBool(col.Val.Bool(0)), rows, out), nil
		}
		for _, r := range rows {
			if !b.IsNull(r) && s.MatchBool(b.Bool(r)) {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

// dynSelLongs, dynSelDoubles and dynSelStrs append the rows r of rows whose
// non-NULL vals[r] the summary may hold, by predication: a probe filter
// passes most rows, and its test decides no branch.
func dynSelLongs(s *dynfilter.Summary, vals []int64, nulls []bool, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	if nulls == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(s.MatchLong(vals[r]))
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(!nulls[r]) & b2i(s.MatchLong(vals[r]))
		}
	}
	return out[:base+k]
}

func dynSelDoubles(s *dynfilter.Summary, vals []float64, nulls []bool, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	if nulls == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(s.MatchDouble(vals[r]))
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(!nulls[r]) & b2i(s.MatchDouble(vals[r]))
		}
	}
	return out[:base+k]
}

func dynSelStrs(s *dynfilter.Summary, vals []string, nulls []bool, rows, out []int) []int {
	base := len(out)
	buf, k := out[base:base+len(rows)], 0
	if nulls == nil {
		for _, r := range rows {
			buf[k] = r
			k += b2i(s.MatchStr(vals[r]))
		}
	} else {
		for _, r := range rows {
			buf[k] = r
			k += b2i(!nulls[r]) & b2i(s.MatchStr(vals[r]))
		}
	}
	return out[:base+k]
}
