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
// membership delegated to the summary's normalized-cell testers. NULL probe
// keys never pass (they cannot match any build row, and filters only attach
// to join types whose output drops unmatched probe rows).

// SelVector is the exported selection-kernel shape (vecfilter's internal
// selFn): append to out the rows of in that pass.
type SelVector = func(p *block.Page, in []int, out []int) []int

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
	return func(p *block.Page, in, out []int) []int {
		b := unwrapLazy(p.Col(idx))
		switch col := b.(type) {
		case *block.LongBlock:
			nulls := col.Nulls
			for _, r := range in {
				if nulls != nil && nulls[r] {
					continue
				}
				if s.MatchLong(col.Vals[r]) {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && s.MatchLong(col.Val.Long(0)) {
				return append(out, in...)
			}
			return out
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := make([]bool, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchLong(d.Long(k))
			}
			for _, r := range in {
				if verdict[col.Indices[r]] {
					out = append(out, r)
				}
			}
			return out
		default:
			for _, r := range in {
				if !b.IsNull(r) && s.MatchLong(b.Long(r)) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func dynSelDouble(idx int, s *dynfilter.Summary) SelVector {
	return func(p *block.Page, in, out []int) []int {
		b := unwrapLazy(p.Col(idx))
		switch col := b.(type) {
		case *block.DoubleBlock:
			nulls := col.Nulls
			for _, r := range in {
				if nulls != nil && nulls[r] {
					continue
				}
				if s.MatchDouble(col.Vals[r]) {
					out = append(out, r)
				}
			}
			return out
		case *block.LongBlock:
			// Bigint/Date probe column joined against a double build key.
			nulls := col.Nulls
			for _, r := range in {
				if nulls != nil && nulls[r] {
					continue
				}
				if s.MatchLong(col.Vals[r]) {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && s.MatchValue(col.Val.Value(0)) {
				return append(out, in...)
			}
			return out
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := make([]bool, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchValue(d.Value(k))
			}
			for _, r := range in {
				if verdict[col.Indices[r]] {
					out = append(out, r)
				}
			}
			return out
		default:
			for _, r := range in {
				if !b.IsNull(r) && s.MatchValue(b.Value(r)) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func dynSelStr(idx int, s *dynfilter.Summary) SelVector {
	return func(p *block.Page, in, out []int) []int {
		b := unwrapLazy(p.Col(idx))
		switch col := b.(type) {
		case *block.VarcharBlock:
			nulls := col.Nulls
			for _, r := range in {
				if nulls != nil && nulls[r] {
					continue
				}
				if s.MatchStr(col.Vals[r]) {
					out = append(out, r)
				}
			}
			return out
		case *block.RLEBlock:
			if !col.Val.IsNull(0) && s.MatchStr(col.Val.Str(0)) {
				return append(out, in...)
			}
			return out
		case *block.DictionaryBlock:
			d := col.Dict
			verdict := make([]bool, d.Len())
			for k := range verdict {
				verdict[k] = !d.IsNull(k) && s.MatchStr(d.Str(k))
			}
			for _, r := range in {
				if verdict[col.Indices[r]] {
					out = append(out, r)
				}
			}
			return out
		default:
			for _, r := range in {
				if !b.IsNull(r) && s.MatchStr(b.Str(r)) {
					out = append(out, r)
				}
			}
			return out
		}
	}
}

func dynSelBool(idx int, s *dynfilter.Summary) SelVector {
	return func(p *block.Page, in, out []int) []int {
		b := unwrapLazy(p.Col(idx))
		if col, ok := b.(*block.RLEBlock); ok {
			if !col.Val.IsNull(0) && s.MatchBool(col.Val.Bool(0)) {
				return append(out, in...)
			}
			return out
		}
		for _, r := range in {
			if !b.IsNull(r) && s.MatchBool(b.Bool(r)) {
				out = append(out, r)
			}
		}
		return out
	}
}
