package dynfilter

import (
	"fmt"

	"repro/internal/types"
)

// Serialization accessors: internal/wire flattens a Summary into its JSON
// task-protocol body with these, keeping the cell encoding private here.

// ExactCells returns the exact fixed-width cell set as (tag, payload) pairs,
// or nil when overflowed/varchar.
func (s *Summary) ExactCells() [][2]uint64 {
	if s.exact == nil {
		return nil
	}
	out := make([][2]uint64, 0, s.exact.n)
	s.exact.each(func(c cell) { out = append(out, [2]uint64{uint64(c.tag), c.payload}) })
	return out
}

// ExactStrs returns the exact varchar key set, or nil when overflowed or not
// a varchar summary.
func (s *Summary) ExactStrs() []string {
	if s.Strs == nil {
		return nil
	}
	out := make([]string, 0, len(s.Strs))
	for v := range s.Strs {
		out = append(out, v)
	}
	return out
}

// FromParts reassembles a summary decoded off the wire. hasExact
// distinguishes an empty exact set (matches nothing) from an overflowed one.
func FromParts(t types.Type, disabled bool, rows int64,
	hasExact bool, cells [][2]uint64, strs []string,
	bloom []uint64, hasBounds, poisoned bool, min, max types.Value) (*Summary, error) {
	s := NewSummary(t)
	s.Disabled = disabled
	if s.Disabled {
		return s, nil
	}
	if len(bloom) != bloomWords {
		return nil, fmt.Errorf("dynfilter: bloom has %d words, want %d", len(bloom), bloomWords)
	}
	s.Rows = rows
	copy(s.Bloom, bloom)
	if !hasExact {
		s.exact, s.Strs = nil, nil
	} else if s.Strs != nil {
		for _, v := range strs {
			s.Strs[v] = struct{}{}
		}
	} else if s.exact != nil {
		s.reserve(len(cells))
		for _, c := range cells {
			if c[0] == uint64(cellNull) || c[0] > 255 {
				return nil, fmt.Errorf("dynfilter: bad cell tag %d", c[0])
			}
			s.exact.add(cell{byte(c[0]), c[1]})
		}
	}
	s.HasBounds, s.BoundsPoisoned = hasBounds, poisoned
	if hasBounds {
		s.Min, s.Max = min, max
	}
	return s, nil
}

// HasExact reports whether the summary still carries its exact key set.
func (s *Summary) HasExact() bool { return s.exact != nil || s.Strs != nil }
