package dynfilter

import (
	"repro/internal/block"
	"repro/internal/types"
)

// ColumnSpec names one filter a hash-join build collects: the plan-assigned
// filter id, the equi-clause index it tracks (selecting the build key
// column), and the build key type.
type ColumnSpec struct {
	ID     int
	KeyIdx int
	T      types.Type
}

// Collector turns a finished hash-join build into one summary per filter
// column. It is not goroutine-safe: the JoinBridge calls it once, under its
// own lock, on the built transition.
type Collector struct {
	MaxSet  int
	MaxRows int
	specs   []ColumnSpec
	sums    []*Summary
}

// NewCollector builds a collector for the given filter columns. maxSet/
// maxRows <= 0 pick the defaults.
func NewCollector(specs []ColumnSpec, maxSet, maxRows int) *Collector {
	if maxSet <= 0 {
		maxSet = DefaultMaxSet
	}
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	c := &Collector{MaxSet: maxSet, MaxRows: maxRows, specs: specs}
	c.sums = make([]*Summary, len(specs))
	for i, sp := range specs {
		c.sums[i] = NewSummary(sp.T)
	}
	return c
}

// Collect summarizes a build from its distinct keys, which the join's key
// table already holds: rows build rows have a non-NULL key, there are keys
// distinct key tuples, and each(visit) calls visit once per tuple with a page
// and row holding it in columns keyCols. Past MaxRows the build is too large
// for a useful probe filter and the summaries are disabled unread.
func (c *Collector) Collect(rows int64, keys int, keyCols []int, each func(visit func(p *block.Page, r int))) {
	if rows > int64(c.MaxRows) {
		c.Disable()
		return
	}
	for i, s := range c.sums {
		if c.specs[i].KeyIdx >= len(keyCols) {
			s.Disabled = true // not a key of this build: nothing to say
		}
		if len(keyCols) == 1 && keys > c.MaxSet {
			s.exact, s.Strs = nil, nil // one key column: the set is known to overflow
		}
		s.reserve(min(keys, c.MaxSet))
	}
	each(func(p *block.Page, r int) {
		for i, s := range c.sums {
			if !s.Disabled {
				s.AddValue(p.Col(keyCols[c.specs[i].KeyIdx]).Value(r), c.MaxSet)
			}
		}
	})
	for _, s := range c.sums {
		s.Rows = rows
	}
}

// Disable makes every summary filter nothing: the build spilled or is too big.
func (c *Collector) Disable() {
	for _, s := range c.sums {
		s.Disabled = true
		s.exact, s.Strs = nil, nil
	}
}

// Summaries returns the collected summaries in spec order.
func (c *Collector) Summaries() []*Summary { return c.sums }
