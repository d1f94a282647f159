package dynfilter

import (
	"math"

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
	// Bounded marks a summary that no row test in its task reads and that
	// does not leave the task: only split and stripe pruning does. It carries
	// its row count and bounds, and its exact set only while the build has at
	// most MaxPushdownPoints distinct keys — what pruning can push down — and
	// never a Bloom filter.
	Bounded bool
}

// Collector turns a finished hash-join build into one summary per filter
// column. It is not goroutine-safe: the JoinBridge calls it once, under its
// own lock, on the built transition.
type Collector struct {
	MaxSet  int
	MaxRows int
	// Relayed, when set, reports whether the summary of filter id leaves the
	// task: it is then collected in full even where ColumnSpec.Bounded says
	// no row test of the task reads it. Asked when the build completes.
	Relayed func(id int) bool
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

// prepare sizes the summaries for a build of rows non-NULL-key rows, keys
// distinct key tuples and nk key columns, and reports whether they are to be
// collected at all: past MaxRows the build is too large for a useful probe
// filter and the summaries are disabled unread.
func (c *Collector) prepare(rows int64, keys, nk int) bool {
	if rows > int64(c.MaxRows) {
		c.Disable()
		return false
	}
	for i, s := range c.sums {
		switch sp := c.specs[i]; {
		case sp.KeyIdx >= nk:
			s.Disabled = true // not a key of this build: nothing to say
			continue
		case sp.Bounded && keys > MaxPushdownPoints && (c.Relayed == nil || !c.Relayed(sp.ID)):
			s.exact, s.Strs = nil, nil // bounds only: no set to push down
		case nk == 1 && keys > c.MaxSet:
			s.overflow() // one key column: the set is known to overflow
		}
		s.reserve(min(keys, c.MaxSet))
		s.Rows = rows
	}
	return true
}

// Collect summarizes a build from its distinct keys, which the join's key
// table already holds: rows build rows have a non-NULL key, there are keys
// distinct key tuples, and each(visit) calls visit once per tuple with a page
// and row holding it in columns keyCols. Each key is read through its
// column's typed accessor. It serves builds whose keys the table keeps as
// byte encodings (varchar and mixed keys); CollectCells serves the others.
func (c *Collector) Collect(rows int64, keys int, keyCols []int, each func(visit func(p *block.Page, r int))) {
	if !c.prepare(rows, keys, len(keyCols)) {
		return
	}
	each(func(p *block.Page, r int) {
		for i, s := range c.sums {
			if !s.Disabled {
				s.addRow(p.Col(keyCols[c.specs[i].KeyIdx]), r, c.MaxSet)
			}
		}
	})
	for _, s := range c.sums {
		s.Rows = rows
	}
}

// Span is the smallest and largest key of a one-column build whose every
// non-NULL cell is an integer (block.CellLong), as the join's key table found
// them while choosing its addressing.
type Span struct{ Lo, Hi int64 }

// CollectCells summarizes a build from its key table's normalized cells, the
// encoding the summary's own exact set uses: entry e's key column k is the
// cell (tags[e*nk+k], cells[e*nk+k]), an entry with a NULL cell never joins,
// and distinct(visit) calls visit once per distinct key tuple with an entry
// holding it. Row count and bounds come from one pass over the cells, or from
// span when the key table has one (nil: none); the exact set, or the Bloom
// filter it overflows to, from the distinct entries, only when the summary
// keeps one.
func (c *Collector) CollectCells(rows int64, keys, nk int, cells []uint64, tags []byte, span *Span, distinct func(visit func(e int))) {
	if !c.prepare(rows, keys, nk) {
		return
	}
	for i, s := range c.sums {
		if s.Disabled {
			continue
		}
		k := c.specs[i].KeyIdx
		s.cellBounds(cells, tags, nk, k, span)
		if s.exact != nil || s.Bloom != nil {
			distinct(func(e int) { s.addMember(cell{tags[e*nk+k], cells[e*nk+k]}, c.MaxSet) })
		}
	}
}

// cellBounds sets min/max from key column k of every entry whose key has no
// NULL cell: a BIGINT/DATE cell's payload is its value, a DOUBLE's is the
// integer it equals or its bits, and a NaN poisons the bounds. BOOLEAN keys
// have none. A span, which only a one-column key has, is its integer bounds,
// and the cells are not read.
func (s *Summary) cellBounds(cells []uint64, tags []byte, nk, k int, span *Span) {
	if s.T != types.Bigint && s.T != types.Date && s.T != types.Double {
		return
	}
	// Integer cells fold as integers, the others (DOUBLE only) as floats.
	var ilo, ihi int64 = math.MaxInt64, math.MinInt64
	flo, fhi, doubles := 0.0, 0.0, false
	if span != nil {
		ilo, ihi = span.Lo, span.Hi
	}
	for base := 0; span == nil && base < len(tags); base += nk {
		switch tags[base+k] {
		case block.CellNull:
			continue
		case block.CellLong:
			if nk == 1 || !nullCell(tags[base:base+nk]) {
				v := int64(cells[base+k])
				ilo, ihi = min(ilo, v), max(ihi, v)
			}
		default:
			if nk > 1 && nullCell(tags[base:base+nk]) {
				continue
			}
			f := math.Float64frombits(cells[base+k])
			switch {
			case f != f:
				s.poisonBounds()
				return
			case !doubles:
				flo, fhi, doubles = f, f, true
			case f < flo:
				flo = f
			case f > fhi:
				fhi = f
			}
		}
	}
	if ilo <= ihi && s.T != types.Double {
		s.HasBounds, s.Min, s.Max = true, types.Value{T: s.T, I: ilo}, types.Value{T: s.T, I: ihi}
		return
	}
	if ilo <= ihi {
		if lo, hi := float64(ilo), float64(ihi); !doubles {
			flo, fhi, doubles = lo, hi, true
		} else {
			flo, fhi = math.Min(flo, lo), math.Max(fhi, hi)
		}
	}
	if doubles {
		s.HasBounds, s.Min, s.Max = true, types.DoubleValue(flo), types.DoubleValue(fhi)
	}
}

func nullCell(tags []byte) bool {
	for _, t := range tags {
		if t == block.CellNull {
			return true
		}
	}
	return false
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
