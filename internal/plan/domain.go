package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/types"
)

// Domain is the connector-evaluable form of pushed-down predicates
// (paper §IV-C2): a conjunction of per-column value ranges and point sets.
// Connectors use it to prune partitions, skip file sections via min/max
// statistics, select indexed layouts, and — in the sharded-SQL connector —
// route to individual shards.
type Domain struct {
	// Columns maps connector column name to its allowed values.
	Columns map[string]*ColumnDomain
}

// ColumnDomain constrains a single column.
type ColumnDomain struct {
	T types.Type
	// Points is a discrete IN-list (nil when Ranges are used).
	Points []types.Value
	// Ranges is a union of ordered ranges (nil when Points are used).
	Ranges []Range
	// NullAllowed reports whether NULL satisfies the constraint. A point
	// set that admits NULL holds a NULL point (col IS NULL), which no value
	// equals; a lone NULL point that does not admit NULL is the empty set
	// (col = 1 AND col = 3).
	NullAllowed bool

	// Slots is aligned with Points: the plan-cache slot each point's literal
	// was lifted into (nil when none was). valueShaped marks a domain whose
	// shape the values of lifted literals decided (an intersection of two
	// different lifted constraints): binding other values into it could
	// prune rows they select, so a plan holding one is not a template.
	Slots       []int
	valueShaped bool
}

// Range is a contiguous value interval. Unbounded ends are nil.
type Range struct {
	Lo, Hi             *types.Value
	LoClosed, HiClosed bool
	// LoSlot and HiSlot are the plan-cache slots of lifted bounds (0: none).
	LoSlot, HiSlot int
}

// AllDomain returns the unconstrained domain.
func AllDomain() *Domain { return &Domain{Columns: map[string]*ColumnDomain{}} }

// All reports whether the domain permits everything.
func (d *Domain) All() bool { return d == nil || len(d.Columns) == 0 }

// Names lists the columns the domain constrains, sorted.
func (d *Domain) Names() []string {
	if d.All() {
		return nil
	}
	names := make([]string, 0, len(d.Columns))
	for n := range d.Columns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the domain for EXPLAIN.
func (d *Domain) String() string {
	if d.All() {
		return "ALL"
	}
	names := d.Names()
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+":"+d.Columns[n].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// String renders the column constraint.
func (c *ColumnDomain) String() string {
	if len(c.Points) > 0 {
		parts := make([]string, 0, len(c.Points))
		for _, v := range c.Points {
			if !v.Null {
				parts = append(parts, literal(v))
			}
		}
		if c.NullAllowed {
			parts = append(parts, "NULL")
		}
		return "IN(" + strings.Join(parts, ",") + ")"
	}
	parts := make([]string, len(c.Ranges))
	for i, r := range c.Ranges {
		lo, hi := "-inf", "+inf"
		lb, hb := "(", ")"
		if r.Lo != nil {
			lo = literal(*r.Lo)
			if r.LoClosed {
				lb = "["
			}
		}
		if r.Hi != nil {
			hi = literal(*r.Hi)
			if r.HiClosed {
				hb = "]"
			}
		}
		parts[i] = fmt.Sprintf("%s%s,%s%s", lb, lo, hi, hb)
	}
	return strings.Join(parts, "∪")
}

// literal renders a constraint's value: a VARCHAR quoted as SQL writes it, so
// that no two constraints render alike — not 'NULL' and NULL, nor the empty
// string and no value.
func literal(v types.Value) string {
	if v.T == types.Varchar && !v.Null {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// Contains reports whether value v satisfies the column constraint.
func (c *ColumnDomain) Contains(v types.Value) bool {
	if v.Null {
		return c.NullAllowed
	}
	if len(c.Points) > 0 {
		for _, p := range c.Points {
			if v.Equal(p) {
				return true
			}
		}
		return false
	}
	for _, r := range c.Ranges {
		if r.Contains(v) {
			return true
		}
	}
	return len(c.Ranges) == 0
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v types.Value) bool {
	if r.Lo != nil {
		c := v.Compare(*r.Lo)
		if c < 0 || (c == 0 && !r.LoClosed) {
			return false
		}
	}
	if r.Hi != nil {
		c := v.Compare(*r.Hi)
		if c > 0 || (c == 0 && !r.HiClosed) {
			return false
		}
	}
	return true
}

// OverlapsMinMax reports whether any value in [min, max] could satisfy the
// constraint — the test used against file/stripe statistics.
func (c *ColumnDomain) OverlapsMinMax(min, max types.Value) bool {
	if min.Null || max.Null {
		return true
	}
	if len(c.Points) > 0 {
		for _, p := range c.Points {
			if !p.Null && p.Compare(min) >= 0 && p.Compare(max) <= 0 {
				return true
			}
		}
		return false
	}
	for _, r := range c.Ranges {
		loOK := r.Lo == nil || max.Compare(*r.Lo) > 0 || (max.Compare(*r.Lo) == 0 && r.LoClosed)
		hiOK := r.Hi == nil || min.Compare(*r.Hi) < 0 || (min.Compare(*r.Hi) == 0 && r.HiClosed)
		if loOK && hiOK {
			return true
		}
	}
	return len(c.Ranges) == 0
}

// Intersect merges another constraint for the same column (conjunction).
// Point sets intersect; a point set intersected with ranges filters the
// points; range unions intersect pairwise. The operation is idempotent
// (d ∩ d = d), which the optimizer's fixpoint loop relies on.
//
// A constraint met again (the optimizer re-derives pushed predicates) is
// returned as it is, so an empty range keeps the bounds it was written with.
// Over lifted literals, only that and a lower bound joined to an upper one do
// not depend on the literals' values: any other intersection that involves
// one is marked value-shaped.
func (c *ColumnDomain) Intersect(o *ColumnDomain) *ColumnDomain {
	if c.sameAs(o) {
		return c
	}
	if c.lifted() || o.lifted() {
		if out, ok := c.joinBounds(o); ok {
			return out
		}
		out := c.intersect(o)
		out.Slots, out.valueShaped = nil, true
		for i := range out.Ranges {
			out.Ranges[i].LoSlot, out.Ranges[i].HiSlot = 0, 0
		}
		return out
	}
	return c.intersect(o)
}

func (c *ColumnDomain) intersect(o *ColumnDomain) *ColumnDomain {
	out := &ColumnDomain{T: c.T, NullAllowed: c.NullAllowed && o.NullAllowed}
	if len(c.Points) == 0 && len(o.Points) > 0 {
		c, o = o, c
	}
	switch {
	case len(c.Points) > 0:
		for i, p := range c.Points {
			if o.Contains(p) {
				out.AddPoint(p, c.slotOf(i))
			}
		}
		if len(out.Points) == 0 {
			// No point survives: the empty set, not the unconstrained one.
			out.AddPoint(types.NullValue(out.T), 0)
		}
	case len(c.Ranges) == 0:
		out.Ranges = append([]Range{}, o.Ranges...)
	case len(o.Ranges) == 0:
		out.Ranges = append([]Range{}, c.Ranges...)
	default:
		seen := map[string]bool{}
		for _, a := range c.Ranges {
			for _, b := range o.Ranges {
				if r, ok := a.intersect(b); ok {
					key := r.key()
					if !seen[key] {
						seen[key] = true
						out.Ranges = append(out.Ranges, r)
					}
				}
			}
		}
		if len(out.Ranges) == 0 {
			// No range overlaps: the empty set too, the lone NULL point
			// (which admits no NULL unless both sides do).
			out.AddPoint(types.NullValue(out.T), 0)
		}
	}
	return out
}

// intersect tightens two ranges; ok is false when they do not overlap.
func (r Range) intersect(o Range) (Range, bool) {
	out := Range{Lo: r.Lo, LoClosed: r.LoClosed, Hi: r.Hi, HiClosed: r.HiClosed}
	if o.Lo != nil {
		if out.Lo == nil {
			out.Lo, out.LoClosed = o.Lo, o.LoClosed
		} else {
			c := o.Lo.Compare(*out.Lo)
			if c > 0 || (c == 0 && !o.LoClosed) {
				out.Lo, out.LoClosed = o.Lo, o.LoClosed
			}
		}
	}
	if o.Hi != nil {
		if out.Hi == nil {
			out.Hi, out.HiClosed = o.Hi, o.HiClosed
		} else {
			c := o.Hi.Compare(*out.Hi)
			if c < 0 || (c == 0 && !o.HiClosed) {
				out.Hi, out.HiClosed = o.Hi, o.HiClosed
			}
		}
	}
	if out.Lo != nil && out.Hi != nil {
		c := out.Lo.Compare(*out.Hi)
		if c > 0 || (c == 0 && !(out.LoClosed && out.HiClosed)) {
			return Range{}, false
		}
	}
	return out, true
}

func (r Range) key() string {
	lo, hi := "-inf", "+inf"
	if r.Lo != nil {
		lo = r.Lo.String()
	}
	if r.Hi != nil {
		hi = r.Hi.String()
	}
	return fmt.Sprintf("%s|%v|%s|%v", lo, r.LoClosed, hi, r.HiClosed)
}

// Intersect conjoins two domains.
func (d *Domain) Intersect(o *Domain) *Domain {
	if d.All() {
		return o
	}
	if o.All() {
		return d
	}
	out := AllDomain()
	for n, c := range d.Columns {
		out.Columns[n] = c
	}
	for n, c := range o.Columns {
		if prev, ok := out.Columns[n]; ok {
			out.Columns[n] = prev.Intersect(c)
		} else {
			out.Columns[n] = c
		}
	}
	return out
}

// PointDomain builds a single-point column constraint.
func PointDomain(t types.Type, v types.Value) *ColumnDomain {
	return &ColumnDomain{T: t, Points: []types.Value{v}}
}

// RangeDomain builds a single-range column constraint.
func RangeDomain(t types.Type, lo, hi *types.Value, loClosed, hiClosed bool) *ColumnDomain {
	return &ColumnDomain{T: t, Ranges: []Range{{Lo: lo, Hi: hi, LoClosed: loClosed, HiClosed: hiClosed}}}
}

// WithSlots records the plan-cache slots of a single-range or single-point
// domain's literals (0: not lifted): lo is the point's or the lower bound's,
// hi the upper bound's. It returns c.
func (c *ColumnDomain) WithSlots(lo, hi int) *ColumnDomain {
	switch {
	case len(c.Points) == 1 && lo > 0:
		c.Slots = []int{lo}
	case len(c.Ranges) == 1:
		c.Ranges[0].LoSlot, c.Ranges[0].HiSlot = lo, hi
	}
	return c
}

// AddPoint appends v to the point set; slot is the plan-cache slot of its
// literal (0: not lifted).
func (c *ColumnDomain) AddPoint(v types.Value, slot int) {
	if slot > 0 && c.Slots == nil {
		c.Slots = make([]int, len(c.Points), cap(c.Points)+1)
	}
	c.Points = append(c.Points, v)
	if c.Slots != nil {
		c.Slots = append(c.Slots, slot)
	}
}

func (c *ColumnDomain) slotOf(i int) int {
	if c.Slots == nil {
		return 0
	}
	return c.Slots[i]
}

// lifted reports whether a lifted literal is among the domain's values, or
// decided its shape.
func (c *ColumnDomain) lifted() bool {
	if c.valueShaped || slices.ContainsFunc(c.Slots, func(s int) bool { return s > 0 }) {
		return true
	}
	return slices.ContainsFunc(c.Ranges, func(r Range) bool { return r.LoSlot > 0 || r.HiSlot > 0 })
}

// sameAs reports that o is c again: the same values from the same slots.
func (c *ColumnDomain) sameAs(o *ColumnDomain) bool {
	if c.T != o.T || c.NullAllowed != o.NullAllowed || c.valueShaped || o.valueShaped ||
		len(c.Points) != len(o.Points) || len(c.Ranges) != len(o.Ranges) {
		return false
	}
	for i, p := range c.Points {
		q := o.Points[i]
		if p.Null != q.Null || !p.Null && !p.Equal(q) || c.slotOf(i) != o.slotOf(i) {
			return false
		}
	}
	for i, r := range c.Ranges {
		q := o.Ranges[i]
		if r.key() != q.key() || r.LoSlot != q.LoSlot || r.HiSlot != q.HiSlot {
			return false
		}
	}
	return true
}

// joinBounds intersects a lone lower bound with a lone upper bound, the one
// intersection of lifted constraints whose shape no value decides. ok is
// false for any other pair, and for bounds that do not overlap.
func (c *ColumnDomain) joinBounds(o *ColumnDomain) (*ColumnDomain, bool) {
	lone := func(d *ColumnDomain) (Range, bool) {
		if d.valueShaped || len(d.Points) > 0 || len(d.Ranges) != 1 {
			return Range{}, false
		}
		return d.Ranges[0], true
	}
	a, aok := lone(c)
	b, bok := lone(o)
	if !aok || !bok {
		return nil, false
	}
	if a.Lo == nil && b.Hi == nil {
		a, b = b, a
	}
	if a.Lo == nil || a.Hi != nil || b.Lo != nil || b.Hi == nil {
		return nil, false
	}
	r := Range{Lo: a.Lo, LoClosed: a.LoClosed, LoSlot: a.LoSlot, Hi: b.Hi, HiClosed: b.HiClosed, HiSlot: b.HiSlot}
	if cmp := r.Lo.Compare(*r.Hi); cmp > 0 || (cmp == 0 && !(r.LoClosed && r.HiClosed)) {
		return nil, false
	}
	return &ColumnDomain{T: c.T, NullAllowed: c.NullAllowed && o.NullAllowed, Ranges: []Range{r}}, true
}
