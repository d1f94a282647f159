package block

import (
	"slices"

	"repro/internal/types"
)

// SelectedBlock is the rows Sel of Src, in that order: its row i is Src's row
// Sel[i]. A page processor hands a hash aggregation its pass-through columns
// this way (DESIGN.md, "Who owns a page"): the rows a filter kept are read
// where they lie, a dictionary column keeps its source indices, and nothing is
// gathered. Sel is ascending; Src is a loaded block: neither lazy nor a
// SelectedBlock or a MaskedBlock. Only an aggregation is handed one, and it
// keeps nothing of its input, so Decode, CopyPositions and the codec, which
// work on what operators keep or ship, never meet one.
type SelectedBlock struct {
	Src Block
	Sel []int
}

func (b *SelectedBlock) Len() int                  { return len(b.Sel) }
func (b *SelectedBlock) Type() types.Type          { return b.Src.Type() }
func (b *SelectedBlock) IsNull(row int) bool       { return b.Src.IsNull(b.Sel[row]) }
func (b *SelectedBlock) Long(row int) int64        { return b.Src.Long(b.Sel[row]) }
func (b *SelectedBlock) Double(row int) float64    { return b.Src.Double(b.Sel[row]) }
func (b *SelectedBlock) Str(row int) string        { return b.Src.Str(b.Sel[row]) }
func (b *SelectedBlock) Bool(row int) bool         { return b.Src.Bool(b.Sel[row]) }
func (b *SelectedBlock) Value(row int) types.Value { return b.Src.Value(b.Sel[row]) }

// SizeBytes is what the selected rows would take gathered.
func (b *SelectedBlock) SizeBytes() int64 {
	if n := b.Src.Len(); n > 0 {
		return b.Src.SizeBytes() * int64(len(b.Sel)) / int64(n)
	}
	return 0
}

// Unselect returns the block a reader indexes and the selection that maps
// b's rows to its rows: a SelectedBlock's source and its selection; any other
// block itself, a lazy block loaded, and nil (row i is row i).
func Unselect(b Block) (Block, []int) {
	switch x := b.(type) {
	case *SelectedBlock:
		return x.Src, x.Sel
	case *LazyBlock:
		return x.Load(), nil
	}
	return b, nil
}

// MaskedBlock is a masked aggregate's argument (DESIGN.md, "Who owns a
// page"): Vals holds the argument at the rows Rows of the page, one value per
// entry, evaluated there only, and every other row reads Else (NULL when the
// mask has no ELSE). Read through Block it is the CASE it stands for: CASE
// WHEN mask THEN arg ELSE Else END. Rows is ascending and within [0, N).
// Like a SelectedBlock, it only ever reaches an aggregation.
type MaskedBlock struct {
	Rows []int
	Vals Block
	N    int
	Else types.Value
}

// at returns the entry of Vals that row reads, or -1 when row is outside the
// mask.
func (b *MaskedBlock) at(row int) int {
	if k, ok := slices.BinarySearch(b.Rows, row); ok {
		return k
	}
	return -1
}

func (b *MaskedBlock) Len() int         { return b.N }
func (b *MaskedBlock) Type() types.Type { return b.Vals.Type() }
func (b *MaskedBlock) IsNull(row int) bool {
	if k := b.at(row); k >= 0 {
		return b.Vals.IsNull(k)
	}
	return b.Else.Null
}
func (b *MaskedBlock) Long(row int) int64 {
	if k := b.at(row); k >= 0 {
		return b.Vals.Long(k)
	}
	return b.Else.I
}
func (b *MaskedBlock) Double(row int) float64 {
	if k := b.at(row); k >= 0 {
		return b.Vals.Double(k)
	}
	return b.Else.F
}
func (b *MaskedBlock) Str(row int) string {
	if k := b.at(row); k >= 0 {
		return b.Vals.Str(k)
	}
	return b.Else.S
}
func (b *MaskedBlock) Bool(row int) bool {
	if k := b.at(row); k >= 0 {
		return b.Vals.Bool(k)
	}
	return b.Else.B
}
func (b *MaskedBlock) Value(row int) types.Value {
	if k := b.at(row); k >= 0 {
		return b.Vals.Value(k)
	}
	return b.Else
}
func (b *MaskedBlock) SizeBytes() int64 { return b.Vals.SizeBytes() + int64(8*len(b.Rows)) }
