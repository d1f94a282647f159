package orcish

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// Reader reads stripes of an orcish file as pages, skipping stripes whose
// statistics cannot match a pushed-down constraint (§V-C) and materializing
// columns lazily so untouched columns are never fetched or decoded (§V-D).
type Reader struct {
	footer  *Footer
	columns []int // projected column indices into footer.Columns
	domain  *plan.Domain
	lazy    bool

	f         dataFile
	stripe    int
	bytesRead atomic.Int64

	// Stripes skipped by their statistics and read.
	StripesSkipped int64
	StripesRead    int64
}

// OpenReader opens path projecting the named columns. domain (may be nil)
// enables stripe skipping; lazy defers column materialization.
func OpenReader(path string, columns []string, domain *plan.Domain, lazy bool) (*Reader, error) {
	footer, err := ReadFooter(path)
	if err != nil {
		return nil, err
	}
	return OpenReaderWithFooter(path, footer, columns, domain, lazy)
}

// OpenReaderWithFooter is OpenReader with an already-decoded footer (from
// the hive connector's metadata cache), skipping the per-open footer read.
// The footer is never mutated by the reader, so callers may share one
// decoded footer across concurrent readers.
func OpenReaderWithFooter(path string, footer *Footer, columns []string, domain *plan.Domain, lazy bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{footer: footer, domain: domain, lazy: lazy, f: dataFile{f, path}}
	for _, name := range columns {
		idx := footer.column(name)
		if idx < 0 {
			f.Close()
			return nil, fmt.Errorf("%s: column %q not found", path, name)
		}
		r.columns = append(r.columns, idx)
	}
	return r, nil
}

func (f *Footer) column(name string) int {
	return slices.IndexFunc(f.Columns, func(c ColumnMeta) bool { return c.Name == name })
}

// BytesRead reports physical bytes fetched (grows as lazy columns load).
func (r *Reader) BytesRead() int64 { return r.bytesRead.Load() }

// NextPage returns the next stripe as a page, or nil at end of file.
func (r *Reader) NextPage() (*block.Page, error) {
	for r.stripe < len(r.footer.Stripes) {
		info := &r.footer.Stripes[r.stripe]
		r.stripe++
		if r.domain != nil && !r.stripeMatches(info) {
			r.StripesSkipped++
			continue
		}
		r.StripesRead++
		return r.readStripe(info)
	}
	return nil, nil
}

// stripeMatches tests footer statistics against the pushed-down domain.
func (r *Reader) stripeMatches(info *StripeInfo) bool {
	for name, cd := range r.domain.Columns {
		if ci := r.footer.column(name); ci >= 0 {
			st := info.Stats[ci]
			if cd.NullAllowed && st.NullCount > 0 {
				continue
			}
			if !st.HasValues || !cd.OverlapsMinMax(st.Min, st.Max) {
				return false
			}
		}
	}
	return true
}

func (r *Reader) readStripe(info *StripeInfo) (*block.Page, error) {
	rows := int(info.Rows)
	if len(r.columns) == 0 {
		return block.NewEmptyPage(rows), nil
	}
	cols := make([]block.Block, len(r.columns))
	for i, ci := range r.columns {
		if !r.lazy {
			var err error
			if cols[i], err = r.loadColumn(info, ci, nil); err != nil {
				return nil, err
			}
			continue
		}
		// A lazy column decodes into the arena its page's scan attaches, if
		// any (block.Page.LeaseLazy): a whole page feeding an operator that
		// releases its input.
		cols[i] = block.NewLazyBlock(r.footer.Columns[ci].T, rows, func(a *block.Arena) block.Block {
			b, err := r.loadColumn(info, ci, a)
			if err != nil {
				// A substitute block would corrupt results or crash far from
				// the cause: fail the query with the real failure.
				panic(fmt.Sprintf("orcish: lazy column load: %v", err))
			}
			return b
		})
	}
	return block.NewPage(cols...), nil
}

// loadColumn fetches and decodes one column section of a stripe, leasing its
// vectors from a (nil: none). Sibling drivers may force lazy columns of one
// reader at once: each read takes its own pooled scratch, and the block it
// becomes shares none of it.
func (r *Reader) loadColumn(info *StripeInfo, ci int, a *block.Arena) (block.Block, error) {
	b, err := decodeSection(r.f, r.footer.Columns[ci].T, info, ci, a)
	if err != nil {
		return nil, fmt.Errorf("%s: column %q of the stripe at byte %d: %w", r.f.path, r.footer.Columns[ci].Name, info.Offset, err)
	}
	r.bytesRead.Add(info.ColLengths[ci])
	return b, nil
}

// decodeSection decodes column ci of a stripe: one frame of a one-column page
// holding the stripe's rows in the column's type, its vectors leased from a
// (block.DecodePageAt). A section that fails leaves a as it found it.
func decodeSection(ra io.ReaderAt, t types.Type, info *StripeInfo, ci int, a *block.Arena) (block.Block, error) {
	mark := a.Mark()
	p, err := block.DecodePageAt(ra, info.Offset+info.ColOffsets[ci], int(info.ColLengths[ci]), a)
	switch {
	case err != nil:
		return nil, err
	case p.ColCount() != 1 || int64(p.RowCount()) != info.Rows:
		err = fmt.Errorf("%w: section holds %d columns of %d rows, want 1 of %d", block.ErrCorruptPage, p.ColCount(), p.RowCount(), info.Rows)
	case p.Col(0).Type() != t && t != types.Unknown: // an untyped NULL column is stored as BOOLEAN NULLs
		err = fmt.Errorf("%w: %s section in a %s column", block.ErrCorruptPage, p.Col(0).Type(), t)
	default:
		return p.Col(0), nil
	}
	a.RewindTo(mark)
	return nil, err
}

// dataFile reads a file by offset. Its shared handle is the fast path; if it
// has already been closed — the morsel queue closes an exhausted source while
// sibling drivers still hold its pages, and a lazy column may be forced long
// after that — it reopens by path for this one read. Orcish files are
// write-once, so a fresh handle sees identical bytes.
type dataFile struct {
	*os.File
	path string
}

func (f dataFile) ReadAt(buf []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(buf, off)
	if !errors.Is(err, os.ErrClosed) {
		return n, err
	}
	g, err := os.Open(f.path)
	if err != nil {
		return 0, err
	}
	defer g.Close()
	return g.ReadAt(buf, off)
}

// Close releases the file handle.
func (r *Reader) Close() { r.f.Close() }

// FileStats aggregates footer-level statistics for the optimizer.
func FileStats(footer *Footer) (rows int64, ndv map[string]int64) {
	// Distinct counts are not stored per file; estimate from min/max for
	// integer columns, at most one a row, and report unknown otherwise.
	ndv = map[string]int64{}
	for ci, cm := range footer.Columns {
		if cm.T != types.Bigint && cm.T != types.Date {
			continue
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, s := range footer.Stripes {
			if st := s.Stats[ci]; st.HasValues {
				lo, hi = min(lo, st.Min.I), max(hi, st.Max.I)
			}
		}
		if span := hi - lo + 1; lo <= hi && span > 0 {
			ndv[cm.Name] = min(span, footer.Rows)
		}
	}
	return footer.Rows, ndv
}
