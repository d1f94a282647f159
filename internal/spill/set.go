package spill

import (
	"fmt"
	"io"

	"repro/internal/block"
)

// partitionBits is how many top bits of a key hash choose its partition.
const partitionBits = 4

// Partitions is the fan-out of every spilled operator: a spilled aggregation
// writes each group, and a spilled join each build and probe row, to one of
// this many partitions, and the drain brings them back one partition at a
// time, so its peak memory is about 1/Partitions of what spilled (§IV-F2).
const Partitions = 1 << partitionBits

// Partition is the spill partition of a key whose hash (block.HashCell and
// the rest) is h: its top four bits. The exchange routes by bits 32 and up
// mod n (block.Route) and a key table places an entry by the low bits, so
// the keys one worker or one table holds still spread over the top four.
func Partition(h uint64) int { return int(h >> (64 - partitionBits)) }

// Set is the spill files of one side of an operator — an aggregation's
// groups, a join's build or its probe rows. Pages go to a partition of the
// open file, which the first write after a Seal creates; a drain reads one
// partition's pages back across every file. A file that fails to write or to
// seal is removed and forgotten, so what the set holds is readable once
// sealed. The zero value, with Dir and Label set, is an empty set. It is not
// safe for concurrent use: its operator's lock guards it.
type Set struct {
	Dir   string // empty = OS temp dir
	Label string // in each file's name ("agg", "joinbuild", ...)

	w     *Writer // the open file, nil when sealed
	files []string
}

// WritePage appends p to the open file under partition part.
func (s *Set) WritePage(part int, p *block.Page) error {
	if s.w == nil {
		w, err := NewWriter(s.Dir, s.Label)
		if err != nil {
			return err
		}
		s.w = w
		s.files = append(s.files, w.Path())
	}
	if err := s.w.WritePage(part, p); err != nil {
		s.drop()
		return err
	}
	return nil
}

// Seal finishes the open file, if there is one, for the drain.
func (s *Set) Seal() error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Finish(); err != nil {
		s.drop()
		return err
	}
	s.w = nil
	return nil
}

// drop aborts the open file, the set's last, and forgets it.
func (s *Set) drop() {
	s.w.Abort()
	s.w = nil
	s.files = s.files[:len(s.files)-1]
}

// Empty reports whether the set holds no file.
func (s *Set) Empty() bool { return len(s.files) == 0 }

// Remove deletes every file, aborting the open one, and empties the set.
func (s *Set) Remove() {
	if s.w != nil {
		s.w.Abort()
		s.w = nil
	}
	for _, f := range s.files {
		Remove(f)
	}
	s.files = nil
}

// Pages iterates partition part of every file, in write order, once the
// set is sealed.
func (s *Set) Pages(part int) *PartIter {
	return &PartIter{files: s.files, part: part}
}

// PartIter streams the pages of one partition across a set's files, one file
// open at a time, reading only that partition's extents of each.
type PartIter struct {
	files []string
	part  int
	idx   int
	r     *Reader
}

// Next returns the partition's next page, or nil after its last.
func (it *PartIter) Next() (*block.Page, error) {
	for {
		if it.r == nil {
			if it.idx >= len(it.files) {
				return nil, nil
			}
			r, err := OpenReader(it.files[it.idx])
			if err != nil {
				return nil, fmt.Errorf("spill file %s: %w", it.files[it.idx], err)
			}
			it.r = r
		}
		p, err := it.r.NextPage(it.part)
		if err == io.EOF {
			it.r.Close()
			it.r = nil
			it.idx++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("spill file %s: %w", it.files[it.idx], err)
		}
		return p, nil
	}
}

// Close closes the file the iterator has open, if any.
func (it *PartIter) Close() {
	if it.r != nil {
		it.r.Close()
		it.r = nil
	}
}
