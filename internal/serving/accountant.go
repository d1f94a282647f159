package serving

import (
	"hash/fnv"

	"repro/internal/block"
	"repro/internal/memory"
)

// Accountant charges cache bytes to an external memory budget (the worker's
// NodePool in production, nil or a test double in unit tests).
type Accountant interface {
	// Reserve charges n bytes; an error means the entry must not be admitted.
	Reserve(n int64) error
	// Release returns n previously reserved bytes.
	Release(n int64)
}

// NewPoolAccountant charges cached bytes (result-cache entries) to a node
// memory pool as non-spillable system memory under the given pseudo-query
// owner, so every cached byte is visible to the memory arbiter.
func NewPoolAccountant(pool *memory.NodePool, owner string) Accountant {
	return poolAccountant{pool: pool, owner: owner}
}

type poolAccountant struct {
	pool  *memory.NodePool
	owner string
}

func (a poolAccountant) Reserve(n int64) error {
	return a.pool.Reserve(a.owner, memory.System, n, false)
}

func (a poolAccountant) Release(n int64) {
	a.pool.Release(a.owner, memory.System, n)
}

// checksumPages computes a structural integrity checksum: page and row
// counts, per-column encoded sizes, and the first and last row values of
// each page. O(pages × columns) rather than O(cells), so verification on the
// warm path stays cheap; it is a simulation-grade integrity check, not a
// cryptographic digest.
func checksumPages(pages []*block.Page) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeInt(int64(len(pages)))
	for _, p := range pages {
		writeInt(int64(p.RowCount()))
		writeInt(int64(p.ColCount()))
		writeInt(p.SizeBytes())
		if p.RowCount() > 0 && p.ColCount() > 0 {
			for _, v := range p.Row(0) {
				h.Write([]byte(v.String()))
			}
			for _, v := range p.Row(p.RowCount() - 1) {
				h.Write([]byte(v.String()))
			}
		}
	}
	return h.Sum64()
}
