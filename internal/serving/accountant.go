package serving

import (
	"repro/internal/cache"
	"repro/internal/memory"
)

// NewPoolAccountant charges cached bytes (result-cache entries, page-cache
// pages) to a node memory pool as non-spillable system memory under the
// given pseudo-query owner, so every cached byte is visible to the memory
// arbiter.
func NewPoolAccountant(pool *memory.NodePool, owner string) cache.Accountant {
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
