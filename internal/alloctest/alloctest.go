// Package alloctest holds what the allocation-ceiling tests share.
package alloctest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// HoldCollections turns the collector off and holds the process to one P
// (GOMAXPROCS 1) until tb ends. A ceiling measured on warm pools — a second
// driver, table or aggregation after the first one gave its vectors back —
// counts on the scratch and table pools (sync.Pool) handing those vectors out
// again when it leases, and two things break that:
//   - A collection that starts in between drops pooled vectors, and the
//     measured window then pays for fresh ones: one forced collection after a
//     warm-up driver's release takes the lazy lake scan from 0.13 to 2.9 bytes
//     a row, which a parallel go test run reaches by itself.
//   - sync.Pool's Put parks a value in the putting P's private slot, which no
//     other P's Get reaches. When the scheduler moves the test's goroutine to
//     another P between the give-back and the lease, the lease misses the
//     vector and makes one: on a loaded two-core machine that failed the
//     ceilings of a second group table, a second join build and the lazy lake
//     scan about one run in ten.
//
// Call it before the warm-up gives its vectors back; the window up to the end
// of the measurement then has no collection in it, and one P to pool on.
func HoldCollections(tb testing.TB) {
	tb.Helper()
	was := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	tb.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(was)
	})
}
