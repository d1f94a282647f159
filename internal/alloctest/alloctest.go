// Package alloctest holds what the allocation-ceiling tests share.
package alloctest

import (
	"runtime/debug"
	"testing"
)

// HoldCollections turns the collector off until tb ends. A ceiling measured
// on warm pools — a second driver, table or aggregation after the first one
// gave its vectors back — counts on the scratch and table pools (sync.Pool)
// still holding them when it leases. A collection that starts in between
// drops pooled vectors, and the measured window then pays for fresh ones: one
// forced collection after a warm-up driver's release takes the lazy lake scan
// from 0.13 to 2.9 bytes a row, which a parallel go test run reaches by
// itself. Call it before the warm-up gives its vectors back; the window up to
// the end of the measurement then has no collection in it.
func HoldCollections(tb testing.TB) {
	tb.Helper()
	was := debug.SetGCPercent(-1)
	tb.Cleanup(func() { debug.SetGCPercent(was) })
}
