package expr

import (
	"testing"

	"repro/internal/block"
)

// PoisonBorrowedPages turns the poisoning of taken-back scratch vectors on
// for the rest of the test (see poisonBorrowed).
func PoisonBorrowedPages(t testing.TB) {
	was := block.PoisonScratch(true)
	t.Cleanup(func() { block.PoisonScratch(was) })
}
