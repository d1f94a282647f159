package expr

import "testing"

// PoisonBorrowedPages turns the borrowed-page poison on for the rest of the
// test (see poisonBorrowed).
func PoisonBorrowedPages(t testing.TB) {
	old := poisonBorrowed
	poisonBorrowed = "on"
	t.Cleanup(func() { poisonBorrowed = old })
}
