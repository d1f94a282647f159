package memory

import (
	"errors"
	"testing"
)

// orderedRevocable is a revocable memory holder that records when it is asked
// to spill.
type orderedRevocable struct {
	pool    *NodePool
	query   string
	held    int64
	nanos   int64
	revokes int
	log     *[]string
	name    string
}

func (f *orderedRevocable) RevocableBytes() int64 { return f.held }
func (f *orderedRevocable) ExecutionNanos() int64 { return f.nanos }
func (f *orderedRevocable) Revoke() (int64, error) {
	n := f.held
	f.held = 0
	f.revokes++
	if f.log != nil {
		*f.log = append(*f.log, f.name)
	}
	if f.pool != nil && n > 0 {
		f.pool.Release(f.query, User, n)
	}
	return n, nil
}

// TestSpillDisabledReserveFailsClean locks in the spill-disabled contract:
// with spilling off, operator memory is never revoked and exhaustion
// surfaces as the §IV-F2 exceeded-limit error.
func TestSpillDisabledReserveFailsClean(t *testing.T) {
	pool := NewNodePool(1000, 0)
	op := &orderedRevocable{pool: pool, query: "q1", held: 900}
	if err := pool.Reserve("q1", User, 900, false); err != nil {
		t.Fatal(err)
	}
	pool.RegisterRevocable("q1", op)

	err := pool.Reserve("q2", User, 500, false)
	if !errors.Is(err, ErrExceededLimit) {
		t.Fatalf("spill-disabled exhaustion: %v, want ErrExceededLimit", err)
	}
	if op.revokes != 0 {
		t.Fatalf("operator spilled %d times with spilling disabled", op.revokes)
	}

	// The same reservation succeeds when spilling is enabled.
	if err := pool.Reserve("q2", User, 500, true); err != nil {
		t.Fatal(err)
	}
	if op.revokes != 1 {
		t.Fatalf("operator spilled %d times, want 1", op.revokes)
	}
}
