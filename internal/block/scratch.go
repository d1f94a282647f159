package block

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch vectors (DESIGN.md "Scratch"). The per-page temporaries of the
// engine — a kernel's operands, a selection chain's outputs, a hashing
// operator's hash, cell and id vectors, the vectors a lender hands out under
// the borrowed-page rule — belong to no kernel and no operator field. They are
// leased from an Arena, which takes all of them back at once when its owner
// moves on to its next page (Rewind, RewindTo), and hands them to one
// process-wide pool when the owner's driver finishes (Release). The next
// driver's first page then finds the vectors an earlier driver grew.
//
// Nothing reserved against a memory context, and nothing that outlives a
// driver, is leased: scratch is outside query memory accounting.

// Elem is an element type a scratch vector can hold.
type Elem interface {
	int | int32 | int64 | uint64 | float64 | bool | byte | string
}

// A pooled vector holds exactly 1<<c elements, for a size class c in
// [minClass, maxClass]. A longer request is made and left to the collector.
const (
	minClass = 6
	maxClass = 20
	numKinds = 8 // the types of Elem
)

// pools holds the idle vectors of every element kind and size class, each as
// the pointer to its slice (what a sync.Pool keeps must be a pointer, or Put
// allocates). A vector idle through two collections is dropped: that is what
// bounds the idle arrays.
var pools [numKinds][maxClass - minClass + 1]sync.Pool

// held is one vector an arena holds: the pointer to its slice (a *[]T, the
// slice at full capacity), its element kind and its size class.
type held struct {
	box   any
	kind  uint8
	class uint8
}

// arenaState is what an arena holds from its first lease to its release. It
// goes back to statePool with the vectors, so a driver's arenas reuse lists
// an earlier driver grew.
type arenaState struct {
	used []held // leased since the last rewind, in lease order
	free []held // rewound: leased again before the pool is asked, last-rewound on top
}

// statePool's lists start with room for a page's worth of leases, so that an
// arena rarely grows one; a list that does grow keeps its room in the pool.
var statePool = sync.Pool{New: func() any {
	return &arenaState{used: make([]held, 0, 32), free: make([]held, 0, 32)}
}}

// Arena lends typed scratch vectors with two lifetimes: until its owner
// rewinds it, and — the vectors themselves — until the owner's driver
// releases it. The zero Arena is ready to use; a nil *Arena lends nothing and
// Lease makes every vector. An Arena is not safe for concurrent use: it is one
// page processor's or one operator's, on its driver's goroutine.
type Arena struct {
	s *arenaState
}

// Lease returns a vector of n elements, with unspecified contents and a
// capacity of at least n, which is the caller's until the arena is rewound
// past it.
func Lease[T Elem](a *Arena, n int) []T {
	if a == nil || n <= 0 || n > 1<<maxClass {
		return make([]T, n)
	}
	k, c := kindOf[T](), uint8(max(minClass, bits.Len(uint(n-1))))
	if a.s == nil {
		a.s = statePool.Get().(*arenaState)
	}
	s := a.s
	h, ok := s.take(k, c)
	if !ok {
		h = held{box: fromPool[T](s, k, c), kind: k, class: c}
	}
	s.used = append(s.used, h)
	return (*h.box.(*[]T))[:n]
}

// take removes a rewound vector of kind k and class c from the free list.
func (s *arenaState) take(k, c uint8) (held, bool) {
	for i := len(s.free) - 1; i >= 0; i-- {
		if h := s.free[i]; h.kind == k && h.class == c {
			s.free = append(s.free[:i], s.free[i+1:]...)
			return h, true
		}
	}
	return held{}, false
}

// fromPool gets a vector of kind k and class c for s from the pool, or
// makes one.
func fromPool[T Elem](s *arenaState, k, c uint8) any {
	box := pools[k][c-minClass].Get()
	if box == nil {
		v := make([]T, 1<<c)
		box = &v
	}
	if checkLeases.Load() {
		track(box, nil, s)
	}
	return box
}

// Mark is the point RewindTo takes the arena back to: the vectors leased
// after it.
func (a *Arena) Mark() int {
	if a == nil || a.s == nil {
		return 0
	}
	return len(a.s.used)
}

// RewindTo takes back every vector leased since Mark returned m; the next
// leases reuse them.
func (a *Arena) RewindTo(m int) {
	if a == nil || a.s == nil {
		return
	}
	s := a.s
	poisoned := poison.Load()
	// Pushed last to first, so that the next page's leases, which come in this
	// page's order, find their vectors on top.
	for i := len(s.used) - 1; i >= m; i-- {
		if poisoned {
			poisonVec(s.used[i].box)
		}
		s.free = append(s.free, s.used[i])
	}
	s.used = s.used[:min(m, len(s.used))]
}

// Rewind takes back every vector the arena has lent.
func (a *Arena) Rewind() { a.RewindTo(0) }

// Release gives every vector the arena holds to the pool. Only a finishing
// driver releases (exec.Driver.finishDriver), on the goroutine that ran its
// last step: nothing leased from the arena may be read after. The arena is
// empty and ready again.
func (a *Arena) Release() {
	s := a.s
	if s == nil {
		return
	}
	a.s = nil
	for _, h := range s.used {
		toPool(s, h)
	}
	for _, h := range s.free {
		toPool(s, h)
	}
	clear(s.used)
	clear(s.free)
	s.used, s.free = s.used[:0], s.free[:0]
	statePool.Put(s)
}

// toPool gives one vector s holds back to the pool. A []string is cleared,
// so that the pool keeps no string alive.
func toPool(s *arenaState, h held) {
	if poison.Load() {
		poisonVec(h.box)
	} else if v, ok := h.box.(*[]string); ok {
		clear(*v)
	}
	if checkLeases.Load() {
		track(h.box, s, nil)
	}
	pools[h.kind][h.class-minClass].Put(h.box)
}

func kindOf[T Elem]() uint8 {
	switch any((*T)(nil)).(type) {
	case *int:
		return 0
	case *int32:
		return 1
	case *int64:
		return 2
	case *uint64:
		return 3
	case *float64:
		return 4
	case *bool:
		return 5
	case *byte:
		return 6
	default: // *string
		return 7
	}
}

// poison, when set, makes arenas overwrite every vector they take back — at a
// rewind and at a release — with values no input holds, so that whoever reads
// a vector after its lease ended computes a visibly wrong answer (or an
// index-out-of-range panic, which fails the driver) instead of a right one by
// luck. Only tests turn it on (expr.poisonBorrowed and its linker flag).
var poison atomic.Bool

// PoisonScratch turns the poisoning of taken-back scratch vectors on or off
// and reports whether it was on.
func PoisonScratch(on bool) (was bool) { return poison.Swap(on) }

// poisonVec overwrites a vector to its full capacity: integers with their
// minimum (an index that addresses nothing), floats with NaN, strings with a
// marker, and booleans with their negation.
func poisonVec(box any) {
	switch v := box.(type) {
	case *[]int:
		fill(*v, math.MinInt)
	case *[]int32:
		fill(*v, math.MinInt32)
	case *[]int64:
		fill(*v, math.MinInt64)
	case *[]uint64:
		fill(*v, math.MaxUint64)
	case *[]float64:
		fill(*v, math.NaN())
	case *[]bool:
		for i, b := range *v {
			(*v)[i] = !b
		}
	case *[]byte:
		fill(*v, 0xff)
	case *[]string:
		fill(*v, "\x00poisoned scratch")
	}
}

func fill[T any](v []T, x T) {
	for i := range v {
		v[i] = x
	}
}

// checkLeases, set by tests, makes the pool track which arena holds every
// vector it lends, and panic on a vector lent while an arena holds it, or
// given back by an arena that does not — one released twice.
var checkLeases atomic.Bool

var leases struct {
	sync.Mutex
	holder map[any]*arenaState // box → the arena state holding it; nil: pooled
}

// track moves box from holder from (nil: the pool) to holder to, and panics
// when from does not hold it.
func track(box any, from, to *arenaState) {
	leases.Lock()
	defer leases.Unlock()
	if leases.holder == nil {
		leases.holder = map[any]*arenaState{}
	}
	switch held := leases.holder[box]; {
	case from == nil && held != nil:
		panic("block: a scratch vector lent while an arena still holds it")
	case from != nil && held != from:
		panic("block: a scratch vector released twice, or by an arena that does not hold it")
	}
	leases.holder[box] = to
}
