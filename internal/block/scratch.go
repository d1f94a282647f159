package block

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// Scratch vectors (DESIGN.md "Scratch"). The per-page temporaries of the
// engine — a kernel's operands, a selection chain's outputs, a hashing
// operator's hash, cell and id vectors, the vectors a lender hands out under
// the borrowed-page rule — belong to no kernel and no operator field. They are
// leased from an Arena, which takes all of them back at once when its owner
// moves on to its next page (Rewind, RewindTo), and hands them to one
// process-wide pool when the owner's driver finishes (Release). The next
// driver's first page then finds the vectors an earlier driver grew. Arena
// scratch is outside query memory accounting.
//
// Hash tables have a second lifetime (LeaseTable, ReturnTable): a group
// table or a join index leases its arrays — through its
// operator's memory context, which counts them (memory.Lease) — when it is
// built, presized or grown, and gives one back when it outgrows it or its
// operator drops the table: an aggregation once its groups are copied out or
// spilled or at Close, a join index once the last probe has
// ended or the build is revoked. A table array comes in a size class, sixteen
// to an octave (at most 4.4 % over the request; a doubled class length is
// one), and TableCap is the capacity a request rounds to. A vector under
// minTableLen elements is made as asked; only an array whose capacity is a
// class length goes back to the pool.

// Elem is an element type a scratch vector can hold.
type Elem interface {
	int | int32 | int64 | uint64 | float64 | bool | byte | string | uint32
}

// TableElem is an element type a table vector can hold: a scratch vector's,
// or the boxed value an array-typed group key or min/max state keeps.
type TableElem interface {
	Elem | types.Value
}

// A pooled vector holds exactly 1<<c elements, for a size class c in
// [minClass, maxClass]. A longer request is made and left to the collector.
const (
	minClass = 6
	maxClass = 20
	numKinds = 10 // the types of TableElem
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

func kindOf[T TableElem]() uint8 {
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
	case *string:
		return 7
	case *types.Value:
		return 9
	default: // *uint32
		return 8
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
		poisonSlice(*v)
	case *[]int32:
		poisonSlice(*v)
	case *[]int64:
		poisonSlice(*v)
	case *[]uint64:
		poisonSlice(*v)
	case *[]float64:
		poisonSlice(*v)
	case *[]bool:
		poisonSlice(*v)
	case *[]byte:
		poisonSlice(*v)
	case *[]string:
		poisonSlice(*v)
	case *[]uint32:
		poisonSlice(*v)
	}
}

// poisonSlice is poisonVec over v's length. It converts nothing to an
// interface, so it allocates nothing.
func poisonSlice[T TableElem](v []T) {
	p, n := unsafe.Pointer(unsafe.SliceData(v)), len(v)
	switch any((*T)(nil)).(type) {
	case *int:
		fill(unsafe.Slice((*int)(p), n), math.MinInt)
	case *int32:
		fill(unsafe.Slice((*int32)(p), n), math.MinInt32)
	case *int64:
		fill(unsafe.Slice((*int64)(p), n), math.MinInt64)
	case *uint64:
		fill(unsafe.Slice((*uint64)(p), n), math.MaxUint64)
	case *uint32:
		fill(unsafe.Slice((*uint32)(p), n), math.MaxUint32)
	case *float64:
		fill(unsafe.Slice((*float64)(p), n), math.NaN())
	case *bool:
		b := unsafe.Slice((*bool)(p), n)
		for i := range b {
			b[i] = !b[i]
		}
	case *byte:
		fill(unsafe.Slice((*byte)(p), n), 0xff)
	case *string:
		fill(unsafe.Slice((*string)(p), n), "\x00poisoned scratch")
	case *types.Value:
		fill(unsafe.Slice((*types.Value)(p), n), types.Value{T: types.Varchar, S: "\x00poisoned scratch"})
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
	holder map[any]*arenaState     // box → the arena state holding it; nil: pooled
	pooled map[unsafe.Pointer]bool // a table vector's array → idle in the pool
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

// Table vectors: the size classes run from minTableLen to maxTableLen
// elements, tableClassesPerOctave to an octave. Class j of the first octave is
// minTableLen times 2^(j/16), rounded up, and every class doubles the one an
// octave below, so that a table array that doubles from a class length lands
// on one. A vector under minTableLen is made exactly as asked: a small table
// costs little to make, and its bytes follow its size to the element.
const (
	minTableBits          = 12
	maxTableBits          = 27
	minTableLen           = 1 << minTableBits
	maxTableLen           = 1 << maxTableBits
	tableClassesPerOctave = 16
	numTableClasses       = (maxTableBits-minTableBits)*tableClassesPerOctave + 1
)

// tableLens is the length of every size class, ascending.
var tableLens = func() (lens [numTableClasses]int) {
	for c := range lens {
		octave, j := c/tableClassesPerOctave, c%tableClassesPerOctave
		lens[c] = int(math.Ceil(minTableLen*math.Exp2(float64(j)/tableClassesPerOctave))) << octave
	}
	return lens
}()

// tablePools holds the idle table vectors of every element kind and size
// class, each as the pointer to its first element: the class gives its
// length back, so nothing is boxed on the way in or out. As with the arena
// pool, a vector idle through two collections is dropped.
var tablePools [numKinds][numTableClasses]sync.Pool

// tableClass is the size class of a vector of capacity n, and false when n
// is under or over every class.
func tableClass(n int) (int, bool) {
	if n < minTableLen || n > maxTableLen {
		return 0, false
	}
	return sort.SearchInts(tableLens[:], n), true
}

// TableCap is the capacity LeaseTable gives a vector asked to hold n
// elements: the class length n rounds up to, or n itself outside the classes.
// A table that reserves its arrays before it leases them rounds each through
// TableCap, so that what it reserves is what it then holds.
func TableCap(n int) int {
	if c, ok := tableClass(n); ok {
		return tableLens[c]
	}
	return n
}

// LeaseTable returns a zeroed vector of length n and capacity
// TableCap(max(n, c)), from the pool when it holds one of that class, else
// made. It is the table's until ReturnTable takes it back.
func LeaseTable[T TableElem](n, c int) []T {
	c = max(c, n)
	cl, ok := tableClass(c)
	if !ok {
		return make([]T, n, c)
	}
	l := tableLens[cl]
	x := tablePools[kindOf[T]()][cl].Get()
	if x == nil {
		return make([]T, n, l)
	}
	p := x.(unsafe.Pointer)
	if checkLeases.Load() {
		trackTable(p, false)
	}
	v := unsafe.Slice((*T)(p), l)
	clear(v) // extend relies on zeros past the length
	return v[:n]
}

// ReturnTable gives back a table vector nothing reads again. A vector whose
// capacity is a class length goes to the pool — poisoned when the poison is
// on, and a []string or []types.Value cleared so that the pool keeps nothing
// alive — and any other is left to the collector.
func ReturnTable[T TableElem](v []T) {
	cl, ok := tableClass(cap(v))
	if !ok || tableLens[cl] != cap(v) {
		return
	}
	v = v[:cap(v)]
	if poison.Load() {
		poisonSlice(v)
	} else {
		switch any((*T)(nil)).(type) {
		case *string, *types.Value:
			clear(v)
		}
	}
	p := unsafe.Pointer(unsafe.SliceData(v))
	if checkLeases.Load() {
		trackTable(p, true)
	}
	tablePools[kindOf[T]()][cl].Put(p)
}

// trackTable records a table vector's array going to the pool (idle) or
// leaving it, and panics on one given back while the pool already holds it.
func trackTable(p unsafe.Pointer, idle bool) {
	leases.Lock()
	defer leases.Unlock()
	if leases.pooled == nil {
		leases.pooled = map[unsafe.Pointer]bool{}
	}
	if idle && leases.pooled[p] {
		panic("block: a table vector given back twice")
	}
	if idle {
		leases.pooled[p] = true
	} else {
		delete(leases.pooled, p)
	}
}
