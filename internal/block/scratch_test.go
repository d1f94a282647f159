package block

import (
	"math"
	"testing"
	"unsafe"
)

// TestArenaLeases: a lease is the caller's until the arena is rewound past it,
// and a rewound vector is what the next lease of its kind and size class gets;
// RewindTo takes back only what was leased after the mark.
func TestArenaLeases(t *testing.T) {
	var a Arena
	defer a.Release()
	v := Lease[int64](&a, 100)
	if len(v) != 100 || cap(v) != 128 {
		t.Fatalf("leased %d of capacity %d, want 100 of 128", len(v), cap(v))
	}
	m := a.Mark()
	w := Lease[float64](&a, 5000)
	a.RewindTo(m)
	if w2 := Lease[float64](&a, 4097); &w2[0] != &w[0] {
		t.Error("a vector rewound past its mark is not what the next lease of its class gets")
	}
	if v2 := Lease[int64](&a, 100); &v2[0] == &v[0] {
		t.Error("a vector leased before the mark was lent twice")
	}
	a.Rewind()
	if v3 := Lease[int64](&a, 90); &v3[0] != &v[0] {
		t.Error("a rewound vector is not reused")
	}
	if s := Lease[string](&a, 1<<maxClass+1); len(s) != 1<<maxClass+1 {
		t.Errorf("an oversized lease has %d elements", len(s))
	}
	if n := Lease[int](nil, 10); len(n) != 10 {
		t.Errorf("a nil arena made %d elements, want 10", len(n))
	}
}

// TestArenaWarmLeasesAllocateNothing: once an arena holds what a page leases,
// a page leases it again for nothing, and a released arena's vectors are what
// a fresh arena leases next.
func TestArenaWarmLeasesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates, and drops pooled vectors")
	}
	var a Arena
	page := func() {
		a.Rewind()
		Lease[int](&a, 4096)
		Lease[int32](&a, 4096)
		Lease[int64](&a, 300)
		Lease[uint64](&a, 4096)
		Lease[float64](&a, 1)
		Lease[bool](&a, 4096)
		Lease[byte](&a, 4096)
		Lease[string](&a, 4096)
	}
	page()
	if allocs := testing.AllocsPerRun(100, page); allocs != 0 {
		t.Errorf("a warm page allocated %.1f times", allocs)
	}
	a.Release()
	if allocs := testing.AllocsPerRun(100, func() { page(); a.Release() }); allocs != 0 {
		t.Errorf("an arena leasing what a released one gave back allocated %.1f times", allocs)
	}
}

// TestArenaReleaseKeepsNoStrings: what the pool keeps holds no string.
func TestArenaReleaseKeepsNoStrings(t *testing.T) {
	var a Arena
	s := Lease[string](&a, 10)
	s[3] = "kept"
	a.Release()
	if s[3] != "" {
		t.Errorf("a released string vector still holds %q", s[3])
	}
}

// TestArenaPoison: with the poison on, a vector taken back — rewound or
// released — reads values no input holds.
func TestArenaPoison(t *testing.T) {
	was := PoisonScratch(true)
	defer PoisonScratch(was)
	var a Arena
	v, b, idx := Lease[int64](&a, 8), Lease[bool](&a, 8), Lease[int32](&a, 8)
	for i := range v {
		v[i], b[i], idx[i] = 7, true, 1
	}
	a.Rewind()
	if v[0] != math.MinInt64 || b[0] || idx[0] != math.MinInt32 {
		t.Errorf("rewound vectors read %d, %v, %d; want the poison", v[0], b[0], idx[0])
	}
	f := Lease[float64](&a, 8)
	f[0] = 1
	a.Release()
	if !math.IsNaN(f[0]) {
		t.Errorf("a released vector reads %v, want NaN", f[0])
	}
}

// TestArenaLeaseCheck: with the pool tracking which arena holds each vector, a
// vector released twice, or lent while an arena still holds it, panics.
func TestArenaLeaseCheck(t *testing.T) {
	leases.holder = nil // forget what an earlier run of the test left behind
	checkLeases.Store(true)
	defer checkLeases.Store(false)
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}

	t.Run("released twice", func(t *testing.T) {
		var a Arena
		Lease[int](&a, 10)
		stale := Arena{s: &arenaState{used: append([]held(nil), a.s.used...)}} // a copy still holding the vector
		a.Release()
		mustPanic(t, "releasing a released vector", stale.Release)
	})

	t.Run("lent while leased", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector drops pooled vectors at random")
		}
		var a, b Arena
		Lease[int](&a, 10)
		h := a.s.used[0]
		pool := &pools[h.kind][h.class-minClass]
		for pool.Get() != nil { // the stray release below is all the pool has
		}
		pool.Put(h.box) // a release nobody tracked
		mustPanic(t, "leasing a vector an arena holds", func() { Lease[int](&b, 10) })
		checkLeases.Store(false)
		a.Release()
	})
}

// TestTableClasses: a table vector's capacity is at most a sixteenth of an
// octave over what was asked for it (4.44 % at worst, held to 4.5 %), the
// classes ascend, and a class length doubled is a class
// length, so that a table array doubling from its class lands on the next
// octave's.
func TestTableClasses(t *testing.T) {
	for c := 1; c < numTableClasses; c++ {
		if tableLens[c] <= tableLens[c-1] {
			t.Fatalf("class %d is %d elements, class %d %d", c, tableLens[c], c-1, tableLens[c-1])
		}
		if l := tableLens[c-1]; 2*l <= maxTableLen && TableCap(2*l) != 2*l {
			t.Errorf("class length %d doubled rounds to %d", l, TableCap(2*l))
		}
	}
	if tableLens[0] != minTableLen || tableLens[numTableClasses-1] != maxTableLen {
		t.Errorf("classes run from %d to %d, want %d to %d", tableLens[0], tableLens[numTableClasses-1], minTableLen, maxTableLen)
	}
	worst := 0.0
	check := func(n int) {
		got := TableCap(n)
		if got < n {
			t.Fatalf("TableCap(%d) = %d", n, got)
		}
		worst = max(worst, float64(got)/float64(n)-1)
	}
	for n := minTableLen; n <= 1<<17; n++ {
		check(n)
	}
	for c := 1; c < numTableClasses; c++ {
		check(tableLens[c-1] + 1) // the request that wastes the most of a class
	}
	t.Logf("worst rounding %.2f %%", 100*worst)
	if worst > 0.045 {
		t.Errorf("a class is %.2f %% over its request, want at most 4.5 %%", 100*worst)
	}
	for _, n := range []int{0, 1, minTableLen - 1, maxTableLen + 1} {
		if TableCap(n) != n {
			t.Errorf("TableCap(%d) = %d: outside the classes a vector is made as asked", n, TableCap(n))
		}
	}
}

// TestTableLeases: a table vector given back is what the next lease of its
// kind and class gets, zeroed over its whole capacity, and a warm lease and
// give-back allocate nothing; a vector under the smallest class, or one
// whose capacity is no class length, is left to the collector.
func TestTableLeases(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled vectors at random")
	}
	v := LeaseTable[uint32](10, 10000)
	if len(v) != 10 || cap(v) != TableCap(10000) {
		t.Fatalf("leased %d of capacity %d, want 10 of %d", len(v), cap(v), TableCap(10000))
	}
	v = v[:cap(v)]
	for i := range v {
		v[i] = 7
	}
	ReturnTable(v)
	w := LeaseTable[uint32](0, 10000)
	if unsafe.SliceData(w[:1]) != unsafe.SliceData(v) {
		t.Error("a lease of the class did not get the vector given back")
	}
	for i, x := range w[:cap(w)] {
		if x != 0 {
			t.Fatalf("a leased vector reads %d at %d, want zeros", x, i)
		}
	}
	ReturnTable(w)
	if n := testing.AllocsPerRun(100, func() { ReturnTable(LeaseTable[uint32](500, 10000)) }); n != 0 {
		t.Errorf("a warm lease and give-back allocate %.0f times, want none", n)
	}

	small := LeaseTable[int64](10, minTableLen-1)
	ReturnTable(small)
	odd := make([]int64, 0, 10001)
	ReturnTable(odd)
	for _, n := range []int{minTableLen - 1, 10001} {
		got := LeaseTable[int64](0, n)
		if p := unsafe.SliceData(got[:1]); p == unsafe.SliceData(small[:1]) || p == unsafe.SliceData(odd[:1]) {
			t.Errorf("a lease of %d got a vector outside the classes back", n)
		}
	}
}

// TestTableReturnPoison: with the poison on, a table vector given back reads
// values no input holds; with it off a string vector is cleared.
func TestTableReturnPoison(t *testing.T) {
	was := PoisonScratch(true)
	v := LeaseTable[int32](minTableLen, minTableLen)
	s := LeaseTable[string](minTableLen, minTableLen)
	v[5], s[5] = 3, "kept"
	ReturnTable(v)
	ReturnTable(s)
	if v[5] != math.MinInt32 || s[5] == "kept" {
		t.Errorf("returned vectors read %d and %q, want the poison", v[5], s[5])
	}
	PoisonScratch(false)
	defer PoisonScratch(was)
	s = LeaseTable[string](minTableLen, minTableLen)
	s[5] = "kept"
	ReturnTable(s)
	if s[5] != "" {
		t.Errorf("a returned string vector still holds %q", s[5])
	}
}

// TestTableLeaseCheck: with the pool tracking its idle table vectors, one
// given back twice panics.
func TestTableLeaseCheck(t *testing.T) {
	leases.pooled = nil
	checkLeases.Store(true)
	defer checkLeases.Store(false)
	v := LeaseTable[uint64](minTableLen, minTableLen)
	ReturnTable(v)
	defer func() {
		if recover() == nil {
			t.Error("giving a table vector back twice did not panic")
		}
	}()
	ReturnTable(v)
}
