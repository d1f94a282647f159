package cache

import (
	"slices"
	"testing"
)

type eviction struct {
	key  string
	val  int
	size int64
}

func recording(into *[]eviction) func(string, int, int64) {
	return func(k string, v int, size int64) { *into = append(*into, eviction{k, v, size}) }
}

// TestLRUCountBound: past its count bound a Put evicts the least recently
// used entry; a Get makes an entry the most recent, a Peek does not.
func TestLRUCountBound(t *testing.T) {
	var evicted []eviction
	c := NewLRU[string, int](2, 0, recording(&evicted))
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3, 1) // b is the least recently used
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b was kept past the count bound, a was used after it")
	}
	if !slices.Equal(evicted, []eviction{{"b", 2, 1}}) {
		t.Fatalf("evicted %v, want b", evicted)
	}
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	c.Put("d", 4, 1) // the Peek left a the least recently used
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a Peek made a the most recently used")
	}
	if _, ok := c.Peek("c"); !ok || c.Len() != 2 || c.Bytes() != 2 {
		t.Fatalf("c missing, or %d entries of %d bytes, want 2 of 2", c.Len(), c.Bytes())
	}
}

// TestLRUByteBound: a Put evicts until the new value fits the byte bound,
// and refuses one larger than the bound, evicting nothing for it.
func TestLRUByteBound(t *testing.T) {
	var evicted []eviction
	c := NewLRU[string, int](0, 10, recording(&evicted))
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	if c.Put("big", 3, 11) {
		t.Fatal("a value larger than the byte bound was stored")
	}
	if c.Len() != 2 || c.Bytes() != 8 || len(evicted) != 0 {
		t.Fatalf("a refused Put changed the cache: %d entries, %d bytes, evicted %v", c.Len(), c.Bytes(), evicted)
	}
	if !c.Put("c", 4, 7) { // a and b go: 4+7 is still over
		t.Fatal("a value within the bound was refused")
	}
	if !slices.Equal(evicted, []eviction{{"a", 1, 4}, {"b", 2, 4}}) || c.Bytes() != 7 || c.Len() != 1 {
		t.Fatalf("evicted %v, left %d entries of %d bytes, want a and b gone, c's 7 bytes", evicted, c.Len(), c.Bytes())
	}
}

// TestLRUReplaceFiresOnce: a Put over a held key drops the old value, which
// the callback sees once with its own size, and the new size is counted.
func TestLRUReplaceFiresOnce(t *testing.T) {
	var evicted []eviction
	c := NewLRU[string, int](2, 0, recording(&evicted))
	c.Put("a", 1, 5)
	c.Put("a", 2, 7)
	if !slices.Equal(evicted, []eviction{{"a", 1, 5}}) {
		t.Fatalf("evicted %v, want the old a once", evicted)
	}
	if v, ok := c.Get("a"); !ok || v != 2 || c.Len() != 1 || c.Bytes() != 7 {
		t.Fatalf("Get(a) = %v, %v with %d entries of %d bytes, want 2 in 1 of 7", v, ok, c.Len(), c.Bytes())
	}
	if !c.Remove("a") || c.Remove("a") || len(evicted) != 2 || c.Bytes() != 0 {
		t.Fatalf("Remove: evicted %v, %d bytes left", evicted, c.Bytes())
	}
}

// TestLRUClearFiresForEvery: Clear empties the cache through the callback,
// so an owner that accounts for its entries there releases them all.
func TestLRUClearFiresForEvery(t *testing.T) {
	var evicted []eviction
	c := NewLRU[string, int](0, 0, recording(&evicted))
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i, int64(i+1))
	}
	c.Clear()
	if len(evicted) != 3 || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Clear: evicted %v, %d entries of %d bytes left", evicted, c.Len(), c.Bytes())
	}
	var freed int64
	for _, e := range evicted {
		freed += e.size
	}
	if freed != 6 {
		t.Fatalf("the callback saw %d bytes, the entries held 6", freed)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("an entry survived Clear")
	}
}
