package cache

import "container/list"

// LRU is a least-recently-used map bounded by entry count, by bytes, or by
// both. It does not lock: its owner holds its own lock around every call.
// An entry stays until the bounds evict it or its owner removes it; there is
// no expiry, since every key names the version of what it holds.
type LRU[K comparable, V any] struct {
	maxEntries int   // 0: no count bound
	maxBytes   int64 // 0: no byte bound
	// onEvict, when set, runs for every entry that leaves: evicted, replaced,
	// removed or cleared.
	onEvict func(key K, val V, size int64)

	ll    list.List // of *lruEntry[K, V], most recent first
	items map[K]*list.Element
	bytes int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// NewLRU creates an LRU holding at most maxEntries entries and maxBytes
// bytes (0: that bound is off), calling onEvict (nil: nothing) for each entry
// that leaves.
func NewLRU[K comparable, V any](maxEntries int, maxBytes int64, onEvict func(key K, val V, size int64)) *LRU[K, V] {
	return &LRU[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, onEvict: onEvict, items: map[K]*list.Element{}}
}

// Get returns the value under key and marks it the most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Peek returns the value under key without changing its recency.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores val of size bytes under key, replacing any value there and
// evicting the least recently used entries to fit. It refuses, and returns
// false, a value larger than the byte bound.
func (c *LRU[K, V]) Put(key K, val V, size int64) bool {
	if c.maxBytes > 0 && size > c.maxBytes {
		return false
	}
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
	for c.ll.Len() > 0 && ((c.maxEntries > 0 && c.ll.Len() >= c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes+size > c.maxBytes)) {
		c.removeElement(c.ll.Back())
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val, size: size})
	c.bytes += size
	return true
}

// Remove drops the entry under key, if any.
func (c *LRU[K, V]) Remove(key K) bool {
	el, ok := c.items[key]
	if ok {
		c.removeElement(el)
	}
	return ok
}

// Clear drops every entry.
func (c *LRU[K, V]) Clear() {
	for c.ll.Len() > 0 {
		c.removeElement(c.ll.Back())
	}
}

// Len is the number of entries.
func (c *LRU[K, V]) Len() int { return c.ll.Len() }

// Bytes is the sum of the entries' sizes.
func (c *LRU[K, V]) Bytes() int64 { return c.bytes }

func (c *LRU[K, V]) removeElement(el *list.Element) {
	e := c.ll.Remove(el).(*lruEntry[K, V])
	delete(c.items, e.key)
	c.bytes -= e.size
	if c.onEvict != nil {
		c.onEvict(e.key, e.val, e.size)
	}
}
