package serving

import (
	"container/list"
	"time"
)

// lruCore is a non-locking expirable LRU (the Milvus expirable-LRU shape):
// entries age out after ttl, the size bound evicts from the cold end, and an
// eviction callback lets the owner release external resources (memory-pool
// reservations). Callers hold their own lock.
type lruCore struct {
	maxEntries int   // 0 = unbounded count
	maxBytes   int64 // 0 = unbounded bytes
	ttl        time.Duration
	now        func() time.Time
	onEvict    func(key string, val interface{}, size int64)

	ll    *list.List
	items map[string]*list.Element
	bytes int64
}

type lruItem struct {
	key   string
	val   interface{}
	size  int64
	stamp time.Time
}

func newLRUCore(maxEntries int, maxBytes int64, ttl time.Duration, now func() time.Time,
	onEvict func(key string, val interface{}, size int64)) *lruCore {
	if now == nil {
		now = time.Now
	}
	return &lruCore{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ttl:        ttl,
		now:        now,
		onEvict:    onEvict,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// get returns the live value for key, expiring it instead when its ttl has
// passed. The second return distinguishes miss from nil; the third reports
// that the miss was an expiry.
func (c *lruCore) get(key string) (interface{}, bool, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false, false
	}
	it := el.Value.(*lruItem)
	if c.ttl > 0 && c.now().Sub(it.stamp) > c.ttl {
		c.removeElement(el)
		return nil, false, true
	}
	c.ll.MoveToFront(el)
	return it.val, true, false
}

// put inserts or replaces key, evicting cold entries to fit. Returns false
// when the value alone exceeds the byte bound and was not admitted.
func (c *lruCore) put(key string, val interface{}, size int64) bool {
	if c.maxBytes > 0 && size > c.maxBytes {
		return false
	}
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
	for (c.maxEntries > 0 && c.ll.Len() >= c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes+size > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeElement(back)
	}
	el := c.ll.PushFront(&lruItem{key: key, val: val, size: size, stamp: c.now()})
	c.items[key] = el
	c.bytes += size
	return true
}

// remove drops key if present, running the eviction callback.
func (c *lruCore) remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

func (c *lruCore) removeElement(el *list.Element) {
	it := el.Value.(*lruItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size
	if c.onEvict != nil {
		c.onEvict(it.key, it.val, it.size)
	}
}

func (c *lruCore) clear() {
	for c.ll.Back() != nil {
		c.removeElement(c.ll.Back())
	}
}

func (c *lruCore) len() int { return c.ll.Len() }
