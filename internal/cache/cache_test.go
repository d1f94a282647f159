package cache

import (
	"fmt"
	"testing"
	"time"
)

func TestMetaCacheTTLExpiry(t *testing.T) {
	now := int64(0)
	m := NewMetaCache(time.Second, func() int64 { return now })
	m.Put("k", "v")
	if v, ok := m.Get("k"); !ok || v != "v" {
		t.Fatal("fresh entry should hit")
	}
	now += int64(2 * time.Second)
	if _, ok := m.Get("k"); ok {
		t.Fatal("expired entry should miss")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestMetaCacheStaysBounded: nothing invalidates an entry, so the entries of
// versions no longer read stay until they expire; past maxMetaEntries a Put
// prunes, and the cache keeps at most that many, the new entry among them.
func TestMetaCacheStaysBounded(t *testing.T) {
	m := NewMetaCache(time.Hour, nil)
	for v := 0; v <= maxMetaEntries; v++ {
		m.Put(fmt.Sprintf("splits/memory.t@%d", v), v)
	}
	if n := m.Stats().Entries; n > maxMetaEntries || n < maxMetaEntries/2 {
		t.Errorf("%d entries after %d puts, want at most %d and at least half that", n, maxMetaEntries+1, maxMetaEntries)
	}
	last := fmt.Sprintf("splits/memory.t@%d", maxMetaEntries)
	if v, ok := m.Get(last); !ok || v != maxMetaEntries {
		t.Errorf("the entry stored last was pruned: %v %v", v, ok)
	}
}

func TestMetaCacheNilSafe(t *testing.T) {
	var m *MetaCache
	if _, ok := m.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	m.Put("k", 1)
	if st := m.Stats(); st != (MetaStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}
