package cache

import (
	"testing"
	"time"
)

func TestMetaCacheTTLExpiry(t *testing.T) {
	now := int64(0)
	m := NewMetaCache(time.Second, func() int64 { return now })
	m.Put("t", "k", "v")
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

// TestMetaCacheInvalidatesOnlyItsTable: invalidating memory.t drops every
// entry stored for it — its metadata and its split enumerations at any
// version and under any constraint — and keeps every entry of memory.t2,
// whose keys memory.t's are a prefix of.
func TestMetaCacheInvalidatesOnlyItsTable(t *testing.T) {
	m := NewMetaCache(time.Minute, nil)
	keys := func(table string) []string {
		return []string{"meta/" + table, "splits/" + table + "@0", "splits/" + table + "@3",
			"splits/" + table + "@3 [a > 1]", "splits/" + table + "@layout1@4"}
	}
	for _, table := range []string{"memory.t", "memory.t2"} {
		for i, k := range keys(table) {
			m.Put(table, k, i)
		}
	}
	if n := m.Invalidate("memory.t"); n != len(keys("memory.t")) {
		t.Fatalf("invalidated %d entries, want %d", n, len(keys("memory.t")))
	}
	for _, k := range keys("memory.t") {
		if _, ok := m.Get(k); ok {
			t.Errorf("%s still served after its table was invalidated", k)
		}
	}
	for _, k := range keys("memory.t2") {
		if _, ok := m.Get(k); !ok {
			t.Errorf("%s dropped by the invalidation of memory.t", k)
		}
	}
	if n := m.Invalidate("memory.t"); n != 0 {
		t.Errorf("a second invalidation dropped %d entries", n)
	}
	// An entry stored again under another table moves to that table.
	m.Put("memory.t", "splits/memory.t2@0", 9)
	if m.Invalidate("memory.t2") != len(keys("memory.t2"))-1 || m.Invalidate("memory.t") != 1 {
		t.Error("a re-stored entry is still indexed under its old table")
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("%d entries left after invalidating both tables", st.Entries)
	}
}

func TestMetaCacheNilSafe(t *testing.T) {
	var m *MetaCache
	if _, ok := m.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	m.Put("t", "k", 1)
	m.Invalidate("t")
	if st := m.Stats(); st != (MetaStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}
