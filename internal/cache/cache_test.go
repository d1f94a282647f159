package cache

import (
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

func TestMetaCacheInvalidatePrefix(t *testing.T) {
	m := NewMetaCache(time.Minute, nil)
	m.Put("splits/tpch.lineitem@layout1", 1)
	m.Put("splits/tpch.lineitem", 2)
	m.Put("splits/tpch.orders", 3)
	if n := m.Invalidate("splits/tpch.lineitem"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := m.Get("splits/tpch.orders"); !ok {
		t.Error("unrelated entry dropped")
	}
	if _, ok := m.Get("splits/tpch.lineitem"); ok {
		t.Error("invalidated entry still served")
	}
}

func TestMetaCacheNilSafe(t *testing.T) {
	var m *MetaCache
	if _, ok := m.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	m.Put("k", 1)
	m.Invalidate("k")
	if st := m.Stats(); st != (MetaStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}
