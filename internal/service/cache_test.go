package service

import (
	"testing"
)

func tkey(i int) artifactKey {
	return artifactKey{dataset: 1, rel: 1, keyCol: "k", maskFP: uint64(i)}
}

// TestCacheLRUOrder: get promotes, put evicts from the cold end.
func TestCacheLRUOrder(t *testing.T) {
	c := newArtifactCache(300)
	for i := 0; i < 3; i++ {
		c.put(&cacheEntry{key: tkey(i), bytes: 100})
	}
	// Touch 0 so 1 becomes the LRU victim.
	if c.get(tkey(0)) == nil {
		t.Fatal("resident entry missed")
	}
	c.put(&cacheEntry{key: tkey(3), bytes: 100})
	if c.get(tkey(1)) != nil {
		t.Fatal("LRU victim survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if c.get(tkey(i)) == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if st := c.stats(); st.Bytes != 300 || st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("bad stats %+v", st)
	}
}

// TestCacheRejectsOversizedArtifact: an artifact larger than the whole
// budget must not be admitted (the budget is a hard invariant), and
// must not evict the resident set to make room for a failed insert.
func TestCacheRejectsOversizedArtifact(t *testing.T) {
	c := newArtifactCache(300)
	c.put(&cacheEntry{key: tkey(0), bytes: 200})
	c.put(&cacheEntry{key: tkey(1), bytes: 500})
	if c.get(tkey(1)) != nil {
		t.Fatal("oversized artifact admitted")
	}
	if c.get(tkey(0)) == nil {
		t.Fatal("resident entry evicted for a rejected insert")
	}
	if st := c.stats(); st.Bytes != 200 {
		t.Fatalf("bytes %d after rejected insert, want 200", st.Bytes)
	}
}

// TestCacheDuplicatePutKeepsResident: racing builders may offer the
// same key twice; the second offer must not double-charge the budget.
func TestCacheDuplicatePutKeepsResident(t *testing.T) {
	c := newArtifactCache(300)
	c.put(&cacheEntry{key: tkey(0), bytes: 100})
	c.put(&cacheEntry{key: tkey(0), bytes: 100})
	if st := c.stats(); st.Bytes != 100 || st.Entries != 1 {
		t.Fatalf("duplicate put double-charged: %+v", st)
	}
}
