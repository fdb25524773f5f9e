package cache

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"energyclarity/internal/trace"
)

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore[string, int](2)
	s.Put("a", 1)
	s.Put("b", 2)
	if _, ok := s.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	if evicted := s.Put("c", 3); !evicted {
		t.Fatal("inserting c should evict")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Errorf("a = %v %v, want 1 true", v, ok)
	}
	if v, ok := s.Get("c"); !ok || v != 3 {
		t.Errorf("c = %v %v, want 3 true", v, ok)
	}
	hits, misses, evictions := s.Stats()
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want 3/1/1", hits, misses, evictions)
	}
}

func TestStoreReplaceAndPurge(t *testing.T) {
	s := NewStore[string, string](4)
	s.Put("k", "v1")
	if evicted := s.Put("k", "v2"); evicted {
		t.Error("replacing should not evict")
	}
	if v, _ := s.Get("k"); v != "v2" {
		t.Errorf("k = %q, want v2", v)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
	s.Purge()
	if s.Len() != 0 {
		t.Errorf("len after purge = %d", s.Len())
	}
	if _, ok := s.Get("k"); ok {
		t.Error("purged key still present")
	}
	if rate, ok := hitRate(s); !ok || rate != 0.5 {
		t.Errorf("hit rate = %v %v", rate, ok)
	}
}

func TestStoreZeroCapacity(t *testing.T) {
	s := NewStore[string, int](0)
	if evicted := s.Put("a", 1); evicted {
		t.Error("zero-capacity store evicted")
	}
	if _, ok := s.Get("a"); ok {
		t.Error("zero-capacity store stored a value")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	NewStore[string, int](-1)
}

// hitRate is hits/(hits+misses), and false if there were no lookups.
func hitRate[K comparable, V any](s *Store[K, V]) (float64, bool) {
	hits, misses, _ := s.Stats()
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// TestStorePutAllocs: a full Store's evicting Put reuses the evicted
// entry's slot, so it allocates nothing; neither does a hit.
func TestStorePutAllocs(t *testing.T) {
	const capacity = 1024
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
	}
	s := NewStore[string, int](capacity)
	for i := range capacity {
		s.Put(keys[i], i)
	}
	n := capacity
	put := testing.AllocsPerRun(2*capacity, func() {
		if !s.Put(keys[n%len(keys)], n) {
			t.Fatal("a full store's Put did not evict")
		}
		n++
	})
	get := testing.AllocsPerRun(100, func() { s.Get(keys[(n-1)%len(keys)]) })
	if put != 0 || get != 0 {
		t.Errorf("full store: Put made %v allocations, Get %v; want 0, 0", put, get)
	}
	if s.Len() != capacity {
		t.Errorf("len = %d, want %d", s.Len(), capacity)
	}
}

// TestQuickStoreMatchesReference drives a Store and a reference LRU (a
// slice in recency order) with the same Gets and Puts: every answer, the
// order Each reports and the eviction count must agree.
func TestQuickStoreMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 5
		s := NewStore[uint64, int](capacity)
		var ref []uint64 // most recent first
		vals := map[uint64]int{}
		evictions := uint64(0)
		touch := func(k uint64) {
			ref = slices.Insert(slices.DeleteFunc(ref, func(x uint64) bool { return x == k }), 0, k)
		}
		for i, op := range ops {
			k := uint64(op % 11)
			if op&0x100 != 0 {
				v, ok := s.Get(k)
				if want, in := vals[k]; ok != in || v != want {
					return false
				}
				if ok {
					touch(k)
				}
				continue
			}
			_, present := vals[k]
			if evicted := s.Put(k, i); evicted != (!present && len(ref) == capacity) {
				return false
			}
			if !present && len(ref) == capacity {
				delete(vals, ref[capacity-1])
				ref = ref[:capacity-1]
				evictions++
			}
			vals[k] = i
			touch(k)
		}
		var order []uint64
		s.Each(func(k uint64, v int) bool {
			order = append(order, k)
			return v == vals[k]
		})
		_, _, ev := s.Stats()
		return slices.Equal(order, ref) && ev == evictions && s.Len() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The Fig. 1 request caches are key sets: a Store of uint64 keys with no
// value. These tests hold that use of Store to an exact LRU.

type keySet = Store[uint64, struct{}]

func newKeySet(capacity int) *keySet { return NewStore[uint64, struct{}](capacity) }

// contains is the request caches' lookup: a counted, recency-touching Get.
func contains(c *keySet, key uint64) bool {
	_, ok := c.Get(key)
	return ok
}

func add(c *keySet, key uint64) (evicted bool) { return c.Put(key, struct{}{}) }

// peek reports whether key is stored without touching recency or the
// counters, by way of Each.
func peek(c *keySet, key uint64) bool {
	found := false
	c.Each(func(k uint64, _ struct{}) bool {
		found = k == key
		return !found
	})
	return found
}

func TestLRUBasics(t *testing.T) {
	c := newKeySet(2)
	if contains(c, 1) {
		t.Fatal("empty cache hit")
	}
	add(c, 1)
	add(c, 2)
	if !contains(c, 1) || !contains(c, 2) {
		t.Fatal("added keys missing")
	}
	if c.Len() != 2 || c.capacity != 2 {
		t.Fatalf("len=%d cap=%d", c.Len(), c.capacity)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newKeySet(2)
	add(c, 1)
	add(c, 2)
	contains(c, 1) // 1 is now most recent
	if evicted := add(c, 3); !evicted {
		t.Fatal("no eviction at capacity")
	}
	if peek(c, 2) {
		t.Fatal("LRU key 2 survived eviction")
	}
	if !peek(c, 1) || !peek(c, 3) {
		t.Fatal("wrong keys evicted")
	}
}

func TestLRUAddRefreshesRecency(t *testing.T) {
	c := newKeySet(2)
	add(c, 1)
	add(c, 2)
	add(c, 1) // refresh, no eviction
	add(c, 3) // evicts 2
	if peek(c, 2) || !peek(c, 1) {
		t.Fatal("Add did not refresh recency")
	}
}

func TestZeroCapacityAlwaysMisses(t *testing.T) {
	c := newKeySet(0)
	add(c, 1)
	if contains(c, 1) {
		t.Fatal("zero-capacity cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored a key")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity accepted")
		}
	}()
	newKeySet(-1)
}

func TestHitRateAndStats(t *testing.T) {
	c := newKeySet(4)
	if _, ok := hitRate(c); ok {
		t.Fatal("hit rate defined with no lookups")
	}
	add(c, 1)
	contains(c, 1)
	contains(c, 2)
	hr, ok := hitRate(c)
	if !ok || hr != 0.5 {
		t.Fatalf("hit rate %v, %v", hr, ok)
	}
	h, m, _ := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats %d/%d", h, m)
	}
	c.ResetStats()
	if _, ok := hitRate(c); ok {
		t.Fatal("stats survived reset")
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := newKeySet(2)
	add(c, 1)
	peek(c, 1)
	peek(c, 2)
	if _, ok := hitRate(c); ok {
		t.Fatal("Each affected counters")
	}
}

func TestQuickLenNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint64) bool {
		c := newKeySet(8)
		for _, k := range keys {
			add(c, k%64)
		}
		return c.Len() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMostRecentAlwaysPresent(t *testing.T) {
	f := func(keys []uint64) bool {
		c := newKeySet(4)
		for _, k := range keys {
			add(c, k%1000)
		}
		if len(keys) == 0 {
			return true
		}
		return peek(c, keys[len(keys)-1]%1000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHitRateGrowsWithCapacityUnderZipf(t *testing.T) {
	rate := func(capacity int) float64 {
		c := newKeySet(capacity)
		z := trace.NewZipf(4096, 1.2, 11)
		for i := 0; i < 30000; i++ {
			k := z.Next()
			if !contains(c, k) {
				add(c, k)
			}
		}
		hr, _ := hitRate(c)
		return hr
	}
	small, mid, large := rate(16), rate(128), rate(1024)
	if !(small < mid && mid < large) {
		t.Fatalf("hit rate not monotone in capacity: %v %v %v", small, mid, large)
	}
	if large < 0.5 {
		t.Fatalf("large cache under Zipf should hit often, got %v", large)
	}
}
