package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedBasic(t *testing.T) {
	s := NewSharded[int](64)
	if _, ok := s.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	s.Put("a", 1)
	s.Put("b", 2)
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := s.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	// Lookup finds the same entry by bytes, in the same shard, copying none.
	key := []byte("b")
	if v, ok := s.Lookup(key); !ok || v != 2 {
		t.Fatalf("Lookup(b) = %v, %v", v, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Lookup(key) }); allocs != 0 {
		t.Fatalf("Lookup allocated %.0f times", allocs)
	}
	h, m, _ := s.Stats()
	if h != 104 || m != 1 { // 2 Gets, 1 Lookup and AllocsPerRun's 101
		t.Fatalf("stats = %d hits %d misses, want 104/1", h, m)
	}
	s.Purge()
	if n := s.Len(); n != 0 {
		t.Fatalf("Len after Purge = %d", n)
	}
}

func TestShardedZeroCapacityAlwaysMisses(t *testing.T) {
	s := NewSharded[int](0)
	s.Put("k", 7)
	if _, ok := s.Get("k"); ok {
		t.Fatal("zero-capacity cache retained an entry")
	}
}

func TestShardedEviction(t *testing.T) {
	// Capacity 16 → one entry per shard; flooding far beyond capacity must
	// evict rather than grow without bound.
	s := NewSharded[int](16)
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := s.Len(); n > 16 {
		t.Fatalf("Len = %d exceeds capacity 16", n)
	}
	_, _, ev := s.Stats()
	if ev == 0 {
		t.Fatal("no evictions recorded after flooding")
	}
}

func TestShardedConcurrent(t *testing.T) {
	s := NewSharded[int](1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k-%d", i%257)
				s.Put(k, i)
				if v, ok := s.Get(k); ok && v < 0 {
					t.Errorf("negative value %d", v)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Len(); n == 0 || n > 257 {
		t.Fatalf("Len = %d, want 1..257", n)
	}
}
