package cache

import "sync"

// shardCount is the number of independent lock domains in a Sharded store.
// Sixteen shards keep lock contention negligible for the evaluation
// engine's worker counts (a worker touches a shard only for the duration
// of one Get/Put) while the per-shard LRU lists stay long enough to be
// useful. Power of two so the hash maps to a shard with a mask.
const shardCount = 16

// Sharded is a concurrency-safe key-value cache: shardCount independent
// Store instances, each guarded by its own mutex, with keys hashed to a
// shard by FNV-1a. Parallel evaluation workers share one Sharded store
// without funnelling through a single lock; eviction is LRU per shard.
type Sharded[V any] struct {
	shards [shardCount]shard[V]
}

type shard[V any] struct {
	mu    sync.Mutex
	store *Store[string, V]
}

// NewSharded returns a Sharded cache bounded to roughly capacity entries
// in total (each shard holds capacity/shardCount, rounded up). A capacity
// of 0 is a valid always-miss cache; negative capacities panic.
func NewSharded[V any](capacity int) *Sharded[V] {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	per := (capacity + shardCount - 1) / shardCount
	s := &Sharded[V]{}
	for i := range s.shards {
		s.shards[i].store = NewStore[string, V](per)
	}
	return s
}

// fnv1a hashes key with 64-bit FNV-1a; allocation-free.
func fnv1a[K string | []byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (s *Sharded[V]) shard(key string) *shard[V] {
	return &s.shards[fnv1a(key)&(shardCount-1)]
}

// Get returns the value for key, updating recency and the owning shard's
// hit/miss counters.
func (s *Sharded[V]) Get(key string) (V, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.store.Get(key)
}

// Lookup is Get for a key held as bytes, of which it makes no string.
func (s *Sharded[V]) Lookup(key []byte) (V, bool) {
	sh := &s.shards[fnv1a(key)&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return Lookup(sh.store, key)
}

// Put inserts (or refreshes) key in its shard, evicting that shard's
// least-recently-used entry if over capacity.
func (s *Sharded[V]) Put(key string, val V) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.store.Put(key, val)
}

// Len returns the total number of entries across shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].store.Len()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Each calls fn for every entry, shard by shard (within a shard, from
// most- to least-recently used), stopping early if fn returns false.
// Each shard stays locked for its own scan only; fn must not call back
// into the cache.
func (s *Sharded[V]) Each(fn func(key string, val V) bool) {
	for i := range s.shards {
		stop := false
		s.shards[i].mu.Lock()
		s.shards[i].store.Each(func(key string, val V) bool {
			if !fn(key, val) {
				stop = true
				return false
			}
			return true
		})
		s.shards[i].mu.Unlock()
		if stop {
			return
		}
	}
}

// Purge drops every entry in every shard, keeping the counters.
func (s *Sharded[V]) Purge() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].store.Purge()
		s.shards[i].mu.Unlock()
	}
}

// Stats sums the hit/miss/eviction counters across shards.
func (s *Sharded[V]) Stats() (hits, misses, evictions uint64) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		h, m, e := s.shards[i].store.Stats()
		s.shards[i].mu.Unlock()
		hits += h
		misses += m
		evictions += e
	}
	return hits, misses, evictions
}
