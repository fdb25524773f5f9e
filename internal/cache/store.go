// Package cache holds the bounded caches of the tree: Store, an exact
// least-recently-used map (the Fig. 1 ML web service's request caches,
// the daemon's evaluation memo, the compiler's specialisation cache);
// Sharded, a lock-striped Store for concurrent readers (the layer cache);
// and Flight, which coalesces concurrent duplicate work.
package cache

// Store is a fixed-capacity least-recently-used map from keys of type K
// to values of type V. Its entries live in one slice, linked into recency
// order by index, and a full Store gives the evicted entry's slot to the
// new one, so once it has filled, Put allocates nothing. A Store is not
// safe for concurrent use — callers wrap it in their own lock.
type Store[K comparable, V any] struct {
	capacity int
	// entries[0] is the ring's sentinel: its next is the most recently
	// used entry and its prev the least.
	entries []storeEntry[K, V]
	items   map[K]int // key → index into entries

	hits, misses, evictions uint64
}

type storeEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int
}

// NewStore returns a Store holding at most capacity entries. A capacity of
// 0 is a valid always-miss store; negative capacities panic.
func NewStore[K comparable, V any](capacity int) *Store[K, V] {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &Store[K, V]{capacity: capacity, entries: make([]storeEntry[K, V], 1), items: make(map[K]int)}
}

// Len returns the number of stored entries.
func (s *Store[K, V]) Len() int { return len(s.entries) - 1 }

// Get returns the value for key, updating recency and hit/miss counters.
func (s *Store[K, V]) Get(key K) (V, bool) {
	i, ok := s.items[key]
	return s.got(i, ok)
}

// Lookup is Get on a string-keyed store for a key held as a string or as
// bytes, of which it makes no string.
func Lookup[V any, K string | []byte](s *Store[string, V], key K) (V, bool) {
	i, ok := s.items[string(key)]
	return s.got(i, ok)
}

// got ends a Get that found entry i, if ok.
func (s *Store[K, V]) got(i int, ok bool) (V, bool) {
	if ok {
		s.unlink(i)
		s.pushFront(i)
		s.hits++
		return s.entries[i].val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Put inserts key (or replaces its value), evicting the least-recently-used
// entry if the store is full. It reports whether an eviction happened.
func (s *Store[K, V]) Put(key K, val V) (evicted bool) {
	if s.capacity == 0 {
		return false
	}
	if i, ok := s.items[key]; ok {
		s.entries[i].val = val
		s.unlink(i)
		s.pushFront(i)
		return false
	}
	i := len(s.entries)
	if s.Len() < s.capacity {
		s.entries = append(s.entries, storeEntry[K, V]{})
	} else {
		i = s.entries[0].prev
		s.unlink(i)
		delete(s.items, s.entries[i].key)
		s.evictions++
		evicted = true
	}
	s.entries[i].key, s.entries[i].val = key, val
	s.items[key] = i
	s.pushFront(i)
	return evicted
}

func (s *Store[K, V]) unlink(i int) {
	e := &s.entries[i]
	s.entries[e.prev].next, s.entries[e.next].prev = e.next, e.prev
}

func (s *Store[K, V]) pushFront(i int) {
	first := s.entries[0].next
	s.entries[i].prev, s.entries[i].next = 0, first
	s.entries[first].prev, s.entries[0].next = i, i
}

// Each calls fn for every entry from most- to least-recently used,
// stopping early if fn returns false. Iteration does not touch recency
// or the counters; fn must not mutate the store.
func (s *Store[K, V]) Each(fn func(key K, val V) bool) {
	for i := s.entries[0].next; i != 0; i = s.entries[i].next {
		if !fn(s.entries[i].key, s.entries[i].val) {
			return
		}
	}
}

// Purge drops every entry, keeping the counters and the slots.
func (s *Store[K, V]) Purge() {
	clear(s.entries) // an empty ring: the sentinel links to itself
	s.entries = s.entries[:1]
	clear(s.items)
}

// Stats returns the raw hit/miss/eviction counters.
func (s *Store[K, V]) Stats() (hits, misses, evictions uint64) {
	return s.hits, s.misses, s.evictions
}

// ResetStats clears the counters (e.g. after a warmup window, so a
// resource manager can estimate steady-state ECVs).
func (s *Store[K, V]) ResetStats() { s.hits, s.misses, s.evictions = 0, 0, 0 }
