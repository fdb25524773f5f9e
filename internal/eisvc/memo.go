package eisvc

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// Memo is the daemon's evaluation cache: a bounded LRU (cache.Store) from
// canonicalized request keys to distributions, wrapped in a mutex so
// concurrent handlers share it safely.
type Memo struct {
	mu    sync.Mutex
	store *cache.Store[string, memoEntry]
}

// memoEntry is one cached answer in both forms it is used in: the Dist,
// and the wire form every hit is sent in, built once when the entry is
// made. wire's vectors are dist's own (energy.Dist.View) and its statistics
// are dist's, so the two cannot disagree; a Dist is immutable and nobody
// writes through wire, which is what lets any number of concurrent
// responses encode from the one *WireDist.
type memoEntry struct {
	dist energy.Dist
	wire *WireDist
}

func newMemoEntry(d energy.Dist) memoEntry {
	w := &WireDist{Mean: d.Mean(), Std: d.Std(), Min: d.Min(), Max: d.Max(), P99: d.Quantile(0.99)}
	w.Support, w.Probs = d.View()
	w.tag = DistTag(w)
	return memoEntry{dist: d, wire: w}
}

// NewMemo returns a memo cache bounded to capacity entries; capacity 0
// disables memoization.
func NewMemo(capacity int) *Memo {
	return &Memo{store: cache.NewStore[string, memoEntry](capacity)}
}

// Get returns the cached distribution for key.
func (m *Memo) Get(key string) (energy.Dist, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.store.Get(key)
	return e.dist, ok
}

// wireOf returns m's cached answer for key, a string or bytes, in its
// shared wire form (nil on a miss): read-only, valid while the caller holds it.
func wireOf[K string | []byte](m *Memo, key K) *WireDist {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, _ := cache.Lookup(m.store, key)
	return e.wire
}

// Put caches the distribution for key.
func (m *Memo) Put(key string, d energy.Dist) { m.put(key, d) }

// put is Put handing back the wire form it built, which answers the request
// that produced d whether or not the memo keeps an entry (capacity 0).
func (m *Memo) put(key string, d energy.Dist) *WireDist {
	e := newMemoEntry(d)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store.Put(key, e)
	return e.wire
}

// Stats returns the memo counters and current size.
func (m *Memo) Stats() (hits, misses, evictions uint64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hits, misses, evictions = m.store.Stats()
	return hits, misses, evictions, m.store.Len()
}

// Fingerprint is a memo key's entry in a memo summary, the low half of
// its Hash64; peers compare them, so it is a wire format too.
func Fingerprint(key string) uint32 { return uint32(Hash64(key)) }

// summary is the Fingerprint of every live key, strictly ascending, built
// when a probe asks for it: put does no work for it.
func (m *Memo) summary() []uint32 {
	m.mu.Lock()
	fps := make([]uint32, 0, m.store.Len())
	m.store.Each(func(key string, _ memoEntry) bool {
		fps = append(fps, Fingerprint(key))
		return true
	})
	m.mu.Unlock()
	slices.Sort(fps)
	return slices.Compact(fps)
}

// MemoEntry is one persisted memo entry: the canonical key plus the
// distribution's exact (support, probs) vectors. The raw vectors (not an
// energy.Dist) travel in snapshots so the codec layer stays dumb;
// Restore revalidates through energy.FromSorted.
type MemoEntry struct {
	Key     string
	Support []float64
	Probs   []float64
}

// Entries copies every live memo entry, most- to least-recently used —
// the order Restore needs to rebuild the same LRU state.
func (m *Memo) Entries() []MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemoEntry, 0, m.store.Len())
	m.store.Each(func(key string, e memoEntry) bool {
		out = append(out, MemoEntry{Key: key, Support: e.dist.Support(), Probs: e.dist.Probs()})
		return true
	})
	return out
}

// Restore installs snapshot entries into the memo, least-recently-used
// first so the MRU ordering Entries captured survives the round trip.
// Entries that fail distribution validation are skipped (a snapshot must
// never make the daemon serve garbage); the returned count is how many
// were installed.
func (m *Memo) Restore(entries []MemoEntry) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	installed := 0
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		d, err := energy.FromSorted(e.Support, e.Probs)
		if err != nil || e.Key == "" {
			continue
		}
		m.store.Put(e.Key, newMemoEntry(d))
		installed++
	}
	return installed
}

// KeyStack returns the interface-stack name embedded in a canonical memo
// key (the prefix before the '@' that introduces the version). A fleet
// node's peer lookup (fleet.peerLookupFor) uses it to aim peer cache
// probes at the stack's shard owners first — they are where the key is
// most likely warm.
func KeyStack(key string) string {
	if i := strings.IndexByte(key, '@'); i >= 0 {
		return key[:i]
	}
	return key
}

// appendKeyHead appends the head of a request's memo key, before what
// evalBody keys. Two requests share a key exactly when Interface.Eval is
// sure to return the same distribution for both; peers exchange keys and
// snapshots persist them, so their bytes are a wire format. The version is
// in it, so a mutation invalidates older entries; samples and the
// enumeration limit normalise to their defaults; parallelism is left out
// (answers are bit-identical at any value); knobs a mode ignores are
// zeroed (fixed: seed, samples, limit; Monte Carlo: limit). The
// enumeration modes keep the seed: past the limit they sample.
func appendKeyHead(dst []byte, name string, version uint64, method []byte, mode core.Mode, samples, enumLimit int, seed int64) []byte {
	if samples <= 0 {
		samples = core.DefaultSamples
	}
	if enumLimit <= 0 {
		enumLimit = core.DefaultEnumLimit
	}
	switch mode {
	case core.ModeFixed:
		samples, enumLimit, seed = 0, 0, 0
	case core.ModeMonteCarlo:
		enumLimit = 0
	}
	dst = append(append(dst, name...), '@')
	dst = append(strconv.AppendUint(dst, version, 10), '|')
	dst = append(append(dst, method...), "|m"...)
	dst = append(strconv.AppendInt(dst, int64(mode), 10), "|s"...)
	dst = append(strconv.AppendInt(dst, int64(samples), 10), "|l"...)
	dst = append(strconv.AppendInt(dst, int64(enumLimit), 10), "|r"...)
	return strconv.AppendInt(dst, seed, 10)
}
