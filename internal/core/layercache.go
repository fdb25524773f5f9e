package core

import (
	"strconv"
	"sync/atomic"

	"energyclarity/internal/cache"
)

// LayerCache is the compositional evaluation cache: a concurrency-safe
// store of per-sub-interface evaluation results shared across Eval calls
// (and, in the daemon, across requests). The paper's abstraction argument
// is what makes it sound — an energy method collapses its module's input
// space to a few observables, so distinct top-level requests routinely
// induce *identical* lower-layer evaluations. With a LayerCache attached
// (EvalOptions.Layer), every method invocation during evaluation is keyed
// by
//
//	(subtree version, method, abstracted args, ECV values reaching the
//	 subtree)
//
// and its scalar result (the joules the body returned under that concrete
// assignment) is memoized. The key captures everything the result can
// depend on: bodies are deterministic given their arguments and the ECV
// assignment visible to their subtree, and a scalar sub-evaluation cannot
// observe the evaluation mode, the sampling knobs, or EvalOptions.
// Parallelism — so none of those are in the key, and entries are shared
// across modes, seeds, and worker counts.
//
// Invalidation is by construction rather than by scanning: the key's
// version component is a fold of the subtree's node versions, and every
// node mutation or Rebind clone assigns fresh versions along the affected
// path only. Replacing a leaf therefore changes the fold for the leaf and
// its ancestors (their entries become unreachable garbage that ages out of
// the LRU) while sibling subtrees keep their versions — and their hits.
//
// The store is sharded with per-shard locks (cache.Sharded), so parallel
// evaluation workers share it without funnelling through one mutex.
//
// The cache memoizes *interpreted* invocations. A method the optimizing
// compiler accepts (internal/opt) evaluates as one flat instruction
// program with every sub-call inlined and constant-folded away — there are
// no per-invocation boundaries left to memoize, and the compiled-program
// cache on the Interface already amortizes that work — so compiled
// evaluations bypass the layer entirely. The layer's clients are the trees
// the compiler cannot take: Go-native bodies, hybrid stacks whose EIL
// methods call native bindings, declined methods, and Interpret-forced
// runs. Either engine returns bit-identical distributions.
type LayerCache struct {
	store         *cache.Sharded[float64]
	invalidations atomic.Uint64
}

// DefaultLayerCapacity is the entry bound used when capacity is not
// specified. Entries are (short string key, float64) pairs, so even the
// default is only a few MB.
const DefaultLayerCapacity = 1 << 16

// NewLayerCache returns a layer cache bounded to roughly capacity entries
// (0 means DefaultLayerCapacity).
func NewLayerCache(capacity int) *LayerCache {
	if capacity <= 0 {
		capacity = DefaultLayerCapacity
	}
	return &LayerCache{store: cache.NewSharded[float64](capacity)}
}

// LayerStats is a point-in-time snapshot of the cache counters.
type LayerStats struct {
	Hits, Misses, Evictions uint64
	Len                     int
	// Invalidations counts the invalidation events reported via
	// NoteInvalidation (e.g. registry rebinds); entries invalidate
	// implicitly through subtree versions, so this is an event count, not
	// an entry count.
	Invalidations uint64
}

// Stats returns the cache counters summed across shards.
func (l *LayerCache) Stats() LayerStats {
	h, m, e := l.store.Stats()
	return LayerStats{
		Hits: h, Misses: m, Evictions: e,
		Len:           l.store.Len(),
		Invalidations: l.invalidations.Load(),
	}
}

// NoteInvalidation records that cached entries were implicitly invalidated
// by a version-bumping mutation (a rebind or re-registration). Purely a
// counter for observability; no entries are touched.
func (l *LayerCache) NoteInvalidation() { l.invalidations.Add(1) }

// Purge drops every entry.
func (l *LayerCache) Purge() { l.store.Purge() }

// LayerEntry is one persisted layer-cache entry: the full compositional
// key (subtree version fold, method, abstracted args, ECV assignment)
// and the memoized scalar result.
type LayerEntry struct {
	Key    string
	Joules float64
}

// Snapshot copies every live entry out of the cache, for persistence
// across restarts. Keys embed subtree version folds, so restoring a
// snapshot taken before a rebind is harmless: stale entries are keyed
// by versions nothing references anymore and age out of the LRU.
func (l *LayerCache) Snapshot() []LayerEntry {
	out := make([]LayerEntry, 0, l.store.Len())
	l.store.Each(func(key string, v float64) bool {
		out = append(out, LayerEntry{Key: key, Joules: v})
		return true
	})
	return out
}

// Restore inserts snapshot entries into the cache (subject to the normal
// capacity bound) and returns how many were installed.
func (l *LayerCache) Restore(entries []LayerEntry) int {
	for _, e := range entries {
		l.store.Put(e.Key, e.Joules)
	}
	return len(entries)
}

func (l *LayerCache) put(key string, v float64) { l.store.Put(key, v) }

// layerEval is a LayerCache's view of one tree version: the shared store
// plus a descriptor for every binding path in the tree, built once per
// version (ecvPlan.layerFor) and shared read-only by its Evals' workers.
type layerEval struct {
	cache *LayerCache
	descs map[string]*layerDesc
}

// layerDesc describes one subtree (identified by its binding path from the
// evaluation root) for key construction.
type layerDesc struct {
	// prefix is the subtree version fold, pre-rendered: a fingerprint of
	// this node's version and, recursively, its bindings' folds. Two paths
	// that reach the *same* node (a shared lower layer) render the same
	// prefix, so their entries are shared.
	prefix string
	// ecvs lists the qualified (from the evaluation root) names of every
	// ECV reaching the subtree, in the deterministic TransitiveECVs order.
	// Only the assigned values enter the key — the order is fixed by the
	// prefix's version, so names are redundant.
	ecvs []string
}

// appendKey appends the cache key for invoking method with args under
// assign to dst.
func (d *layerDesc) appendKey(dst []byte, method string, args []Value, assign map[string]Value) []byte {
	b := append(append(dst, d.prefix...), '|')
	b = append(append(b, method...), "|A"...)
	for _, a := range args {
		b = append(a.AppendKey(b), ';')
	}
	b = append(b, "|E"...)
	for _, qn := range d.ecvs {
		b = append(assign[qn].AppendKey(b), ';')
	}
	return b
}

// evalContext builds the descriptor table for the tree rooted at
// root. Shared nodes (the same *Interface bound under several paths) get
// one descriptor per path, but identical prefixes — their cache entries
// coincide, which is exactly the cross-stack sharing the cache exists for.
func (l *LayerCache) evalContext(root *Interface) *layerEval {
	ev := &layerEval{cache: l, descs: map[string]*layerDesc{}}
	var walk func(n *Interface, path string) (uint64, []string)
	walk = func(n *Interface, path string) (uint64, []string) {
		names := make([]string, 0, len(n.ecvs))
		for _, e := range n.ecvs {
			qn := e.Name
			if path != "" {
				qn = path + "." + e.Name
			}
			names = append(names, qn)
		}
		// Order-sensitive fold of the node version with each child's fold
		// (splitmix-style finalization keeps distinct folds distinct in
		// practice; versions are globally unique to begin with).
		ver := mix64(n.version)
		for _, bn := range n.bindOrd {
			sub := bn
			if path != "" {
				sub = path + "." + bn
			}
			cv, cn := walk(n.bindings[bn], sub)
			ver = mix64(ver ^ cv)
			names = append(names, cn...)
		}
		ev.descs[path] = &layerDesc{prefix: strconv.FormatUint(ver, 36), ecvs: names}
		return ver, names
	}
	walk(root, "")
	return ev
}

// mix64 is the splitmix64 finalizer, used to fold subtree versions.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
