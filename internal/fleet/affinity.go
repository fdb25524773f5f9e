package fleet

import "sync"

// affinity remembers which node last served each evaluation fingerprint
// from its memo, so the router can aim the next identical request at the
// replica that is already warm. Ring placement decides where a key
// *should* live, but failovers, sheds, and spread rotation mean the
// actual warm copy can sit on any replica — recording the last hit turns
// the second request into a guaranteed memo hit instead of a fresh miss
// on a colder sibling.
//
// The map is bounded with two generations: writes fill cur, and when cur
// reaches affinityCap it rotates into prev and starts empty. Reads consult
// both. The effect is an LRU-ish bound with O(1) operations and no
// per-entry bookkeeping — at most 2×affinityCap entries live, and an entry
// survives at least one full generation of distinct keys before
// eviction.
type affinity struct {
	mu   sync.Mutex
	cur  map[uint64]string
	prev map[uint64]string
}

// affinityCap bounds one generation of the router's affinity map.
// 4096 entries × ~24 bytes is ~100 KB per generation — noise next to the
// memo caches it protects.
const affinityCap = 4096

func newAffinity() *affinity {
	return &affinity{cur: make(map[uint64]string)}
}

// get returns the node that last memo-served this fingerprint, if known.
func (a *affinity) get(key uint64) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.cur[key]; ok {
		return id, true
	}
	id, ok := a.prev[key]
	return id, ok
}

// put records a memo hit for the fingerprint, rotating generations when
// the current one is full.
func (a *affinity) put(key uint64, nodeID string) {
	if nodeID == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.cur[key]; !ok && len(a.cur) >= affinityCap {
		a.prev = a.cur
		a.cur = make(map[uint64]string, affinityCap/4)
	}
	a.cur[key] = nodeID
}
