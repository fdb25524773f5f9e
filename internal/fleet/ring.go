// Package fleet turns N eisvc daemons into one sharded, replicated
// serving cluster: a consistent-hash ring assigns interface stacks to
// nodes, a router fronts the fleet with the same wire API as a single
// daemon, the versioned registry replicates via snapshots piggybacked on
// register/rebind, and memo misses forward peer-to-peer so one node's
// warm cache serves the whole fleet. See docs/FLEET.md.
package fleet

import (
	"sort"
	"strconv"

	"energyclarity/internal/eisvc"
)

// DefaultVirtualNodes is how many ring points each node projects. More
// points smooth the shard distribution (stddev of load shrinks roughly
// with 1/sqrt(vnodes)) at the cost of a larger sorted ring.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over node IDs. Keys (interface-stack
// names) hash onto a circle; a key's owners are the first R distinct
// nodes clockwise from its hash point. Adding or removing one node moves
// only the keys adjacent to its points — the property that makes
// join/drain rebalancing cheap.
//
// Ring is not safe for concurrent mutation; the Fleet serializes access.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given points per node
// (<= 0 means DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: map[string]bool{}}
}

// Add inserts a node's virtual points. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: eisvc.Hash64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node's points. Removing an unknown node is a no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether the node is on the ring.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the ring's node IDs, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the first n distinct nodes clockwise from key's hash
// point: the key's owner (first) and its replicas. When the ring holds
// fewer than n nodes, every node is returned. The order is deterministic
// for a given ring membership, so every router instance agrees on owners
// without coordination.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := eisvc.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Owner returns the key's primary owner ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	owners := r.Lookup(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
