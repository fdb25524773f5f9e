package fleet

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/faultsim"
)

// DefaultReplication is how many nodes own each interface stack: the
// primary plus one replica, so any single node failure leaves every
// shard served.
const DefaultReplication = 2

// DefaultPeerTimeout bounds one peer cache probe. A probe is a pure memo
// read (sub-millisecond on loopback); anything slower means the peer is
// dead, partitioned, or overloaded, and evaluating locally is cheaper
// than waiting.
const DefaultPeerTimeout = 75 * time.Millisecond

// Config sizes a fleet. The zero value makes a 3-node cluster with
// replication 2.
type Config struct {
	// Nodes is the initial node count (default 3).
	Nodes int
	// Replication is how many ring owners each interface stack gets
	// (default DefaultReplication; capped at the node count at lookup).
	Replication int
	// VirtualNodes is the ring points per node (default DefaultVirtualNodes).
	VirtualNodes int
	// Node is the per-daemon configuration; NodeID is overwritten with the
	// fleet-assigned ID.
	Node eisvc.Config
	// SnapshotDir, when set, turns on persistent warm-start caches: each
	// node loads <dir>/<id>.eisnap at boot (a missing or corrupt file
	// means a cold start, never an error), DrainNode saves one after the
	// drain completes, and RestartNode recovers a killed node's memo from
	// its last snapshot instead of re-homing every key over HTTP.
	SnapshotDir string
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	return c
}

type nodeState = int32

const (
	stateLive nodeState = iota
	stateDraining
	stateDead
)

// Node is one daemon in the fleet: an eisvc.Server bound to a loopback
// listener, plus the fleet's plumbing around it.
type Node struct {
	ID     string
	Server *eisvc.Server
	URL    string

	urls map[string]string // URL joined with each table endpoint's path
	ln   *faultsim.FlakyListener
	stop func()        // closes the listener and connections, waits for the serve loop
	peer *eisvc.Client // short-timeout, no-retry client for cache probes
	sums sync.Map      // peer ID -> summary: what this node knows of its peers' memos

	state atomic.Int32 // a nodeState
}

// url returns the node's URL for path.
func (n *Node) url(path string) string {
	if u, ok := n.urls[path]; ok {
		return u
	}
	return n.URL + path
}

// Live reports whether the node is accepting evaluation work.
func (n *Node) Live() bool { return n.state.Load() == stateLive }

// reachable nodes answer HTTP at all: live ones serve everything,
// draining ones still serve reads — including cache probes, which is
// what makes drain-rebalancing free for warm keys.
func (n *Node) reachable() bool { return n.state.Load() != stateDead }

// Fleet is a sharded, replicated cluster of eisvc daemons. Construct
// with New, seed interfaces (SeedInterface / RegisterSource), and front
// it with NewRouter. All membership mutations (AddNode, DrainNode,
// KillNode, ...) are safe for concurrent use with routing.
type Fleet struct {
	cfg Config

	mu     sync.RWMutex // guards ring + nodes map
	ring   *Ring
	nodes  map[string]*Node
	nextID int
	sorted atomic.Pointer[[]*Node] // nodes by ID, rebuilt under mu on change

	// mutMu serializes registry mutations fleet-wide: one register/rebind
	// at a time flows to the primary and replicates before the next, so
	// every node assigns/observes versions in the same order.
	mutMu sync.Mutex

	// epoch is the membership epoch: every change to where a key is routed
	// or who answers a probe — a join or restart, a drain's ring removal
	// and its end, a kill, a removal, a partition or a heal — bumps it.
	epoch atomic.Uint64
}

// New starts cfg.Nodes daemons on ephemeral loopback ports and places
// them on the ring. Close the fleet to stop them.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:   cfg,
		ring:  NewRing(cfg.VirtualNodes),
		nodes: map[string]*Node{},
	}
	f.snapshotMembers()
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := f.AddNode(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// startNode boots one daemon on an ephemeral loopback port.
func (f *Fleet) startNode(id string) (*Node, error) {
	ncfg := f.cfg.Node
	ncfg.NodeID = id
	srv := eisvc.NewServer(ncfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", id, err)
	}
	fl := &faultsim.FlakyListener{Listener: ln}
	n := &Node{
		ID:     id,
		Server: srv,
		URL:    "http://" + ln.Addr().String(),
		ln:     fl,
	}
	n.urls = eisvc.EndpointURLs(n.URL)
	n.peer = eisvc.NewClient(n.URL)
	n.peer.ID, n.peer.Timeout = "fleet-peer", DefaultPeerTimeout
	srv.SetPeerLookup(f.peerLookupFor(n))
	if path := f.snapshotPath(id); path != "" {
		// Load errors (missing file, corruption) mean a cold start; the
		// snapshot layer guarantees a rejected file installs nothing.
		_, _, _ = srv.LoadCacheSnapshot(path)
	}
	n.stop = eisvc.ServeOn(fl, srv)
	return n, nil
}

// snapshotPath returns node id's snapshot file, or "" when the fleet has
// no snapshot directory configured.
func (f *Fleet) snapshotPath(id string) string {
	if f.cfg.SnapshotDir == "" {
		return ""
	}
	return filepath.Join(f.cfg.SnapshotDir, id+".eisnap")
}

// SaveCacheSnapshots persists every reachable node's caches to the
// fleet's snapshot directory, returning the first error encountered.
func (f *Fleet) SaveCacheSnapshots() error {
	if f.cfg.SnapshotDir == "" {
		return fmt.Errorf("fleet: no SnapshotDir configured")
	}
	var first error
	for _, n := range f.Nodes() {
		if !n.reachable() {
			continue
		}
		if err := n.Server.SaveCacheSnapshot(f.snapshotPath(n.ID)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RestartNode replaces a killed node with a fresh daemon of the same ID
// on a new port: the crash-recovery path. The replacement loads the
// node's persisted cache snapshot (when the fleet has a SnapshotDir),
// pulls the current registry from any reachable peer, and inherits its
// old shards directly — KillNode deliberately leaves the corpse's ring
// points in place so the restart owns exactly what the crash dropped.
func (f *Fleet) RestartNode(id string) (*Node, error) {
	old, err := f.mustNode(id)
	if err != nil {
		return nil, err
	}
	if old.state.Load() != stateDead {
		return nil, fmt.Errorf("fleet: node %s is not dead", id)
	}
	return f.join(id) // ring.Add is a no-op unless the node had been removed
}

// join boots daemon id, replicates the current registry into it, and
// then puts it on the ring — in that order, so the node never owns a
// shard it cannot serve.
func (f *Fleet) join(id string) (*Node, error) {
	n, err := f.startNode(id)
	if err != nil {
		return nil, err
	}
	if src := f.anyReachable(); src != nil {
		n.Server.ApplyRegistrySnapshot(src.Server.Registry().Snapshot())
	}
	f.mu.Lock()
	f.nodes[id] = n
	f.ring.Add(id)
	f.snapshotMembers()
	f.mu.Unlock()
	f.epoch.Add(1)
	return n, nil
}

// mustNode returns a node by ID, or the error every membership
// operation gives for an unknown one.
func (f *Fleet) mustNode(id string) (*Node, error) {
	if n, ok := f.Node(id); ok {
		return n, nil
	}
	return nil, fmt.Errorf("fleet: no node %s", id)
}

// AddNode boots a fresh daemon and joins it to the fleet (see join). The
// keys that move to it are cold there but warm on their previous owners;
// the peer cache path makes the handoff an O(keys-moved) set of
// sub-millisecond probes instead of a re-trace.
func (f *Fleet) AddNode() (*Node, error) {
	f.mu.Lock()
	f.nextID++
	id := "node-" + strconv.Itoa(f.nextID)
	f.mu.Unlock()
	return f.join(id)
}

// DrainNode removes the node from the ring (its shards re-home to ring
// neighbors immediately) and gracefully drains it: in-flight evaluations
// finish, new evaluation work is shed, but the process stays up and
// keeps answering /v1/cachelookup — donating its warm memo to the nodes
// that inherited its shards.
func (f *Fleet) DrainNode(ctx context.Context, id string) error {
	n, err := f.mustNode(id)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.ring.Remove(id)
	f.mu.Unlock()
	n.state.Store(stateDraining)
	f.epoch.Add(1)
	err = n.Server.Drain(ctx)
	f.epoch.Add(1) // the evaluations the drain waited for are in its memo now
	if path := f.snapshotPath(id); path != "" {
		// The on-drain snapshot: the drained node's warm memo persists so a
		// later restart (or an operator re-adding the box) starts warm.
		if serr := n.Server.SaveCacheSnapshot(path); err == nil {
			err = serr
		}
	}
	return err
}

// KillNode abruptly stops a node: listener and all connections close
// mid-flight, nothing is drained, and — deliberately — the node stays on
// the ring. Routing discovers the corpse through failed forwards and
// fails over to the replica, which is exactly the fault the replication
// factor exists for.
func (f *Fleet) KillNode(id string) error {
	n, err := f.mustNode(id)
	if err != nil {
		return err
	}
	n.state.Store(stateDead)
	n.stop()
	f.epoch.Add(1)
	return nil
}

// PartitionNode cuts (or heals) the network in front of a node without
// stopping it: open connections are severed and new ones dropped, so the
// node looks exactly like a network-partitioned peer — alive, burning
// CPU, unreachable.
func (f *Fleet) PartitionNode(id string, cut bool) error {
	n, err := f.mustNode(id)
	if err != nil {
		return err
	}
	n.ln.Partition(cut) // see faultsim.FlakyListener.Partition
	f.epoch.Add(1)
	return nil
}

// Node returns a node by ID.
func (f *Fleet) Node(id string) (*Node, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, ok := f.nodes[id]
	return n, ok
}

// Nodes returns all nodes (any state), sorted by ID: the membership
// snapshot, shared by every caller, so read-only. A change replaces it.
func (f *Fleet) Nodes() []*Node { return *f.sorted.Load() }

// snapshotMembers rebuilds the snapshot Nodes returns; f.mu is held.
func (f *Fleet) snapshotMembers() {
	m := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		m = append(m, n)
	}
	slices.SortFunc(m, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	f.sorted.Store(&m)
}

// LiveNodes returns the nodes currently accepting evaluation work.
func (f *Fleet) LiveNodes() []*Node {
	return f.ordered(nil, 0, (*Node).Live)
}

// ordered lists the members keep accepts: prefer's first, from
// prefer[start mod len] on and wrapping, then every other member by ID.
// It allocates only its result.
func (f *Fleet) ordered(prefer []string, start uint64, keep func(*Node) bool) []*Node {
	nodes := f.Nodes()
	out := make([]*Node, 0, len(nodes))
	p := uint64(len(prefer))
	for i := range prefer {
		id := prefer[(start%p+uint64(i))%p]
		if j := slices.IndexFunc(nodes, func(n *Node) bool { return n.ID == id }); j >= 0 && keep(nodes[j]) {
			out = append(out, nodes[j])
		}
	}
	for _, n := range nodes {
		if keep(n) && !slices.Contains(prefer, n.ID) {
			out = append(out, n)
		}
	}
	return out
}

// preferred returns where a request for a stack with these ring owners
// goes first, alone or as a batch item: the first live owner from
// owners[spread mod len] on, wrapping — the head of ordered(owners,
// spread, (*Node).Live), found without building that list. It returns ""
// when no owner is live.
func (f *Fleet) preferred(owners []string, spread uint64) string {
	nodes := f.Nodes()
	p := uint64(len(owners))
	for i := range owners {
		id := owners[(spread%p+uint64(i))%p]
		j, ok := slices.BinarySearchFunc(nodes, id, func(n *Node, id string) int { return strings.Compare(n.ID, id) })
		if ok && nodes[j].Live() {
			return id
		}
	}
	return ""
}

// OwnersOf returns the ring owners for an interface stack, primary first.
func (f *Fleet) OwnersOf(stack string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.Lookup(stack, f.cfg.Replication)
}

// anyReachable returns some node that answers HTTP, preferring live ones.
func (f *Fleet) anyReachable() *Node {
	var fallback *Node
	for _, n := range f.Nodes() {
		switch n.state.Load() {
		case stateLive:
			return n
		case stateDraining:
			if fallback == nil {
				fallback = n
			}
		}
	}
	return fallback
}

// primary returns the mutation primary: the lowest-ID live node. Every
// register/rebind funnels through it (under mutMu), so version numbers
// are assigned in one total order and replicate outward.
func (f *Fleet) primary() *Node {
	nodes := f.LiveNodes()
	if len(nodes) == 0 {
		return nil
	}
	return nodes[0]
}

// ReplicateFrom pushes src's registry snapshot to every other reachable
// node. Snapshots share interface pointers (core.Interface is immutable
// after registration), so replication is O(entries), not O(tree).
func (f *Fleet) ReplicateFrom(src *Node) {
	snap := src.Server.Registry().Snapshot()
	for _, n := range f.Nodes() {
		if n.ID != src.ID && n.reachable() {
			n.Server.ApplyRegistrySnapshot(snap)
		}
	}
}

// SeedInterface registers a natively-built interface on the primary and
// replicates it fleet-wide — how calibrated hardware stacks (which hold
// Go closures and cannot travel as EIL source) enter the fleet.
func (f *Fleet) SeedInterface(name string, iface *core.Interface) error {
	f.mutMu.Lock()
	defer f.mutMu.Unlock()
	p := f.primary()
	if p == nil {
		return fmt.Errorf("fleet: no live nodes")
	}
	if _, err := p.Server.Registry().RegisterInterface(name, iface); err != nil {
		return err
	}
	f.ReplicateFrom(p)
	return nil
}

// RegisterSource compiles EIL source on the primary and replicates the
// declared interfaces fleet-wide, returning their names.
func (f *Fleet) RegisterSource(src string) ([]string, error) {
	f.mutMu.Lock()
	defer f.mutMu.Unlock()
	p := f.primary()
	if p == nil {
		return nil, fmt.Errorf("fleet: no live nodes")
	}
	names, err := p.Server.Registry().RegisterSource(src)
	if err != nil {
		return nil, err
	}
	f.ReplicateFrom(p)
	return names, nil
}

// Close stops every node abruptly. The fleet is unusable afterwards.
func (f *Fleet) Close() {
	f.mu.Lock()
	nodes := f.Nodes()
	f.nodes = map[string]*Node{}
	f.ring = NewRing(f.cfg.VirtualNodes)
	f.snapshotMembers()
	f.mu.Unlock()
	for _, n := range nodes {
		n.state.Store(stateDead)
		n.stop()
	}
}

// peerLookupFor builds node self's fleet-cache hook. Each key missed
// locally is looked for at the stack's other ring owners first (they are
// where the key is warm by construction), then at every other reachable
// node (where warm entries live right after a membership change); first
// hit wins. A peer whose summary is from this epoch and lacks the key's
// fingerprint is passed over; a key every peer is passed over for is
// Skipped. The probes leave in rounds: round r sends every key still
// missing to its next target, one request per distinct target, each
// bounded by DefaultPeerTimeout; a failed one is a miss for the keys it
// carried, so a dead or partitioned peer costs a batch one timeout. The
// first round bounds them all by the caller's deadline too, so a lookup
// every summary rules out makes no timer. When every key is skipped — no
// other node is reachable, or every reachable peer's summary rules every
// key out — it returns nil before allocating anything.
func (f *Fleet) peerLookupFor(self *Node) eisvc.PeerLookup {
	return func(ctx context.Context, deadline time.Time, keys []string) []eisvc.PeerAnswer {
		epoch := f.epoch.Load()
		mayAsk := func(n *Node, fp uint32) bool {
			sum := self.summaryOf(n, epoch)
			_, held := slices.BinarySearch(sum, fp)
			return n != self && n.reachable() && (sum == nil || held)
		}
		askable := func(fp uint32) bool {
			return slices.ContainsFunc(f.Nodes(), func(n *Node) bool { return mayAsk(n, fp) })
		}
		if !slices.ContainsFunc(keys, func(key string) bool { return askable(eisvc.Fingerprint(key)) }) {
			return nil
		}
		answers := make([]eisvc.PeerAnswer, len(keys))
		// A key's probe order is a function of its stack alone.
		byStack := map[string][]*Node{}
		order := make([][]*Node, len(keys))
		fps := make([]uint32, len(keys))
		for i, key := range keys {
			fps[i] = eisvc.Fingerprint(key)
			if !askable(fps[i]) {
				answers[i].Skipped = true
				continue
			}
			stack := eisvc.KeyStack(key)
			targets, ok := byStack[stack]
			if !ok {
				targets = f.ordered(f.OwnersOf(stack), 0, func(n *Node) bool { return n != self && n.reachable() })
				byStack[stack] = targets
			}
			order[i] = targets
		}
		for round := 0; ; round++ {
			var targets []*Node
			missing := map[*Node][]int{} // target -> indexes into keys
			for i := range keys {
				for !answers[i].Found && len(order[i]) > 0 && !mayAsk(order[i][0], fps[i]) {
					order[i] = order[i][1:]
				}
				if answers[i].Found || len(order[i]) == 0 {
					continue
				}
				n := order[i][0]
				order[i] = order[i][1:]
				if _, seen := missing[n]; !seen {
					targets = append(targets, n)
				}
				missing[n] = append(missing[n], i)
			}
			if len(targets) == 0 {
				return answers
			}
			if round == 0 {
				var cancel context.CancelFunc
				ctx, cancel = cache.Until(ctx, deadline)
				defer cancel()
			}
			for _, n := range targets {
				f.probe(ctx, self, n, epoch, keys, missing[n], answers)
			}
		}
	}
}

// probe asks node n, for self, for the keys at idx in one request and
// files what it held under answers; any failure is a miss for all of
// them. Without n's summary from epoch, it asks for that too and keeps it.
func (f *Fleet) probe(ctx context.Context, self, n *Node, epoch uint64, keys []string, idx []int, answers []eisvc.PeerAnswer) {
	ask := make([]string, len(idx))
	for j, i := range idx {
		ask[j] = keys[i]
	}
	got, sum, err := n.peer.CacheLookupCtx(ctx, ask, self.summaryOf(n, epoch) == nil) // bounded by the peer client's Timeout
	if err != nil {
		return
	}
	if sum != nil && f.epoch.Load() == epoch { // else a membership change came in between
		self.sums.Store(n.ID, summary{epoch, sum})
	}
	for j, i := range idx {
		if got[j].Found {
			answers[i] = got[j]
		}
	}
}

// summary is a peer's memo summary (see eisvc.CacheLookupResponse) and
// the epoch it was fetched in: 4 bytes per entry of the peer's memo.
type summary struct {
	epoch uint64
	fps   []uint32
}

// summaryOf returns the summary n holds of peer if it is from epoch, else nil.
func (n *Node) summaryOf(peer *Node, epoch uint64) []uint32 {
	if v, ok := n.sums.Load(peer.ID); ok && v.(summary).epoch == epoch {
		return v.(summary).fps
	}
	return nil
}
