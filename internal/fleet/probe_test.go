package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// probeStacks is how many one-method stacks the probe tests shard over the
// ring: enough that every node of a 3-node fleet owns some.
const probeStacks = 12

// probeEIL declares the stacks: svc_<i>.price(n) is an ECV-weighted sum,
// so answers are real distributions and differ per stack and argument.
func probeEIL() string {
	var b strings.Builder
	for i := 0; i < probeStacks; i++ {
		fmt.Fprintf(&b, "interface svc_%d {\n  ecv hit: bernoulli(0.25)\n  func price(n) {\n    if hit { return %dmJ }\n    return 0.5mJ * n + %dmJ\n  }\n}\n", i, i+1, i)
	}
	return b.String()
}

func probeStack(i int) string { return fmt.Sprintf("svc_%d", i%probeStacks) }

// probeReqs builds n batch items over the stacks: item i asks svc_(i mod
// stacks).price(first+i).
func probeReqs(c *eisvc.Client, first, n int) []eisvc.EvalRequest {
	reqs := make([]eisvc.EvalRequest, n)
	for i := range reqs {
		reqs[i] = c.EvalRequestFor(probeStack(i), "price", []core.Value{core.Num(float64(first + i))}, core.Expected())
	}
	return reqs
}

// probeCounter counts the /v1/cachelookup requests a peer client sends
// and the keys they carry.
type probeCounter struct {
	inner          http.RoundTripper
	requests, keys atomic.Int64
}

func (p *probeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == eisvc.CacheLookupEndpoint.Path {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		raw, _ := io.ReadAll(body)
		probe, err := eisvc.CacheLookupEndpoint.Request.Decode(req.Header.Get("Content-Type"), raw)
		if err != nil {
			return nil, fmt.Errorf("probe frame: %w", err)
		}
		p.requests.Add(1)
		p.keys.Add(int64(len(probe.Keys)))
	}
	return p.inner.RoundTrip(req)
}

// countProbes wraps every node's peer client in a probeCounter, keyed by
// the probed node's ID.
func countProbes(f *Fleet) map[string]*probeCounter {
	counters := map[string]*probeCounter{}
	for _, n := range f.Nodes() {
		pc := &probeCounter{inner: eisvc.NewTransport(eisvc.TransportTuning{})}
		n.peer.SetTransport(pc)
		counters[n.ID] = pc
	}
	return counters
}

func nodeStats(t *testing.T, n *Node) *eisvc.StatsResponse {
	t.Helper()
	st, err := eisvc.NewClient(n.URL).StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameItems demands every batch item answered 200 with a distribution
// bit-identical to the reference run's.
func sameItems(t *testing.T, label string, got, want []eisvc.BatchEvalItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		for _, it := range []eisvc.BatchEvalItem{got[i], want[i]} {
			if it.Error != "" || it.Dist == nil {
				t.Fatalf("%s: item %d: %d %s", label, i, it.Status, it.Error)
			}
		}
		g, err := got[i].Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		w, err := want[i].Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("%s: item %d", label, i), g, w)
	}
}

// singleNodeReference answers reqs on a standalone one-node fleet: the
// bit-identity oracle.
func singleNodeReference(t *testing.T, reqs []eisvc.EvalRequest) []eisvc.BatchEvalItem {
	t.Helper()
	ref := startFleet(t, Config{Nodes: 1, Replication: 1})
	if _, err := ref.RegisterSource(probeEIL()); err != nil {
		t.Fatal(err)
	}
	items, err := eisvc.NewClient(ref.Nodes()[0].URL).EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestBatchProbesAreCountedPerPeer: the requests, not the time. A 256-item
// batch through the router — 231 warm items and 25 never-seen keys — makes
// each sub-batch look its misses up together: at most peers × rounds = 4
// probe requests per node, 12 in all (it was 2 per cold key, 50), carrying
// each cold key to both of its peers exactly once, and the per-key
// counters read what they read before.
func TestBatchProbesAreCountedPerPeer(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	const warm, cold = 231, 25
	if _, err := c.EvalBatchCtx(context.Background(), probeReqs(c, 0, warm)); err != nil {
		t.Fatal(err)
	}
	counters := countProbes(f)
	before := rt.Stats(context.Background()).Aggregate

	reqs := append(probeReqs(c, 0, warm), probeReqs(c, 100_000, cold)...)
	items, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "fleet batch", items, singleNodeReference(t, reqs))

	var requests, keys int64
	for _, pc := range counters {
		requests += pc.requests.Load()
		keys += pc.keys.Load()
	}
	if requests == 0 || requests > 12 {
		t.Errorf("batch issued %d probe requests, want 1..12", requests)
	}
	if keys != 2*cold {
		t.Errorf("probe requests carried %d keys, want %d (each cold key to both peers)", keys, 2*cold)
	}
	after := rt.Stats(context.Background()).Aggregate
	if got := after.PeerMisses - before.PeerMisses; got != cold {
		t.Errorf("peer_misses rose by %d, want %d (counted per key)", got, cold)
	}
	if got := after.PeerServed - before.PeerServed; got != 2*cold {
		t.Errorf("peer_served rose by %d, want %d (counted per key)", got, 2*cold)
	}
	if got := after.Evaluations - before.Evaluations; got != cold {
		t.Errorf("batch ran %d evaluations, want %d", got, cold)
	}
}

// TestBatchRehomesFromNonOwner: after a join and a drain, keys warm only
// on the drained non-owner come back from one batch flagged peer, with
// zero evaluations anywhere.
func TestBatchRehomesFromNonOwner(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	reqs := probeReqs(c, 0, 4*probeStacks)
	want, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	victim := f.OwnersOf(probeStack(0))[0] // warm: it served its share of the batch
	if _, err := f.AddNode(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.DrainNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	before := rt.Stats(context.Background()).Aggregate.Evaluations + nodeStats(t, mustNode(t, f, victim)).Evaluations

	got, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "rebalanced batch", got, want)
	peers := 0
	for i, it := range got {
		if !it.Cached && !it.Deduped {
			t.Errorf("item %d was evaluated again (%+v)", i, it)
		}
		if it.Peer {
			peers++
		}
	}
	if peers == 0 {
		t.Error("no item came from a peer; nothing was re-homed")
	}
	after := rt.Stats(context.Background()).Aggregate.Evaluations + nodeStats(t, mustNode(t, f, victim)).Evaluations
	if after != before {
		t.Errorf("rebalanced batch ran %d evaluations, want 0", after-before)
	}
}

func mustNode(t *testing.T, f *Fleet, id string) *Node {
	t.Helper()
	n, err := f.mustNode(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestProbeOrderOwnerFirst: with both other nodes holding a key, the
// stack's other owner is asked first and its answer is the one used — the
// non-owner is never asked, although it sorts first by ID.
func TestProbeOrderOwnerFirst(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	if _, err := f.RegisterSource(probeEIL()); err != nil {
		t.Fatal(err)
	}
	// Pick a stack and an asking owner such that the bystander's ID sorts
	// before the other owner's: plain ID order would ask the bystander.
	var stack string
	var asker, owner, bystander *Node
	for i := 0; i < probeStacks && stack == ""; i++ {
		owners := f.OwnersOf(probeStack(i))
		for _, n := range f.Nodes() {
			if n.ID != owners[0] && n.ID != owners[1] {
				bystander = n
			}
		}
		for a := range owners {
			if other := owners[1-a]; bystander.ID < other {
				stack, asker, owner = probeStack(i), mustNode(t, f, owners[a]), mustNode(t, f, other)
			}
		}
	}
	if stack == "" {
		t.Fatal("no stack whose bystander sorts before an owner; grow probeStacks")
	}
	ask := func(n *Node) eisvc.BatchEvalItem {
		t.Helper()
		c := eisvc.NewClient(n.URL)
		items, err := c.EvalBatchCtx(context.Background(), []eisvc.EvalRequest{
			c.EvalRequestFor(stack, "price", []core.Value{core.Num(7)}, core.Expected())})
		if err != nil || items[0].Error != "" {
			t.Fatalf("%s: %v %+v", n.ID, err, items)
		}
		return items[0]
	}
	if it := ask(owner); it.Cached || it.Peer {
		t.Fatalf("first ask was not an evaluation: %+v", it)
	}
	if it := ask(bystander); !it.Peer {
		t.Fatalf("bystander did not warm from the owner: %+v", it)
	}
	ownerBefore, bystanderBefore := nodeStats(t, owner), nodeStats(t, bystander)
	if it := ask(asker); !it.Peer || !it.Cached {
		t.Fatalf("asker's answer peer=%v cached=%v, want both", it.Peer, it.Cached)
	}
	if got := nodeStats(t, owner).PeerServedHits - ownerBefore.PeerServedHits; got != 1 {
		t.Errorf("other owner %s served %d probe hits, want 1", owner.ID, got)
	}
	if got := nodeStats(t, bystander).PeerServed - bystanderBefore.PeerServed; got != 0 {
		t.Errorf("bystander %s was probed for %d keys, want 0 (first hit wins)", bystander.ID, got)
	}
}

// TestProbePartitionFallsThrough: a partitioned peer costs a batch one
// failed request — not one per key — and the keys it carried go on to the
// next round, where the remaining peer answers what it holds. Every item
// is bit-identical to a single-node reference.
func TestProbePartitionFallsThrough(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	if _, err := f.RegisterSource(probeEIL()); err != nil {
		t.Fatal(err)
	}
	// One stack, asked at one of its owners: round 1 goes to the other
	// owner (partitioned), round 2 to the bystander (warm for half).
	stack := probeStack(0)
	owners := f.OwnersOf(stack)
	asker, cut := mustNode(t, f, owners[0]), mustNode(t, f, owners[1])
	var bystander *Node
	for _, n := range f.Nodes() {
		if n != asker && n != cut {
			bystander = n
		}
	}
	const keys = 10
	c := eisvc.NewClient(asker.URL)
	reqs := make([]eisvc.EvalRequest, keys)
	for i := range reqs {
		reqs[i] = c.EvalRequestFor(stack, "price", []core.Value{core.Num(float64(50 + i))}, core.Expected())
	}
	if err := f.PartitionNode(cut.ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := eisvc.NewClient(bystander.URL).EvalBatchCtx(context.Background(), reqs[:keys/2]); err != nil {
		t.Fatal(err)
	}
	counters := countProbes(f)
	servedBefore := nodeStats(t, bystander).PeerServed

	items, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "batch beside a partition", items, singleNodeReference(t, reqs))
	for i, it := range items {
		if it.Peer != (i < keys/2) {
			t.Errorf("item %d peer=%v, want %v (the bystander holds the first half)", i, it.Peer, i < keys/2)
		}
	}
	if got := counters[cut.ID].requests.Load(); got != 1 {
		t.Errorf("partitioned peer was sent %d probe requests, want 1 for the whole batch", got)
	}
	if got := counters[bystander.ID].requests.Load(); got != 1 {
		t.Errorf("next-round peer was sent %d probe requests, want 1", got)
	}
	if got := nodeStats(t, bystander).PeerServed - servedBefore; got != keys {
		t.Errorf("next-round peer was asked for %d keys, want all %d", got, keys)
	}
	st := nodeStats(t, asker)
	if st.PeerHits != keys/2 || st.PeerMisses != keys/2 || st.Evaluations != keys/2 {
		t.Errorf("asker peer_hits=%d peer_misses=%d evaluations=%d, want %d each",
			st.PeerHits, st.PeerMisses, st.Evaluations, keys/2)
	}
}

// TestConcurrentBatchesEvaluateOnce: two batches missing the same keys at
// the same time may both ask the peers, but meet in the singleflight:
// each key is evaluated once.
func TestConcurrentBatchesEvaluateOnce(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	const keys = 48
	reqs := probeReqs(c, 0, keys)
	var wg sync.WaitGroup
	results := make([][]eisvc.BatchEvalItem, 2)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items, err := c.EvalBatchCtx(context.Background(), reqs)
			if err != nil {
				t.Error(err)
			}
			results[g] = items
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	sameItems(t, "concurrent batches", results[0], results[1])
	if got := rt.Stats(context.Background()).Aggregate.Evaluations; got != keys {
		t.Errorf("two concurrent batches of %d shared keys ran %d evaluations, want %d", keys, got, keys)
	}
}
