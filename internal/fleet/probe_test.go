package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
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

// probeCounter counts the /v1/cachelookup requests a peer client sends,
// each checked to be a well-formed probe frame.
type probeCounter struct {
	inner    http.RoundTripper
	requests atomic.Int64
}

func (p *probeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == eisvc.CacheLookupEndpoint.Path {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		raw, _ := io.ReadAll(body)
		if _, err := eisvc.CacheLookupEndpoint.Request.Decode(req.Header.Get("Content-Type"), raw); err != nil {
			return nil, fmt.Errorf("probe frame: %w", err)
		}
		p.requests.Add(1)
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

// TestBatchProbesAreCountedPerPeer: the requests, not the time. The
// 231-item warm batch leaves every node holding both peers' memo
// summaries from this epoch, none of which can hold a never-seen key. So
// a 256-item batch through the router — those 231 items and 25 new keys —
// sends no probe at all: each new key is skipped, counted in peer_skipped
// and not in peer_misses, and evaluated once.
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
	before := rt.Stats(context.Background())

	reqs := append(probeReqs(c, 0, warm), probeReqs(c, 100_000, cold)...)
	items, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "fleet batch", items, singleNodeReference(t, reqs))

	var requests int64
	for _, pc := range counters {
		requests += pc.requests.Load()
	}
	if requests != 0 {
		t.Errorf("batch issued %d probe requests, want 0", requests)
	}
	after := rt.Stats(context.Background())
	if got := after.Aggregate.PeerSkipped - before.Aggregate.PeerSkipped; got != cold {
		t.Errorf("peer_skipped rose by %d, want %d (counted per key)", got, cold)
	}
	if got := after.Aggregate.PeerMisses - before.Aggregate.PeerMisses; got != 0 {
		t.Errorf("peer_misses rose by %d, want 0", got)
	}
	if got := after.Aggregate.Evaluations - before.Aggregate.Evaluations; got != cold {
		t.Errorf("batch ran %d evaluations, want %d", got, cold)
	}
	// Each node holds two summaries, 4 bytes per key of the peer's memo
	// when it was fetched (none, if the peer had evaluated nothing yet).
	if memo := 4 * after.Aggregate.MemoLen; after.SummaryBytes > 2*memo {
		t.Errorf("summaries hold %d bytes, want <= %d", after.SummaryBytes, 2*memo)
	}
}

// countPerRun is testing.AllocsPerRun that counts bytes too, with the GC
// off: the mean allocations and bytes (runtime.MemStats.TotalAlloc) of runs
// calls of f after one warm-up call. No pool is emptied mid-count, so both
// figures are exact.
func countPerRun(runs int, f func()) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRoutedBatchAllocs: the allocations of one 256-item batch through the
// router — 231 warm items and 25 new keys on a 3-node fleet, client
// included — counted. No probe leaves: every node holds its peers'
// summaries, which rule the new keys out. It was 2,224 when each new key
// was probed at both peers, and 980 (2 vCPU Xeon, go1.24; 970 with
// GOGC=off, where the count is exact). No item repeats, so no ref crosses:
// the router's per-item placement table is the one allocation refs add
// (969 → 970). The 231 warm items go held — the client holds the answers
// AllocsPerRun's warm-up run brought — so their vectors are neither in
// the nodes' answers the router reads nor decoded by the client: 752–757,
// 744–746 with GOGC=off. The same batch then goes out once a run from a
// new client that holds nothing, sharing the first one's transport, so
// that the path of full answers — the router's answer buffer with the
// vectors in it, the client's vector decode — stays counted too: 1,461
// with GOGC=off, 1,469 with it on (the 970 before held answers, plus two
// allocations for each of the 231 answers the new client holds, plus
// the client and its store). Then the nodes keyed each item off its bytes
// and decoded only the 25 new ones, the client's request went out as one
// exactly sized copy of a pooled encoding, and a singleflight that no
// follower joins stopped making its channel: 673 with GOGC=off, 677–678
// with it on; in full 1,387 and 1,394–1,397. The count now also takes
// bytes, and always with the GC off (countPerRun). Then a batch paid for
// its items once: the nodes keep per distinct key only its key's range,
// first item and outcome and find duplicates in a pooled map, the client
// keeps a WireDist slot only for an answer that carries a distribution,
// the router walks both frames into pooled arrays, and a sub-batch goes
// out of its connection's write buffer, not through a copy buffer per hop
// (eisvc.NewTransport): 673 → 621–622 allocations and 373–376 KB → 223–230
// KB; in full 1,388 → 1,336 and 466 KB → 348–350 KB. Then a batch's
// answer was laid out once per hop: the nodes write their answer frames
// item by item with no answer item array and pool their per-item and
// per-key arrays, the router reads node answers into pooled buffers and
// places items in one pooled array, and the client pools its holds:
// 533–534 allocations and 133–139 KB; in full 1,250–1,251 and 244–248
// KB (30 runs, each its own process). The bounds are 3% over the highest
// of those runs.
func TestRoutedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const warm, cold, runs, bound, fullBound = 231, 25, 20, 551, 1289
	const byteBound, fullByteBound = 143_000, 256_000
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	tr := eisvc.NewTransport(eisvc.TransportTuning{}) // shared with the clients holding nothing below
	c.SetTransport(tr)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	warmReqs := probeReqs(c, 0, warm)
	if _, err := c.EvalBatchCtx(context.Background(), warmReqs); err != nil {
		t.Fatal(err)
	}
	batches := make([][]eisvc.EvalRequest, 2*(runs+1)) // each count's AllocsPerRun warm-up run, then runs
	for i := range batches {
		batches[i] = append(warmReqs[:warm:warm], probeReqs(c, 100_000*(i+1), cold)...)
	}
	counters := countProbes(f)
	next := 0
	allocs, bytes := countPerRun(runs, func() {
		items, err := c.EvalBatchCtx(context.Background(), batches[next])
		next++
		if err != nil || len(items) != warm+cold || items[warm].Cached {
			t.Fatalf("batch: %d items, err %v", len(items), err)
		}
	})
	for id, pc := range counters {
		if n := pc.requests.Load(); n != 0 {
			t.Errorf("%s was probed %d times, want 0", id, n)
		}
	}
	if held := c.Counters().Held; held != runs*warm {
		t.Errorf("%d answers came back held, want %d", held, runs*warm)
	}
	t.Logf("routed %d-item batch (%d new keys): %.0f allocs, %.0f bytes", warm+cold, cold, allocs, bytes)
	if allocs > bound || bytes > byteBound {
		t.Errorf("routed batch made %.0f allocations of %.0f bytes, want <= %d and %d", allocs, bytes, bound, byteBound)
	}

	// The same from a new client each run, which holds nothing: the warm
	// answers come back in full, and it holds them.
	full, fullBytes := countPerRun(runs, func() {
		fresh := eisvc.NewClient(c.Base())
		fresh.SetTransport(tr)
		fresh.ID = c.ID
		items, err := fresh.EvalBatchCtx(context.Background(), batches[next])
		next++
		if err != nil || len(items) != warm+cold || items[0].Dist == nil || fresh.Counters().Held != 0 {
			t.Fatalf("batch in full: %d items, err %v", len(items), err)
		}
	})
	t.Logf("the same, answered in full: %.0f allocs, %.0f bytes", full, fullBytes)
	if full > fullBound || fullBytes > fullByteBound {
		t.Errorf("routed batch answered in full made %.0f allocations of %.0f bytes, want <= %d and %d", full, fullBytes, fullBound, fullByteBound)
	}
}

// TestRoutedBatchRetainsNothing: the router's pooled walk arrays and the
// nodes' pooled dedup maps and miss lists keep no frame, key or answer of
// a batch alive once it is answered. 400 batches of 255 warm items and one
// new key go through the router of a 3-node fleet; every new key stays in
// a memo. A walk array that kept its items would pin a frame each time it
// came back from the pool, and a miss list that kept its entries would
// grow by one per batch; the heap may grow by 1 MiB.
func TestRoutedBatchRetainsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory grows the heap")
	}
	const batches, warm, maxGrowth = 400, 255, 1 << 20
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	reqs := probeReqs(c, 0, warm+1)
	send := func(b int) {
		reqs[warm] = probeReqs(c, 1_000_000+b, 1)[0] // the new key
		items, err := c.EvalBatchCtx(context.Background(), reqs)
		if err != nil || len(items) != warm+1 || items[warm].Cached || b >= 0 && !items[0].Cached {
			t.Fatalf("batch %d: %d items, err %v", b, len(items), err)
		}
	}
	for b := range 10 { // warm the memos and every pool
		send(-1 - b)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for b := range batches {
		send(b)
	}
	after := heap()
	t.Logf("%d routed batches, %d new keys kept: heap %+d bytes", batches, batches, int64(after)-int64(before))
	if after > before+maxGrowth {
		t.Errorf("heap grew %d bytes over %d routed batches, want <= %d", after-before, batches, maxGrowth)
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

// askDirect sends one price(arg) item of stack straight to node n, past
// the router, and returns its answer.
func askDirect(t *testing.T, n *Node, stack string, arg float64) eisvc.BatchEvalItem {
	t.Helper()
	c := eisvc.NewClient(n.URL)
	items, err := c.EvalBatchCtx(context.Background(), []eisvc.EvalRequest{
		c.EvalRequestFor(stack, "price", []core.Value{core.Num(arg)}, core.Expected())})
	if err != nil || items[0].Error != "" {
		t.Fatalf("%s: %v %+v", n.ID, err, items)
	}
	return items[0]
}

// holdsSummary reports whether asker holds peer's summary from this epoch.
func holdsSummary(f *Fleet, asker, peer *Node) bool {
	return asker.summaryOf(peer, f.epoch.Load()) != nil
}

// fleetEvaluations sums evaluations over every node.
func fleetEvaluations(t *testing.T, f *Fleet) (sum uint64) {
	t.Helper()
	for _, n := range f.Nodes() {
		sum += nodeStats(t, n).Evaluations
	}
	return sum
}

// TestSummaryStaleAfterJoin: a summary is believed only in its epoch. B
// holds A's summary; A then evaluates two keys asked of it directly, which
// the summary cannot show. Asked for the first in the same epoch, B trusts
// the summary and evaluates (the false negative a request that bypasses
// the router can meet). After a join, the summary is stale: asked for the
// second, B probes and answers from A, with no evaluation anywhere, and
// keeps A's summary: at least the two keys' 8 bytes.
func TestSummaryStaleAfterJoin(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, _ := startTestRouter(t, f)
	if _, err := f.RegisterSource(probeEIL()); err != nil {
		t.Fatal(err)
	}
	stack := probeStack(0)
	nodes := f.Nodes()
	a, b := nodes[0], nodes[1]
	askDirect(t, b, stack, 1) // B probes both peers, summary bit set
	if !holdsSummary(f, b, a) {
		t.Fatal("B holds no summary of A from this epoch")
	}
	askDirect(t, a, stack, 2)
	askDirect(t, a, stack, 3)

	before := fleetEvaluations(t, f)
	if it := askDirect(t, b, stack, 2); it.Peer || it.Cached {
		t.Errorf("same epoch: B's answer peer=%v cached=%v, want an evaluation", it.Peer, it.Cached)
	}
	if got := fleetEvaluations(t, f) - before; got != 1 {
		t.Errorf("same epoch: %d evaluations, want 1", got)
	}

	if _, err := f.AddNode(); err != nil {
		t.Fatal(err)
	}
	before = fleetEvaluations(t, f)
	if it := askDirect(t, b, stack, 3); !it.Peer || !it.Cached {
		t.Errorf("after the join: B's answer peer=%v cached=%v, want both", it.Peer, it.Cached)
	}
	if got := fleetEvaluations(t, f) - before; got != 0 {
		t.Errorf("after the join: %d evaluations, want 0", got)
	}
	if got := rt.Stats(context.Background()).SummaryBytes; got < 8 {
		t.Errorf("summary_bytes = %d, want >= 8", got)
	}
}

// TestFailedProbeInstallsNoSummary: a probe to a partitioned peer installs
// no summary. While the partition lasts the asker has nothing to rule keys
// out with, so every batch sends that peer a probe again, while the peer
// that answered, whose summary rules the new keys out, is not asked. After
// the heal the next batch probes the healed peer and keeps its summary.
func TestFailedProbeInstallsNoSummary(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	if _, err := f.RegisterSource(probeEIL()); err != nil {
		t.Fatal(err)
	}
	stack := probeStack(0)
	owners := f.OwnersOf(stack)
	asker, cut := mustNode(t, f, owners[0]), mustNode(t, f, owners[1])
	var bystander *Node
	for _, n := range f.Nodes() {
		if n != asker && n != cut {
			bystander = n
		}
	}
	if err := f.PartitionNode(cut.ID, true); err != nil {
		t.Fatal(err)
	}
	counters := countProbes(f)
	batch := func(first int) {
		t.Helper()
		c := eisvc.NewClient(asker.URL)
		reqs := make([]eisvc.EvalRequest, 4)
		for i := range reqs {
			reqs[i] = c.EvalRequestFor(stack, "price", []core.Value{core.Num(float64(first + i))}, core.Expected())
		}
		items, err := c.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.Error != "" || it.Peer {
				t.Fatalf("item %d: %d %s peer=%v", i, it.Status, it.Error, it.Peer)
			}
		}
	}
	probes := func(want map[*Node]int64) {
		t.Helper()
		for n, w := range want {
			if got := counters[n.ID].requests.Load(); got != w {
				t.Errorf("%s was sent %d probe requests, want %d", n.ID, got, w)
			}
		}
	}

	batch(0)
	probes(map[*Node]int64{cut: 1, bystander: 1})
	if holdsSummary(f, asker, cut) || !holdsSummary(f, asker, bystander) {
		t.Fatalf("after the failed probe: summary of %s held=%v, of %s held=%v; want only the bystander's",
			cut.ID, holdsSummary(f, asker, cut), bystander.ID, holdsSummary(f, asker, bystander))
	}
	batch(100)
	probes(map[*Node]int64{cut: 2, bystander: 1})

	if err := f.PartitionNode(cut.ID, false); err != nil {
		t.Fatal(err)
	}
	batch(200)
	probes(map[*Node]int64{cut: 3})
	if !holdsSummary(f, asker, cut) {
		t.Error("after the heal the asker holds no summary of the healed peer")
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
