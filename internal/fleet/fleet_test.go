package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
)

// fleetEIL mirrors the two-layer stack the eisvc tests serve: two ECVs,
// so every mode yields a non-trivial distribution.
const fleetEIL = `
interface accel_hw {
  func conv2d(n) { return 0.004mJ * n }
  func mlp(n)    { return 0.01mJ * n }
}
interface ml_webservice {
  ecv request_hit: bernoulli(0.3)
  ecv local_cache_hit: bernoulli(0.8)
  uses accel: accel_hw
  func handle(request) {
    if request_hit {
      if local_cache_hit { return 5mJ * 1024 }
      return 100mJ * 1024
    }
    return 8 * accel.conv2d(request.pixels - request.zeros) + 16 * accel.mlp(256)
  }
}
`

const fleetAltHW = `
interface accel_hw_v2 {
  func conv2d(n) { return 0.008mJ * n }
  func mlp(n)    { return 0.02mJ * n }
}
`

func startFleet(t testing.TB, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func startTestRouter(t testing.TB, f *Fleet) (*Router, *eisvc.Client) {
	t.Helper()
	rt, url, shutdown, err := f.StartRouter("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	c := eisvc.NewClient(url)
	c.ID = "fleet-test"
	return rt, c
}

func traceArgs(k int) []core.Value {
	return []core.Value{core.Record(map[string]core.Value{
		"pixels": core.Num(640 * 480),
		"zeros":  core.Num(float64(1000 * (k + 1))),
	})}
}

var traceOpts = core.EvalOptions{Mode: core.ModeMonteCarlo, Samples: 256, Seed: 7}

// refDists evaluates the trace classes on a standalone reference daemon:
// the bit-identity oracle for every fleet answer.
func refDists(t testing.TB, distinct int) []energy.Dist {
	t.Helper()
	ref := eisvc.NewServer(eisvc.Config{})
	ts := httptest.NewServer(ref)
	t.Cleanup(ts.Close)
	c := eisvc.NewClient(ts.URL)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	out := make([]energy.Dist, distinct)
	for k := range out {
		d, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = d
	}
	return out
}

func bitIdentical(t *testing.T, label string, got, want energy.Dist) {
	t.Helper()
	if !got.Equal(want, 0) {
		t.Fatalf("%s: distribution differs from the single-node reference", label)
	}
}

// TestFleetRoutingAndReplication: a register through the router lands on
// every node with one shared version, evals route with node attribution,
// and the aggregate stats see the whole cluster.
func TestFleetRoutingAndReplication(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}

	var version uint64
	for i, n := range f.Nodes() {
		_, v, ok := n.Server.Registry().Get("ml_webservice")
		if !ok {
			t.Fatalf("%s: ml_webservice not replicated", n.ID)
		}
		if i == 0 {
			version = v
		} else if v != version {
			t.Fatalf("%s: version %d, want %d", n.ID, v, version)
		}
	}

	want := refDists(t, 4)
	for k := 0; k < 4; k++ {
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("class %d", k), d, want[k])
		if resp.Node == "" {
			t.Error("response missing node attribution")
		}
	}

	fs := rt.Stats(context.Background())
	if fs.Nodes != 3 || fs.LiveNodes != 3 || len(fs.PerNode) != 3 {
		t.Fatalf("stats shape: nodes=%d live=%d per_node=%d, want 3/3/3", fs.Nodes, fs.LiveNodes, len(fs.PerNode))
	}
	if fs.Routed < 4 {
		t.Errorf("routed = %d, want >= 4", fs.Routed)
	}
	if fs.Aggregate.EvalRequests < 4 {
		t.Errorf("aggregate eval_requests = %d, want >= 4", fs.Aggregate.EvalRequests)
	}

	// The aggregate's ledger must balance: the joules it attributes are
	// attributed to somebody. One client and one interface made all the
	// traffic, and Fold adds nodes in Nodes() order, so every sum below
	// accumulates the same terms in the same order and == is exact.
	var byClient, byIface, byNode float64
	for _, e := range fs.Aggregate.Clients {
		byClient += e.MeanJ
	}
	for _, e := range fs.Aggregate.ByIface {
		byIface += e.MeanJ
	}
	for _, n := range f.Nodes() {
		byNode += fs.PerNode[n.ID].AttribJ
	}
	if agg := fs.Aggregate.AttribJ; agg <= 0 || byClient != agg || byIface != agg || byNode != agg {
		t.Errorf("aggregate ledger does not balance: attributed %v J, clients sum to %v, interfaces to %v, nodes to %v",
			agg, byClient, byIface, byNode)
	}
	if e := fs.Aggregate.ByIface["ml_webservice"]; e.Requests != 4 {
		t.Errorf("aggregate by_interface[ml_webservice].requests = %d, want 4", e.Requests)
	}
}

// TestFleetPeerForwarding: a node that never evaluated a key answers it
// from a peer's warm memo, bit-identically and without running Eval.
func TestFleetPeerForwarding(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	if _, err := f.RegisterSource(fleetEIL); err != nil {
		t.Fatal(err)
	}
	want := refDists(t, 1)[0]

	nodes := f.Nodes()
	warm, cold := nodes[0], nodes[1]
	cw := eisvc.NewClient(warm.URL)
	d, _, err := cw.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "warm node", d, want)

	cc := eisvc.NewClient(cold.URL)
	d, resp, err := cc.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "peer-forwarded", d, want)
	if !resp.Peer || !resp.Cached {
		t.Errorf("cold node response peer=%v cached=%v, want both true", resp.Peer, resp.Cached)
	}
	st, err := cc.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations != 0 || st.PeerHits != 1 {
		t.Errorf("cold node evaluations=%d peer_hits=%d, want 0/1", st.Evaluations, st.PeerHits)
	}
}

// TestFleetJoinDrainRebalance: after a node joins and a warm owner
// drains, re-running the whole trace costs zero new evaluations — every
// re-homed key resolves through the peer cache (the drained node donates
// until teardown) — and answers stay bit-identical.
func TestFleetJoinDrainRebalance(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	const distinct = 8
	want := refDists(t, distinct)

	for k := 0; k < distinct; k++ {
		d, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("warmup class %d", k), d, want[k])
	}
	before := rt.Stats(context.Background()).Aggregate.Evaluations

	if _, err := f.AddNode(); err != nil {
		t.Fatal(err)
	}
	victim := f.OwnersOf("ml_webservice")[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.DrainNode(ctx, victim); err != nil {
		t.Fatal(err)
	}

	for k := 0; k < distinct; k++ {
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("post-rebalance class %d", k), d, want[k])
		if resp.Node == victim {
			t.Errorf("class %d served by drained node %s", k, victim)
		}
	}

	fs := rt.Stats(context.Background())
	if fs.Aggregate.Evaluations != before {
		t.Errorf("rebalance re-ran %d evaluations, want 0 (all memo/peer hits)",
			fs.Aggregate.Evaluations-before)
	}
	if fs.Aggregate.PeerHits == 0 {
		t.Error("no peer hits during rebalance; cache handoff did not happen")
	}
}

// TestFleetKillMidTraceSmoke is the CI fleet gate: a 3-node fleet
// serving a concurrent Zipf trace loses one node mid-trace. Every
// request must still succeed (zero lost after router failover + client
// retries) with answers bit-identical to a single-node reference.
func TestFleetKillMidTraceSmoke(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	c.Retry = eisvc.DefaultRetryPolicy()
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}

	const (
		distinct = 16
		clients  = 4
		total    = 240
	)
	want := refDists(t, distinct)
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, distinct-1)
	trace := make([]int, total)
	for i := range trace {
		trace[i] = int(zipf.Uint64())
	}

	victim := f.OwnersOf("ml_webservice")[0]
	var started atomic.Int64
	var killed atomic.Bool
	var killOnce sync.Once
	var mu sync.Mutex
	var failures []string

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += clients {
				if started.Add(1) == total/3 {
					killOnce.Do(func() {
						if err := f.KillNode(victim); err != nil {
							t.Errorf("kill %s: %v", victim, err)
						}
						killed.Store(true)
					})
				}
				k := trace[i]
				d, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("req %d (class %d): %v", i, k, err))
					mu.Unlock()
					continue
				}
				if !d.Equal(want[k], 0) {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("req %d (class %d): answer differs from reference", i, k))
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	if !killed.Load() {
		t.Fatal("victim was never killed; trace too short")
	}
	if len(failures) > 0 {
		t.Fatalf("%d/%d requests lost or wrong after node kill; first: %s", len(failures), total, failures[0])
	}
	if n, _ := f.Node(victim); n.Live() {
		t.Fatal("victim still marked live")
	}
}

// TestFleetPartitionFailover: a partitioned (alive but unreachable) node
// forces router failovers, yet the fleet serves 100% with bit-identical
// answers; healing restores the node.
func TestFleetPartitionFailover(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	c.Retry = eisvc.DefaultRetryPolicy()
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	const distinct = 6
	want := refDists(t, distinct)

	victim := f.OwnersOf("ml_webservice")[0]
	if err := f.PartitionNode(victim, true); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < distinct; k++ {
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatalf("class %d during partition: %v", k, err)
		}
		bitIdentical(t, fmt.Sprintf("class %d during partition", k), d, want[k])
		if resp.Node == victim {
			t.Errorf("class %d answered by partitioned node %s", k, victim)
		}
	}
	if rt.Counters().Failovers == 0 {
		t.Error("no failovers recorded; partition was never hit")
	}

	if err := f.PartitionNode(victim, false); err != nil {
		t.Fatal(err)
	}
	n, _ := f.Node(victim)
	hc := eisvc.NewClient(n.URL)
	if _, err := hc.HealthzCtx(context.Background()); err != nil {
		t.Fatalf("healed node unreachable: %v", err)
	}
}

// TestFleetBatchRouting: a batch spanning many classes splits across the
// fleet and stitches back in order, every item bit-identical.
func TestFleetBatchRouting(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	const distinct = 10
	want := refDists(t, distinct)

	reqs := make([]eisvc.EvalRequest, distinct*2)
	for i := range reqs {
		reqs[i] = c.EvalRequestFor("ml_webservice", "handle", traceArgs(i%distinct), traceOpts)
	}
	items, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Error != "" {
			t.Fatalf("item %d: %s (status %d)", i, it.Error, it.Status)
		}
		d, err := it.Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("batch item %d", i), d, want[i%distinct])
	}
}

// TestFleetMutationReplication: a rebind through the router lands on all
// nodes with one shared version, and subsequent evals (wherever routed)
// price against the new binding.
func TestFleetMutationReplication(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterCtx(context.Background(), fleetAltHW); err != nil {
		t.Fatal(err)
	}
	exp := core.EvalOptions{Mode: core.ModeExpected}
	before, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), exp)
	if err != nil {
		t.Fatal(err)
	}

	v, err := c.RebindCtx(context.Background(), "ml_webservice", "accel", "accel_hw_v2")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range f.Nodes() {
		if _, nv, _ := n.Server.Registry().Get("ml_webservice"); nv != v {
			t.Fatalf("%s: version %d after rebind, want %d", n.ID, nv, v)
		}
	}

	// Every node must now serve the re-priced stack: ask each directly.
	for _, n := range f.Nodes() {
		nc := eisvc.NewClient(n.URL)
		after, _, err := nc.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), exp)
		if err != nil {
			t.Fatal(err)
		}
		if after.Mean() <= before.Mean() {
			t.Errorf("%s: mean %v after doubling the accelerator price, want > %v", n.ID, after.Mean(), before.Mean())
		}
	}
}

// TestStatsDocNamesEveryField: docs/EID.md's `GET /v1/stats` section
// names, in code, every JSON field of a node's /v1/stats and of the
// router's, so a counter cannot be added, or renamed, without its line in
// the docs.
func TestStatsDocNamesEveryField(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "EID.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### `GET /v1/stats`\n")
	if !ok {
		t.Fatal("docs/EID.md has no `GET /v1/stats` section")
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	named := map[string]bool{}
	for i, span := range strings.Split(section, "`") {
		if i%2 == 1 {
			for _, w := range regexp.MustCompile(`[a-z][a-z0-9_]*`).FindAllString(span, -1) {
				named[w] = true
			}
		}
	}
	var missing []string
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous && name == "":
				walk(f.Type)
			case f.IsExported() && name != "-" && !named[name]:
				missing = append(missing, typ.Name()+"."+name)
			}
		}
	}
	for _, v := range []any{eisvc.StatsResponse{}, eisvc.LatencyStats{}, eisvc.LedgerEntry{}, FleetStats{}} {
		walk(reflect.TypeOf(v))
	}
	if len(missing) > 0 {
		t.Errorf("docs/EID.md's `GET /v1/stats` section does not name %v", missing)
	}
}
